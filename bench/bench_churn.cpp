// DEMO3 + durability — behaviour under churn (paper Sec. 3) extended with
// the durable-peer-state layer:
//
//  1. Crash-restore equivalence: a mid-run crash followed by a checkpoint
//     restore must be *bit-identical* to never having crashed (tags and raw
//     scores compared exactly).
//  2. Warm-vs-cold rejoin sweep across churn models (none / exponential /
//     pareto): same seeds, so the warm and cold rows reach the same
//     accuracy; the difference is pure recovery cost — retrain work and
//     rejoin latency — which warm rejoin must strictly reduce whenever
//     rejoins happen. Written to bench_results/churn.csv.

#include <cstdio>

#include "bench/bench_util.h"
#include "p2pdmt/recovery_experiment.h"

using namespace p2pdt_bench;

int main() {
  std::printf("=== DEMO3: durability and recovery under churn ===\n\n");
  const VectorizedCorpus& corpus = SharedCorpus(/*num_users=*/128,
                                                /*num_tags=*/12);

  // --- 1. Crash-restore equivalence -----------------------------------
  std::printf("--- crash-restore equivalence (checkpoint warm restore) ---\n");
  for (AlgorithmType algo : {AlgorithmType::kCempar, AlgorithmType::kPace}) {
    ExperimentOptions opt = MacroDefaults(algo, 64);
    opt.max_test_documents = 200;
    Result<CrashRestoreReport> report =
        RunCrashRestoreExperiment(corpus, opt, /*num_crashed_peers=*/8);
    if (!report.ok()) {
      std::fprintf(stderr, "%s crash-restore failed: %s\n",
                   AlgorithmTypeToString(algo),
                   report.status().ToString().c_str());
      continue;
    }
    std::printf(
        "%-12s crashed=%zu restored=%zu ckpt=%.1fKiB predictions=%zu "
        "tag-mismatch=%zu score-mismatch=%zu resnap-mismatch=%zu  %s\n",
        report->algorithm.c_str(), report->crashed_peers,
        report->restored_peers,
        static_cast<double>(report->checkpoint_bytes) / 1024.0,
        report->predictions, report->mismatched_tags,
        report->mismatched_scores, report->resnapshot_mismatches,
        report->bit_identical() ? "BIT-IDENTICAL" : "DIVERGED");
  }

  // --- 2. Warm-vs-cold rejoin sweep -----------------------------------
  std::printf("\n--- warm vs cold rejoin across churn models ---\n");
  std::printf("%-12s %-12s %-5s %8s %8s %7s %9s %12s\n", "algorithm", "churn",
              "mode", "macroF1", "rejoins", "warm", "retrain", "lat(mean s)");

  ExperimentOptions base = MacroDefaults(AlgorithmType::kPace, 96);
  base.max_test_documents = 200;
  // Moderate churn: ~6% of peers offline at any instant, ~100 rejoins over
  // the exposure window. Heavier settings leave so many anti-entropy repairs
  // in flight at eval time that CEMPaR's DHT-side quality becomes dominated
  // by repair *timing* noise rather than by peer state, which is the wrong
  // thing to compare warm vs cold on.
  base.env.churn_mean_online_sec = 450.0;
  base.env.churn_mean_offline_sec = 30.0;
  SweepResult sweep =
      RunSweep(corpus, WarmColdGrid(base), [](const SweepRow& row) {
        const ExperimentResult& r = row.result;
        std::printf("%-12s %-12s %-5s %8.4f %8llu %7llu %9llu %12.3f\n",
                    r.algorithm.c_str(), r.churn.c_str(),
                    row.point.options.recovery.warm_rejoin ? "warm" : "cold",
                    r.metrics.macro_f1,
                    static_cast<unsigned long long>(r.churn_rejoins),
                    static_cast<unsigned long long>(r.warm_rejoins),
                    static_cast<unsigned long long>(r.retrain_examples),
                    r.mean_rejoin_latency_sec);
      });
  WriteResults(ChurnCsv(sweep.rows), "churn.csv");
  return ReportSweepFailures(sweep);
}
