// ROBUST1 — delivery guarantees under structured faults: sweep baseline
// loss rate × fault plan for CEMPaR and PACE, with the reliable transport
// off (fire-and-forget baseline, what the original papers measured) and on
// (ACK / timeout / backoff / bounded retries + repair).
//
// Expected shape: without retries, macro-F1 and prediction success fall
// roughly linearly with loss; with retries, delivery converges (PACE model
// coverage → 1.0, CEMPaR success ≈ 1.0) at the cost of the retransmission
// overhead column.

#include <cstdio>

#include "bench/bench_util.h"
#include "p2pdmt/robustness.h"

using namespace p2pdt_bench;

int main() {
  std::printf("=== ROBUST1: loss x fault plan x reliability ===\n\n");
  const VectorizedCorpus& corpus = SharedCorpus(/*num_users=*/128,
                                                /*num_tags=*/12);

  ExperimentOptions base = MacroDefaults(AlgorithmType::kPace, 64);
  base.max_test_documents = 200;
  std::vector<SweepPoint> points = RobustnessGrid(
      base, /*loss_rates=*/{0.0, 0.1, 0.2},
      CanonicalFaultPlans(base.env.num_peers, /*horizon=*/120.0));

  std::printf("%-8s %-10s %5s %4s %8s %8s %8s %8s %8s\n", "algo", "plan",
              "loss", "rel", "macroF1", "success", "deliv", "retxovh",
              "coverage");
  SweepResult sweep = RunSweep(corpus, points, [](const SweepRow& row) {
    const ExperimentResult& r = row.result;
    std::printf("%-8s %-10s %5.2f %4s %8.4f %8.4f %8.4f %8.4f %8.4f\n",
                r.algorithm.c_str(), row.point.plan.c_str(),
                row.point.options.env.physical.loss_rate,
                row.point.options.cempar.reliable_transport ? "on" : "off",
                r.metrics.macro_f1, r.prediction_success_rate(),
                r.delivery_rate, r.retry_overhead(), r.model_coverage);
  });
  WriteResults(RobustnessCsv(sweep.rows), "fault.csv");
  return ReportSweepFailures(sweep);
}
