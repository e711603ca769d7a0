// BYZ1 — poisoning resistance: sweep malicious-peer fraction × adversary
// behavior for CEMPaR and PACE, with the sanitation + reputation defense
// stack off (undefended: what the original protocols do) and on.
//
// Expected shape: undefended macro-F1 collapses as the malicious fraction
// grows (label-flipped and garbage models enter every cascade / ensemble);
// defended macro-F1 stays within a few points of the clean baseline — at
// 30 % label-flip the acceptance bar is a <= 5-point drop — because
// sanitation rejects malformed uploads at ingestion and cross-validation
// quarantines anti-correlated contributors before they vote.
//
// `--smoke` runs a small clean + 30 %-label-flip grid (both algorithms,
// both arms) and writes the same CSV schema for CI validation.

#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "p2pdmt/byzantine.h"

using namespace p2pdt_bench;

namespace {

void ApplyDefenseTuning(ExperimentOptions& opt) {
  // Three regions per tag give every prediction three regional votes — the
  // minimum the requester-side median trim needs a majority over.
  opt.cempar.regions_per_tag = 3;
  // IID class distribution: the poisoning sweep isolates the adversary
  // effect from data heterogeneity. It also matters for the defense itself:
  // cross-validation can only score a contributor on tags whose holdout has
  // both classes, so under heavily non-IID splits much of the trust matrix
  // is unobservable (documented in DESIGN.md §10).
  opt.distribution.cls = ClassDistribution::kIid;
}

/// Runs the poisoning grid with the defense tuning applied, printing a
/// progress line per point; writes bench_results/byzantine.csv and returns
/// the bench's exit code.
int RunGrid(const VectorizedCorpus& corpus, ExperimentOptions base,
            const std::vector<double>& flip_fractions,
            const std::vector<AdversaryBehavior>& other_behaviors) {
  ApplyDefenseTuning(base);
  std::printf("%-8s %-18s %5s %4s %4s %8s %8s %9s %9s %7s\n", "algo",
              "adversary", "frac", "bad", "def", "macroF1", "microF1",
              "rejected", "discarded", "quarant");
  SweepResult sweep = RunSweep(
      corpus, ByzantineGrid(base, flip_fractions, other_behaviors),
      [](const SweepRow& row) {
        const ExperimentResult& r = row.result;
        std::printf(
            "%-8s %-18s %5.2f %4zu %4s %8.4f %8.4f %9llu %9llu %7llu\n",
            r.algorithm.c_str(), row.point.adversary.c_str(),
            row.point.malicious_fraction,
            row.point.options.env.fault.adversaries.size(),
            row.point.options.cempar.sanitize.enabled ? "on" : "off",
            r.metrics.macro_f1, r.metrics.micro_f1,
            static_cast<unsigned long long>(r.models_rejected),
            static_cast<unsigned long long>(r.votes_discarded),
            static_cast<unsigned long long>(r.quarantined_pairs));
      });
  WriteResults(ByzantineCsv(sweep.rows), "byzantine.csv");
  return ReportSweepFailures(sweep);
}

int RunSmoke() {
  std::printf("=== BYZ1 smoke: clean + 30%% label-flip for CI ===\n");
  CorpusOptions copt;
  copt.num_users = 10;
  copt.min_docs_per_user = 30;
  copt.max_docs_per_user = 40;
  copt.num_tags = 5;
  copt.vocabulary_size = 1000;
  copt.seed = 4242;
  Result<VectorizedCorpus> corpus = MakeVectorizedCorpus(copt);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus: %s\n", corpus.status().ToString().c_str());
    return 1;
  }

  ExperimentOptions base = MacroDefaults(AlgorithmType::kPace,
                                         /*num_peers=*/10);
  base.max_test_documents = 40;
  return RunGrid(corpus.value(), base, /*flip_fractions=*/{0.3},
                 /*other_behaviors=*/{AdversaryBehavior::kGarbageModel});
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return RunSmoke();

  std::printf("=== BYZ1: adversary fraction x behavior x defense ===\n\n");
  const VectorizedCorpus& corpus = SharedCorpus(/*num_users=*/128,
                                                /*num_tags=*/12);

  ExperimentOptions base = MacroDefaults(AlgorithmType::kPace,
                                         /*num_peers=*/64);
  base.max_test_documents = 200;
  // Label-flip is the headline attack, swept across fractions; the other
  // behaviors run at one fraction.
  return RunGrid(corpus, base, /*flip_fractions=*/{0.1, 0.2, 0.3, 0.4},
                 /*other_behaviors=*/{AdversaryBehavior::kGarbageModel,
                                      AdversaryBehavior::kDimensionMismatch,
                                      AdversaryBehavior::kAccuracyInflate,
                                      AdversaryBehavior::kVoteSpam});
}
