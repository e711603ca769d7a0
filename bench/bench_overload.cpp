// OVER1 — overload robustness: replay Zipf-popularity tagging sessions
// against the trained protocols, fire a scripted flash crowd (burst
// multiplier concentrated on a hot document set), and compare the
// undefended arm (finite serving capacity, no protection: queues grow
// without bound and latency blows the SLO) against the defended arm
// (admission control + typed overload rejects with retry-after, versioned
// prediction caching, CEMPaR request batching).
//
// Expected shape: with no burst both arms stay healthy. At the flash crowd
// the undefended arm's p95 tagging latency shoots past the SLO (or its
// goodput collapses outright); the defended arm sheds the excess early,
// serves the hot set from cache, and sustains >= 2x the undefended
// goodput-within-SLO. Disarmed rows (load generator off) carry per-answer
// fingerprints that must match between the two arm configurations — the
// bit-identity witness that idle overload machinery changes no prediction.
//
// `--smoke` runs a small grid and writes the same CSV schema for CI.

#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "p2pdmt/overload.h"

using namespace p2pdt_bench;

namespace {

void PrintHeader() {
  std::printf("%-8s %-11s %-9s %7s %5s %8s %7s %7s %7s %8s %8s %8s %8s\n",
              "algo", "arm", "burst", "rate", "mult", "offered", "ok",
              "cached", "shed", "goodput", "p95_s", "hit_rate", "giveups");
}

OverloadExperimentOptions CommonBase(std::size_t num_peers) {
  OverloadExperimentOptions base;
  base.experiment.env.num_peers = num_peers;
  base.experiment.distribution.cls = ClassDistribution::kByUser;
  base.experiment.seed = 20100913;
  base.loadgen.sessions = num_peers;
  base.loadgen.slo_latency = 1.0;
  base.loadgen.max_retries = 1;
  base.loadgen.retry_backoff = 0.5;
  return base;
}

int RunGrid(const OverloadExperimentOptions& base,
            const std::vector<double>& arrival_rates,
            double burst_multiplier) {
  PrintHeader();
  OverloadSweep sweep = RunOverloadSweep(
      SharedCorpus(base.experiment.env.num_peers, 6),
      OverloadGrid(base, arrival_rates, burst_multiplier),
      [](const OverloadRow& row) {
        const OverloadRunStats& s = row.result;
        std::printf(
            "%-8s %-11s %-9s %7.3g %5.3g %8llu %7llu %7llu %7llu %8.3f "
            "%8.3f %8.3f %8llu\n",
            AlgorithmTypeToString(row.point.options.experiment.algorithm),
            row.point.arm.c_str(), row.point.burst.c_str(),
            row.point.arrival_rate(), row.point.burst_multiplier(),
            static_cast<unsigned long long>(s.load.offered),
            static_cast<unsigned long long>(s.load.ok),
            static_cast<unsigned long long>(s.load.cached),
            static_cast<unsigned long long>(s.requests_shed),
            s.load.goodput_within_slo, s.load.p95_latency,
            s.cache_hit_rate(), static_cast<unsigned long long>(s.give_ups));
      });
  WriteResults(OverloadCsv(sweep.rows), "overload.csv");
  return ReportSweepFailures(sweep);
}

int RunSmoke() {
  std::printf("=== OVER1 smoke: flash crowd, defended vs undefended ===\n");
  OverloadExperimentOptions base = CommonBase(/*num_peers=*/24);
  // Sessions long enough that the burst catches most of each session's
  // tail (that is what builds the undefended backlog); a single aggregate
  // rate and a hard multiplier keep the separation unambiguous for CI.
  base.loadgen.min_docs = 20;
  base.loadgen.max_docs = 32;
  return RunGrid(base, /*arrival_rates=*/{24.0}, /*burst_multiplier=*/20.0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return RunSmoke();

  std::printf("=== OVER1: offered load x burst x arm x algorithm ===\n\n");
  OverloadExperimentOptions base = CommonBase(/*num_peers=*/64);
  base.loadgen.min_docs = 50;
  base.loadgen.max_docs = 80;
  return RunGrid(base, /*arrival_rates=*/{32.0, 64.0},
                 /*burst_multiplier=*/8.0);
}
