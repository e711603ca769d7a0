#ifndef P2PDT_P2PDMT_OVERLOAD_H_
#define P2PDT_P2PDMT_OVERLOAD_H_

#include <functional>
#include <string>
#include <vector>

#include "common/csv.h"
#include "corpus/vectorize.h"
#include "p2pdmt/experiment.h"
#include "p2pdmt/loadgen.h"

namespace p2pdt {

/// One run of the overload harness: train the protocol as usual, then (when
/// the load generator is armed) replay tagging sessions against it and
/// measure goodput-within-SLO, shed rate and cache effectiveness. With the
/// generator disarmed the harness instead runs a short sequential
/// prediction pass and fingerprints only the answers (tags + scores) — the
/// witness that idle overload machinery changes no prediction.
struct OverloadExperimentOptions {
  /// Network, protocol, split and training settings (StandUpNetwork);
  /// env.observe.metrics is forced on, since the SLO histogram lives there.
  /// The fields RejectUnusedOptions lists must stay at their defaults.
  /// Armed load-generation results are bit-identical for every sim_shards.
  ExperimentOptions experiment;
  LoadGenOptions loadgen;
  /// Cap on the request catalog drawn from the test split (0 = all).
  std::size_t max_docs = 0;
  double max_load_sim_seconds = 86400.0;
};

/// Load-generator outcome plus the server-side ledgers for the same run.
struct OverloadRunStats {
  LoadGenResult load;
  /// Requests shed by admission control (serve-queue counters, summed over
  /// nodes; equals the requests_shed metric family total).
  uint64_t requests_shed = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_stale = 0;
  uint64_t give_ups = 0;
  /// NetworkStats drops recorded with DropReason::kOverloadShed.
  uint64_t overload_drops = 0;
  double train_sim_seconds = 0.0;

  /// Sheds per request attempt (offered + retries).
  double shed_rate() const {
    const uint64_t attempts = load.offered + load.retries;
    return attempts == 0 ? 0.0
                         : static_cast<double>(requests_shed) /
                               static_cast<double>(attempts);
  }
  /// hits / (hits + misses + stale) of the prediction cache; 0 when the
  /// cache was disabled or never consulted.
  double cache_hit_rate() const {
    const uint64_t lookups = cache_hits + cache_misses + cache_stale;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(lookups);
  }
};

Result<OverloadRunStats> RunOverloadExperiment(
    const VectorizedCorpus& corpus, const OverloadExperimentOptions& options);

/// One point of the overload sweep: the run's options plus the labels they
/// cannot reproduce.
struct OverloadPoint {
  OverloadExperimentOptions options;
  /// "undefended" | "defended".
  std::string arm = "undefended";
  /// "none" | "flash" | "disarmed".
  std::string burst = "none";

  std::string Name() const;
  /// Aggregate offered request rate; 0 when the generator is disarmed.
  double arrival_rate() const {
    return options.loadgen.enabled ? options.loadgen.arrival_rate : 0.0;
  }
  /// The flash crowd's rate multiplier; 1 without one.
  double burst_multiplier() const {
    return options.loadgen.enabled && !options.loadgen.bursts.empty()
               ? options.loadgen.bursts.front().rate_multiplier
               : 1.0;
  }
};

using OverloadRow = SweepRowOf<OverloadPoint, OverloadRunStats>;
using OverloadSweep = SweepResultOf<OverloadPoint, OverloadRunStats>;

/// The overload grid, each point a copy of `base`: for PACE, then CEMPaR,
/// one disarmed bit-identity pair (both arm configurations with the load
/// generator off — their fingerprints must match exactly), then
/// `arrival_rates` × {none, flash} × {undefended, defended}. The flash
/// burst multiplies the rate by `burst_multiplier` inside the replay's
/// expected steady-state span.
///
/// Both arms get finite per-node serving capacity at 4× the steady-state
/// offered rate: per session for PACE, which serves at the requester, and
/// per home owner for CEMPaR, budgeted as if ~4 Zipf-hot owners carry the
/// aggregate rate. The defended arm adds admission control + load
/// shedding, the prediction cache, CEMPaR request batching and the
/// reliable transport's typed overload path.
std::vector<OverloadPoint> OverloadGrid(
    const OverloadExperimentOptions& base,
    const std::vector<double>& arrival_rates, double burst_multiplier);

/// Runs every point through RunOverloadExperiment on RunSweepLoop.
OverloadSweep RunOverloadSweep(
    const VectorizedCorpus& corpus, const std::vector<OverloadPoint>& points,
    const std::function<void(const OverloadRow&)>& on_point);

/// Flattens completed overload points into the CSV schema bench_overload
/// writes (bench_results/overload.csv).
CsvWriter OverloadCsv(const std::vector<OverloadRow>& rows);

}  // namespace p2pdt

#endif  // P2PDT_P2PDMT_OVERLOAD_H_
