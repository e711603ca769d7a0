#ifndef P2PDT_P2PDMT_EXPERIMENT_H_
#define P2PDT_P2PDMT_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cost_ledger.h"
#include "common/logging.h"
#include "common/status.h"
#include "corpus/vectorize.h"
#include "ml/metrics.h"
#include "p2pdmt/data_distribution.h"
#include "p2pdmt/environment.h"
#include "p2pdmt/recovery.h"
#include "p2pml/baselines.h"
#include "p2pml/cempar.h"
#include "p2pml/pace.h"

namespace p2pdt {

/// The pluggable P2P classification algorithms an experiment can run.
enum class AlgorithmType {
  kCempar,
  kPace,
  kCentralized,
  kLocalOnly,
  kModelAvg,
};

const char* AlgorithmTypeToString(AlgorithmType t);

/// The two P2P protocols the paper compares; every sweep grid runs both.
inline constexpr AlgorithmType kSweepAlgorithms[] = {AlgorithmType::kCempar,
                                                     AlgorithmType::kPace};

/// Full description of one experiment run — P2PDMT's "Set parameters"
/// surface (Fig. 2): network, churn, overlay, data distribution, algorithm
/// and evaluation settings.
struct ExperimentOptions {
  EnvironmentOptions env;
  DataDistributionOptions distribution;
  AlgorithmType algorithm = AlgorithmType::kPace;
  CemparOptions cempar;
  PaceOptions pace;
  CentralizedOptions centralized;
  LocalOnlyOptions local_only;
  ModelAveragingOptions model_avg;

  /// Fraction of tagged documents used for training; the paper's
  /// demonstration uses 20 % ("20 percent of the documents with tags are
  /// used for training", Sec. 3).
  double train_fraction = 0.2;
  /// Cap on evaluated test documents (sampled) to bound run time; 0 = all.
  std::size_t max_test_documents = 400;
  /// Cap on distinct requester peers used during evaluation; 0 = the legacy
  /// behavior (any online peer may be drawn per document). At 100k peers
  /// restricting requesters to a deterministic sample bounds per-requester
  /// state (caches, probation clocks) without changing what is measured —
  /// see DeterministicSample in p2pdmt/evaluation.h.
  std::size_t max_eval_peers = 0;
  /// Forwarded into the chosen classifier's sim_shards knob when non-zero
  /// (0 leaves each protocol's own default). Bit-identical results for
  /// every value; see CemparOptions::sim_shards.
  std::size_t sim_shards = 0;
  /// Simulated-time budgets for protocol quiescence.
  double max_train_sim_seconds = 3600.0;
  double max_predict_sim_seconds = 3600.0;
  /// Warm-up simulated seconds before training starts (lets churn and
  /// stabilization reach steady state).
  double warmup_sim_seconds = 0.0;
  /// Durable peer state: checkpoint trained models and recover rejoining
  /// peers warm (restore) or cold (retrain) — see RecoveryCoordinator.
  RecoveryOptions recovery;
  /// Simulated seconds of post-training churn exposure before evaluation
  /// (lets failures/rejoins — and hence recoveries — actually happen).
  double post_train_sim_seconds = 0.0;
  /// Observability artifacts (all optional; empty = don't write). Each
  /// requires the matching env.observe subsystem to be enabled, otherwise
  /// there is nothing to export and the path is an error.
  std::string report_path;   ///< Run report JSON (see RunReport).
  std::string metrics_path;  ///< Raw metrics registry JSON export.
  std::string trace_path;    ///< Chrome trace_event JSON export.
  std::string profile_path;  ///< Collapsed-stack flamegraph text export.
  uint64_t seed = 777;
};

/// Everything one run produces: quality, cost, timing and context.
struct ExperimentResult {
  std::string algorithm;
  std::string overlay;
  std::string churn;
  std::size_t num_peers = 0;
  std::size_t train_documents = 0;
  std::size_t test_documents = 0;

  MultiLabelMetrics metrics;
  std::size_t failed_predictions = 0;
  /// Predictions answered from a degraded path (local-model fallback after
  /// the reliable transport exhausted its retries). Counted as successes.
  std::size_t degraded_predictions = 0;

  /// Delivery / reliability accounting over the whole run.
  double delivery_rate = 1.0;
  uint64_t dropped_messages = 0;
  uint64_t injected_drops = 0;
  uint64_t retransmits = 0;
  uint64_t acks_received = 0;
  uint64_t give_ups = 0;
  /// Peers the reliable transport currently suspects dead (consecutive
  /// give-ups without a later ACK) at the end of the run; 0 when the
  /// algorithm ran fire-and-forget.
  uint64_t suspected_peers = 0;
  /// PACE only: fraction of (receiver, contributor) pairs holding the
  /// contributor's model after training (-1 for other algorithms).
  double model_coverage = -1.0;

  /// Byzantine-defense counters from the protocol's sanitation + reputation
  /// stack (all 0 for protocols without one, or when nothing was hostile).
  uint64_t models_rejected = 0;
  uint64_t votes_discarded = 0;
  uint64_t quarantined_pairs = 0;
  uint64_t trust_observations = 0;

  /// Communication, split by phase (snapshot deltas around each phase).
  uint64_t train_messages = 0;
  uint64_t train_bytes = 0;
  uint64_t predict_messages = 0;
  uint64_t predict_bytes = 0;
  uint64_t maintenance_messages = 0;
  uint64_t maintenance_bytes = 0;

  double train_sim_seconds = 0.0;
  double predict_sim_seconds = 0.0;
  double wall_seconds = 0.0;

  /// Churn exposure over the run (0 when the churn model is `none`).
  uint64_t churn_failures = 0;
  uint64_t churn_rejoins = 0;
  /// Recovery accounting (all 0 unless options.recovery.enabled).
  uint64_t warm_rejoins = 0;
  uint64_t cold_rejoins = 0;
  uint64_t corrupt_checkpoints = 0;
  uint64_t retrain_examples = 0;
  uint64_t checkpoint_bytes = 0;
  double mean_rejoin_latency_sec = 0.0;
  double max_rejoin_latency_sec = 0.0;

  DistributionSummary distribution;

  /// Snapshot of every metric the environment collected (empty unless
  /// env.observe.metrics was set) — phase latency histograms live here.
  MetricsSnapshot observability;

  /// Deterministic hot-path cost ledger deltas per phase (all zero unless
  /// env.observe.cost_ledger was set). Bit-identical across shard/thread
  /// configurations at a fixed seed.
  bool cost_ledger_enabled = false;
  CostCounts train_cost;
  CostCounts predict_cost;

  /// Mean bytes per peer spent on training — the per-user cost the paper's
  /// efficiency argument is about.
  double train_bytes_per_peer() const {
    return num_peers == 0 ? 0.0
                          : static_cast<double>(train_bytes) /
                                static_cast<double>(num_peers);
  }
  /// Mean bytes per prediction request.
  double predict_bytes_per_doc() const {
    return test_documents == 0 ? 0.0
                               : static_cast<double>(predict_bytes) /
                                     static_cast<double>(test_documents);
  }
  /// Fraction of prediction requests answered (the success flag), degraded
  /// answers included; 1 when nothing was asked.
  double prediction_success_rate() const {
    return test_documents == 0
               ? 1.0
               : 1.0 - static_cast<double>(failed_predictions) /
                           static_cast<double>(test_documents);
  }
  /// Retransmissions per non-maintenance protocol message — the price the
  /// transport pays for its delivery guarantee.
  double retry_overhead() const {
    uint64_t protocol_messages = train_messages + predict_messages;
    return protocol_messages == 0
               ? 0.0
               : static_cast<double>(retransmits) /
                     static_cast<double>(protocol_messages);
  }

  std::string ToString() const;
};

/// Runs one experiment end to end: split → distribute → build environment
/// → train protocol → evaluate predictions, all in simulated time.
/// `corpus` can be shared across many runs (it is read-only here), so
/// sweeps re-use one expensive preprocessing pass.
Result<ExperimentResult> RunExperiment(const VectorizedCorpus& corpus,
                                       const ExperimentOptions& options);

/// A completed sweep point: what ran and what it produced.
template <typename Point, typename Outcome>
struct SweepRowOf {
  Point point;
  Outcome result;
};

/// What a sweep produced: one row per completed point, in grid order, and
/// the name (with its error) of every point that failed.
template <typename Point, typename Outcome>
struct SweepResultOf {
  std::vector<SweepRowOf<Point, Outcome>> rows;
  std::vector<std::string> failed;
};

/// P2PDMT's "set parameters → run → collect statistics" loop, the one every
/// sweep runs on: runs each point in order through `run`. A failed point is
/// skipped with a warning and named (`Point::Name()` plus its error) in
/// `failed` rather than aborting the sweep. `on_point` (may be null) is
/// invoked after every completed point, for progress.
template <typename Point, typename Outcome>
SweepResultOf<Point, Outcome> RunSweepLoop(
    const std::vector<Point>& points,
    const std::function<Result<Outcome>(const Point&)>& run,
    const std::function<void(const SweepRowOf<Point, Outcome>&)>& on_point) {
  SweepResultOf<Point, Outcome> sweep;
  for (const Point& point : points) {
    Result<Outcome> r = run(point);
    if (!r.ok()) {
      std::string failure =
          point.Name() + " failed: " + r.status().ToString();
      P2PDT_LOG(Warning) << failure;
      sweep.failed.push_back(std::move(failure));
      continue;
    }
    sweep.rows.push_back({point, std::move(r).value()});
    if (on_point) on_point(sweep.rows.back());
  }
  return sweep;
}

/// One point of a RunExperiment sweep: the options to run plus the labels
/// the options cannot reproduce (a fault plan or adversary set is data, not
/// a name).
struct SweepPoint {
  ExperimentOptions options;
  /// Fault-plan name ("none" when no plan is injected).
  std::string plan = "none";
  /// Adversary behavior name ("none" for the clean arm).
  std::string adversary = "none";
  /// Requested malicious fraction; the plan rounds it to whole peers.
  double malicious_fraction = 0.0;

  std::string Name() const;
};

using SweepRow = SweepRowOf<SweepPoint, ExperimentResult>;
using SweepResult = SweepResultOf<SweepPoint, ExperimentResult>;

/// Runs every point through RunExperiment on RunSweepLoop.
SweepResult RunSweep(const VectorizedCorpus& corpus,
                     const std::vector<SweepPoint>& points,
                     const std::function<void(const SweepRow&)>& on_point);

/// Builds the classifier for `options` against an environment (exposed for
/// benches that need direct protocol access, e.g. fault injection).
Result<std::unique_ptr<P2PClassifier>> MakeClassifier(
    Environment& env, const ExperimentOptions& options);

/// A classifier installed on the peers of its simulated environment.
struct ClassifierNetwork {
  std::unique_ptr<Environment> env;
  std::unique_ptr<P2PClassifier> algo;
};

/// Stands up a network from shards: creates `options.env`, builds
/// `options.algorithm` on it, installs `peer_data` (one shard per peer) and
/// starts the environment's dynamics. The classifier is not yet trained.
Result<ClassifierNetwork> SetUpNetwork(const ExperimentOptions& options,
                                       std::vector<DatasetShard> peer_data,
                                       TagId num_tags);

/// Trains the installed classifier and runs the simulator until training
/// completes. Returns the simulated seconds RunUntilFlag reports; fails
/// when training fails or does not quiesce within `max_train_sim_seconds`.
Result<double> TrainToQuiescence(Environment& env, P2PClassifier& algo,
                                 double max_train_sim_seconds);

/// Deterministically splits `corpus` into train/test keeping the user
/// mapping (needed for by-user distribution).
struct CorpusSplit {
  MultiLabelDataset train;
  std::vector<std::size_t> train_user;
  MultiLabelDataset test;
  std::vector<std::size_t> test_user;
};
CorpusSplit SplitCorpus(const VectorizedCorpus& corpus, double train_fraction,
                        uint64_t seed);

/// A network stood up from a corpus, not yet trained.
struct StoodUpNetwork {
  ClassifierNetwork network;
  /// The held-out half of the split, in split order.
  MultiLabelDataset test;
  std::size_t train_documents = 0;
  DistributionSummary distribution;
};

/// P2PDMT's "set parameters" step, shared by every corpus harness: splits
/// `corpus` (SplitCorpus with options.train_fraction and options.seed),
/// distributes the training half over options.env.num_peers peers
/// (DistributeDataShared) and stands the network up on it (SetUpNetwork).
Result<StoodUpNetwork> StandUpNetwork(const VectorizedCorpus& corpus,
                                      const ExperimentOptions& options);

/// The first `max_docs` documents of `test` (all of them when 0), in split
/// order: the popularity-ordered request catalog the overload and service
/// harnesses replay. The pointers view `test`.
std::vector<const SparseVector*> RequestCatalog(const MultiLabelDataset& test,
                                                std::size_t max_docs);

/// Read-only views of the protocol machinery the harnesses report on; each
/// is null where the classifier has none (only CEMPaR and PACE have any).
struct ProtocolInternals {
  const ReliableTransport* transport = nullptr;
  const ServeQueueSet* serve_queue = nullptr;
  const PredictCacheSet* predict_cache = nullptr;
  /// Set for PACE, whose model coverage the experiment reports.
  const Pace* pace = nullptr;

  /// Peers in [0, num_nodes) the reliable transport suspects dead; 0
  /// without a transport (fire-and-forget).
  uint64_t SuspectedPeers(std::size_t num_nodes) const;
};
ProtocolInternals InternalsOf(P2PClassifier& algo);

}  // namespace p2pdt

#endif  // P2PDT_P2PDMT_EXPERIMENT_H_
