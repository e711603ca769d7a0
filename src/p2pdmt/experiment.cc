#include "p2pdmt/experiment.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <sstream>

#include <memory>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "p2pdmt/evaluation.h"
#include "p2pdmt/run_report.h"

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

namespace p2pdt {

const char* AlgorithmTypeToString(AlgorithmType t) {
  switch (t) {
    case AlgorithmType::kCempar:
      return "cempar";
    case AlgorithmType::kPace:
      return "pace";
    case AlgorithmType::kCentralized:
      return "centralized";
    case AlgorithmType::kLocalOnly:
      return "local_only";
    case AlgorithmType::kModelAvg:
      return "model_avg";
  }
  return "unknown";
}

CorpusSplit SplitCorpus(const VectorizedCorpus& corpus, double train_fraction,
                        uint64_t seed) {
  CorpusSplit split;
  split.train.set_num_tags(corpus.dataset.num_tags());
  split.test.set_num_tags(corpus.dataset.num_tags());
  Rng rng(seed);
  std::vector<std::size_t> order(corpus.dataset.size());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  std::size_t n_train = static_cast<std::size_t>(
      train_fraction * static_cast<double>(order.size()) + 0.5);
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::size_t idx = order[i];
    if (i < n_train) {
      split.train.Add(corpus.dataset[idx]);
      split.train_user.push_back(corpus.doc_user[idx]);
    } else {
      split.test.Add(corpus.dataset[idx]);
      split.test_user.push_back(corpus.doc_user[idx]);
    }
  }
  return split;
}

Result<StoodUpNetwork> StandUpNetwork(const VectorizedCorpus& corpus,
                                      const ExperimentOptions& options) {
  CorpusSplit split =
      SplitCorpus(corpus, options.train_fraction, options.seed);
  StoodUpNetwork stood_up;
  stood_up.train_documents = split.train.size();
  stood_up.test = std::move(split.test);
  // The training corpus becomes one shared immutable block; every peer gets
  // a flyweight index view into it.
  Result<std::vector<DatasetShard>> peers = DistributeDataShared(
      std::make_shared<const MultiLabelDataset>(std::move(split.train)),
      options.env.num_peers, options.distribution, &split.train_user);
  if (!peers.ok()) return peers.status();
  stood_up.distribution =
      SummarizeDistribution(peers.value(), corpus.dataset.num_tags());
  Result<ClassifierNetwork> network = SetUpNetwork(
      options, std::move(peers).value(), corpus.dataset.num_tags());
  if (!network.ok()) return network.status();
  stood_up.network = std::move(network).value();
  return stood_up;
}

Status RejectUnusedOptions(const ExperimentOptions& options,
                           const std::string& harness, bool splits_corpus) {
  const ExperimentOptions d;
  const std::pair<const char*, bool> differs[] = {
      {"warmup_sim_seconds",
       options.warmup_sim_seconds != d.warmup_sim_seconds},
      {"post_train_sim_seconds",
       options.post_train_sim_seconds != d.post_train_sim_seconds},
      {"recovery", options.recovery != d.recovery},
      {"max_test_documents",
       options.max_test_documents != d.max_test_documents},
      {"max_eval_peers", options.max_eval_peers != d.max_eval_peers},
      {"max_predict_sim_seconds",
       options.max_predict_sim_seconds != d.max_predict_sim_seconds},
      {"report_path", options.report_path != d.report_path},
      {"metrics_path", options.metrics_path != d.metrics_path},
      {"trace_path", options.trace_path != d.trace_path},
      {"profile_path", options.profile_path != d.profile_path},
      {"distribution",
       !splits_corpus && options.distribution != d.distribution},
      {"train_fraction",
       !splits_corpus && options.train_fraction != d.train_fraction},
      {"seed", !splits_corpus && options.seed != d.seed},
  };
  for (const auto& [field, set] : differs) {
    if (set) {
      return Status::InvalidArgument(harness + " harness ignores " + field +
                                     "; leave it at its default");
    }
  }
  return Status::OK();
}

EvaluationSample SampleEvaluation(const ExperimentOptions& options,
                                  std::size_t test_size,
                                  const PhysicalNetwork& net) {
  EvaluationSample sample;
  Rng eval_rng(options.seed ^ 0xE7A1);
  sample.test_idx.resize(test_size);
  std::iota(sample.test_idx.begin(), sample.test_idx.end(), 0);
  eval_rng.Shuffle(sample.test_idx);
  if (options.max_test_documents > 0 &&
      sample.test_idx.size() > options.max_test_documents) {
    sample.test_idx.resize(options.max_test_documents);
  }

  // Sampled evaluation: with max_eval_peers set, requesters are drawn from
  // a deterministic subsample of the network instead of all of it (same
  // pool for every run/thread/shard count). Empty = legacy full-network
  // draw, with the RNG call sequence untouched.
  std::vector<std::size_t> eval_peers;
  if (options.max_eval_peers > 0 &&
      options.max_eval_peers < net.num_nodes()) {
    eval_peers = DeterministicSample(net.num_nodes(), options.max_eval_peers,
                                     options.seed ^ 0x5A3F);
  }
  auto pick_requester = [&]() -> NodeId {
    // Prefer an online peer; bounded retries keep this deterministic.
    if (!eval_peers.empty()) {
      for (int attempt = 0; attempt < 64; ++attempt) {
        NodeId n = static_cast<NodeId>(
            eval_peers[eval_rng.NextU64(eval_peers.size())]);
        if (net.IsOnline(n)) return n;
      }
      return static_cast<NodeId>(
          eval_peers[eval_rng.NextU64(eval_peers.size())]);
    }
    for (int attempt = 0; attempt < 64; ++attempt) {
      NodeId n = eval_rng.NextU64(net.num_nodes());
      if (net.IsOnline(n)) return n;
    }
    return eval_rng.NextU64(net.num_nodes());
  };
  sample.requesters.resize(sample.test_idx.size());
  for (NodeId& requester : sample.requesters) requester = pick_requester();
  return sample;
}

std::vector<const SparseVector*> RequestCatalog(const MultiLabelDataset& test,
                                                std::size_t max_docs) {
  const std::size_t size =
      max_docs == 0 ? test.size() : std::min(max_docs, test.size());
  std::vector<const SparseVector*> docs;
  docs.reserve(size);
  for (std::size_t i = 0; i < size; ++i) docs.push_back(&test[i].x);
  return docs;
}

ProtocolInternals InternalsOf(P2PClassifier& algo) {
  ProtocolInternals internals;
  if (auto* pace = dynamic_cast<Pace*>(&algo)) {
    internals.transport = pace->transport();
    internals.serve_queue = pace->serve_queue();
    internals.predict_cache = pace->predict_cache();
    internals.pace = pace;
  } else if (auto* cempar = dynamic_cast<Cempar*>(&algo)) {
    internals.transport = cempar->transport();
    internals.serve_queue = cempar->serve_queue();
    internals.predict_cache = cempar->predict_cache();
  }
  return internals;
}

uint64_t ProtocolInternals::SuspectedPeers(std::size_t num_nodes) const {
  uint64_t suspected = 0;
  if (transport == nullptr) return suspected;
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (transport->IsSuspected(n)) ++suspected;
  }
  return suspected;
}

Result<std::unique_ptr<P2PClassifier>> MakeClassifier(
    Environment& env, const ExperimentOptions& options) {
  switch (options.algorithm) {
    case AlgorithmType::kCempar: {
      if (env.chord() == nullptr) {
        return Status::FailedPrecondition(
            "CEMPaR requires a DHT (Chord) overlay");
      }
      CemparOptions cempar = options.cempar;
      if (options.sim_shards != 0) cempar.sim_shards = options.sim_shards;
      return std::unique_ptr<P2PClassifier>(std::make_unique<Cempar>(
          env.sim(), env.net(), *env.chord(), cempar));
    }
    case AlgorithmType::kPace: {
      PaceOptions pace = options.pace;
      if (options.sim_shards != 0) pace.sim_shards = options.sim_shards;
      return std::unique_ptr<P2PClassifier>(std::make_unique<Pace>(
          env.sim(), env.net(), env.overlay(), pace));
    }
    case AlgorithmType::kCentralized:
      return std::unique_ptr<P2PClassifier>(
          std::make_unique<CentralizedClassifier>(env.sim(), env.net(),
                                                  options.centralized));
    case AlgorithmType::kLocalOnly:
      return std::unique_ptr<P2PClassifier>(
          std::make_unique<LocalOnlyClassifier>(env.sim(), env.net(),
                                                options.local_only));
    case AlgorithmType::kModelAvg:
      return std::unique_ptr<P2PClassifier>(
          std::make_unique<ModelAveragingClassifier>(
              env.sim(), env.net(), env.overlay(), options.model_avg));
  }
  return Status::InvalidArgument("unknown algorithm");
}

Result<ClassifierNetwork> SetUpNetwork(const ExperimentOptions& options,
                                       std::vector<DatasetShard> peer_data,
                                       TagId num_tags) {
  ClassifierNetwork network;
  Result<std::unique_ptr<Environment>> env = Environment::Create(options.env);
  if (!env.ok()) return env.status();
  network.env = std::move(env).value();
  Result<std::unique_ptr<P2PClassifier>> algo =
      MakeClassifier(*network.env, options);
  if (!algo.ok()) return algo.status();
  network.algo = std::move(algo).value();
  P2PDT_RETURN_IF_ERROR(
      network.algo->SetupShards(std::move(peer_data), num_tags));
  network.env->StartDynamics();
  return network;
}

Result<double> TrainToQuiescence(Environment& env, P2PClassifier& algo,
                                 double max_train_sim_seconds) {
  bool train_done = false;
  Status train_status = Status::OK();
  algo.Train([&](Status s) {
    train_status = s;
    train_done = true;
  });
  const double sim_seconds =
      env.RunUntilFlag(train_done, max_train_sim_seconds);
  if (!train_done) {
    return Status::Internal("training protocol did not quiesce in " +
                            std::to_string(max_train_sim_seconds) +
                            " simulated seconds");
  }
  P2PDT_RETURN_IF_ERROR(train_status);
  return sim_seconds;
}

namespace {

struct StatsSnapshot {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t maintenance_messages = 0;
  uint64_t maintenance_bytes = 0;

  static StatsSnapshot Take(const NetworkStats& stats) {
    StatsSnapshot s;
    s.messages = stats.messages_sent();
    s.bytes = stats.bytes_sent();
    s.maintenance_messages =
        stats.messages_sent(MessageType::kOverlayMaintenance);
    s.maintenance_bytes = stats.bytes_sent(MessageType::kOverlayMaintenance);
    return s;
  }
};

/// Unique per-run scratch directory for auto-managed checkpoints; pid +
/// counter keep `ctest -j` processes and same-process sweeps apart.
std::string MakeCheckpointScratchDir(uint64_t seed) {
  static std::atomic<uint64_t> counter{0};
#ifdef _WIN32
  int pid = _getpid();
#else
  int pid = getpid();
#endif
  std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("p2pdt-ckpt-" + std::to_string(pid) + "-" + std::to_string(seed) +
       "-" + std::to_string(counter.fetch_add(1)));
  return dir.string();
}

/// Removes an auto-created scratch directory on every exit path.
struct ScratchDirGuard {
  std::string dir;
  ~ScratchDirGuard() {
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

/// Restores the process-wide ledger enable bit on every exit path.
struct LedgerGuard {
  bool active = false;
  bool prev = false;
  void Enable() {
    prev = CostLedger::SetEnabled(true);
    active = true;
  }
  ~LedgerGuard() {
    if (active) CostLedger::SetEnabled(prev);
  }
};

/// Flushes one phase's ledger delta into the metrics registry as counters
/// (`cost_ops{classifier,op,phase}` for scalar operation counts,
/// `wire_messages` / `wire_bytes{classifier,msg_type,phase}` for the
/// per-message-type wire accounting). Counters are additive, so the flush
/// joins the same serial==sharded bit-identity contract as the ledger.
void FlushCostDelta(MetricsRegistry* metrics, const std::string& classifier,
                    const char* phase, const CostCounts& delta) {
  if (metrics == nullptr) return;
  for (const auto& [op, value] : delta.Scalars()) {
    if (value == 0) continue;
    metrics
        ->GetCounter("cost_ops",
                     {{"classifier", classifier}, {"op", op}, {"phase", phase}})
        .Increment(value);
  }
  for (std::size_t t = 0; t < static_cast<std::size_t>(MessageType::kCount);
       ++t) {
    if (delta.wire_messages_by_type[t] == 0 &&
        delta.wire_bytes_by_type[t] == 0) {
      continue;
    }
    const char* msg_type = MessageTypeToString(static_cast<MessageType>(t));
    metrics
        ->GetCounter("wire_messages", {{"classifier", classifier},
                                       {"msg_type", msg_type},
                                       {"phase", phase}})
        .Increment(delta.wire_messages_by_type[t]);
    metrics
        ->GetCounter("wire_bytes", {{"classifier", classifier},
                                    {"msg_type", msg_type},
                                    {"phase", phase}})
        .Increment(delta.wire_bytes_by_type[t]);
  }
}

}  // namespace

Result<ExperimentResult> RunExperiment(const VectorizedCorpus& corpus,
                                       const ExperimentOptions& options) {
  Stopwatch wall;
  ExperimentResult result;
  result.algorithm = AlgorithmTypeToString(options.algorithm);
  result.overlay = OverlayTypeToString(options.env.overlay);
  result.churn = ChurnTypeToString(options.env.churn);
  result.num_peers = options.env.num_peers;

  // 1-2. Split, distribute, environment + algorithm.
  Result<StoodUpNetwork> stood_up = StandUpNetwork(corpus, options);
  if (!stood_up.ok()) return stood_up.status();
  result.train_documents = stood_up->train_documents;
  result.distribution = stood_up->distribution;
  const MultiLabelDataset& test = stood_up->test;
  Environment& env = *stood_up->network.env;
  P2PClassifier& algo = *stood_up->network.algo;
  if (options.warmup_sim_seconds > 0.0) {
    env.sim().RunUntil(env.sim().Now() + options.warmup_sim_seconds);
  }

  // Deterministic cost accounting: the ledger's thread-local counters are
  // cumulative for the process, so each phase is a Collect() delta taken at
  // pool quiesce points.
  LedgerGuard ledger;
  if (options.env.observe.cost_ledger) {
    ledger.Enable();
    result.cost_ledger_enabled = true;
  }

  // 3. Train.
  if (env.profiler() != nullptr) env.profiler()->SetPhase("train");
  CostCounts before_train_cost = CostLedger::Collect();
  StatsSnapshot before_train = StatsSnapshot::Take(env.net().stats());
  Result<double> train_sim_seconds =
      TrainToQuiescence(env, algo, options.max_train_sim_seconds);
  if (!train_sim_seconds.ok()) return train_sim_seconds.status();
  result.train_sim_seconds = train_sim_seconds.value();
  if (result.cost_ledger_enabled) {
    result.train_cost = CostLedger::Collect() - before_train_cost;
  }
  StatsSnapshot after_train = StatsSnapshot::Take(env.net().stats());
  result.train_messages = (after_train.messages - before_train.messages) -
                          (after_train.maintenance_messages -
                           before_train.maintenance_messages);
  result.train_bytes =
      (after_train.bytes - before_train.bytes) -
      (after_train.maintenance_bytes - before_train.maintenance_bytes);

  // 3b. Durability: checkpoint the trained peers, then recover every peer
  // that churns out and back during the post-training exposure window.
  std::unique_ptr<CheckpointManager> checkpoints;
  std::unique_ptr<RecoveryCoordinator> recovery;
  ScratchDirGuard scratch;
  if (options.recovery.enabled) {
    if (!algo.SupportsDurability()) {
      return Status::FailedPrecondition(
          std::string(AlgorithmTypeToString(options.algorithm)) +
          " does not support durable peer state");
    }
    std::string dir = options.recovery.checkpoint_dir;
    if (dir.empty()) {
      scratch.dir = MakeCheckpointScratchDir(options.seed);
      dir = scratch.dir;
    }
    checkpoints = std::make_unique<CheckpointManager>(dir);
    recovery = std::make_unique<RecoveryCoordinator>(
        env.sim(), env.net(), env.churn(), algo, *checkpoints,
        options.recovery);
    P2PDT_RETURN_IF_ERROR(recovery->CheckpointAll());
    recovery->Attach();
  }
  if (options.post_train_sim_seconds > 0.0) {
    bool never = false;
    env.RunUntilFlag(never, options.post_train_sim_seconds);
    // Recovery/resync traffic in this window is neither training nor
    // prediction cost; restart the prediction delta from here.
    after_train = StatsSnapshot::Take(env.net().stats());
  }

  // 4. Evaluate: sample test documents, predict from random online peers.
  if (env.profiler() != nullptr) env.profiler()->SetPhase("predict");
  CostCounts before_predict_cost = CostLedger::Collect();
  const EvaluationSample sample =
      SampleEvaluation(options, test.size(), env.net());
  const std::vector<std::size_t>& test_idx = sample.test_idx;
  result.test_documents = test_idx.size();

  std::vector<std::vector<TagId>> truth(test_idx.size());
  std::vector<std::vector<TagId>> predicted(test_idx.size());
  std::size_t outstanding = test_idx.size();
  bool predict_done = (outstanding == 0);
  std::size_t failed = 0;
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < test_idx.size(); ++i) {
    const MultiLabelExample& ex = test[test_idx[i]];
    truth[i] = ex.tags;
    algo.Predict(sample.requesters[i], ex.x, [&, i](P2PPrediction p) {
      if (!p.success) ++failed;
      if (p.degraded) ++degraded;
      predicted[i] = std::move(p.tags);
      if (--outstanding == 0) predict_done = true;
    });
  }
  result.predict_sim_seconds =
      env.RunUntilFlag(predict_done, options.max_predict_sim_seconds);
  if (!predict_done) {
    return Status::Internal("prediction phase did not quiesce");
  }
  if (result.cost_ledger_enabled) {
    result.predict_cost = CostLedger::Collect() - before_predict_cost;
  }
  StatsSnapshot after_predict = StatsSnapshot::Take(env.net().stats());
  result.predict_messages =
      (after_predict.messages - after_train.messages) -
      (after_predict.maintenance_messages - after_train.maintenance_messages);
  result.predict_bytes = (after_predict.bytes - after_train.bytes) -
                         (after_predict.maintenance_bytes -
                          after_train.maintenance_bytes);
  result.maintenance_messages = after_predict.maintenance_messages;
  result.maintenance_bytes = after_predict.maintenance_bytes;
  result.failed_predictions = failed;
  result.degraded_predictions = degraded;

  const NetworkStats& stats = env.net().stats();
  result.delivery_rate = stats.delivery_rate();
  result.dropped_messages = stats.messages_dropped();
  result.injected_drops = stats.dropped(DropReason::kInjectedFault);
  result.retransmits = stats.retransmits();
  result.acks_received = stats.acks_received();
  result.give_ups = stats.give_ups();
  const ProtocolInternals internals = InternalsOf(algo);
  result.suspected_peers = internals.SuspectedPeers(env.net().num_nodes());
  if (internals.pace != nullptr) {
    result.model_coverage = internals.pace->ModelCoverage();
  }
  const DefenseStats defense = algo.defense_stats();
  result.models_rejected = defense.models_rejected;
  result.votes_discarded = defense.votes_discarded;
  result.quarantined_pairs = defense.quarantined;
  result.trust_observations = defense.trust_observations;
  result.churn_failures = env.churn().num_failures();
  result.churn_rejoins = env.churn().num_rejoins();
  result.warm_rejoins = env.churn().num_warm_rejoins();
  result.cold_rejoins = env.churn().num_cold_rejoins();
  if (recovery != nullptr) {
    const RecoveryStats& rs = recovery->stats();
    result.corrupt_checkpoints = rs.corrupt_checkpoints;
    result.retrain_examples = rs.retrain_examples;
    result.checkpoint_bytes = rs.snapshot_bytes;
    result.mean_rejoin_latency_sec = rs.mean_rejoin_latency_sec();
    result.max_rejoin_latency_sec = rs.max_rejoin_latency_sec;
  }

  result.metrics =
      EvaluateMultiLabel(truth, predicted, corpus.dataset.num_tags());
  result.wall_seconds = wall.ElapsedSeconds();

  // 5. Observability artifacts. Ledger deltas flush into the registry
  // before the snapshot so cost counters ride every export (and the scale
  // determinism fingerprint) for free.
  if (result.cost_ledger_enabled) {
    FlushCostDelta(env.metrics(), result.algorithm, "train",
                   result.train_cost);
    FlushCostDelta(env.metrics(), result.algorithm, "predict",
                   result.predict_cost);
  }
  if (env.metrics() != nullptr) {
    result.observability = env.metrics()->Snapshot();
  }
  if (!options.metrics_path.empty()) {
    if (env.metrics() == nullptr) {
      return Status::InvalidArgument(
          "metrics_path set but env.observe.metrics is off");
    }
    P2PDT_RETURN_IF_ERROR(env.metrics()->WriteJson(options.metrics_path));
  }
  if (!options.trace_path.empty()) {
    if (env.tracer() == nullptr) {
      return Status::InvalidArgument(
          "trace_path set but env.observe.tracing is off");
    }
    P2PDT_RETURN_IF_ERROR(env.tracer()->WriteChromeTrace(options.trace_path));
  }
  if (!options.profile_path.empty()) {
    if (env.profiler() == nullptr) {
      return Status::InvalidArgument(
          "profile_path set but env.observe.profiling is off");
    }
    P2PDT_RETURN_IF_ERROR(
        env.profiler()->WriteCollapsed(options.profile_path));
  }
  if (!options.report_path.empty()) {
    P2PDT_RETURN_IF_ERROR(RunReport::Write(options.report_path, result,
                                           result.observability));
  }
  if (env.metrics() != nullptr || env.tracer() != nullptr) {
    LogStructured(
        LogLevel::kInfo, "observability",
        {{"algorithm", result.algorithm},
         {"metrics",
          std::to_string(env.metrics() ? env.metrics()->num_metrics() : 0)},
         {"spans",
          std::to_string(env.tracer() ? env.tracer()->num_spans() : 0)},
         {"report", options.report_path}});
  }
  return result;
}

std::string SweepPoint::Name() const {
  const ExperimentOptions& o = options;
  std::ostringstream name;
  name << AlgorithmTypeToString(o.algorithm) << " plan=" << plan
       << " loss=" << o.env.physical.loss_rate
       << " reliable=" << o.cempar.reliable_transport
       << " adversary=" << adversary << " fraction=" << malicious_fraction
       << " defended=" << o.cempar.sanitize.enabled
       << " churn=" << ChurnTypeToString(o.env.churn) << " recovery="
       << (!o.recovery.enabled ? "off"
           : o.recovery.warm_rejoin ? "warm"
                                    : "cold");
  return name.str();
}

SweepResult RunSweep(const VectorizedCorpus& corpus,
                     const std::vector<SweepPoint>& points,
                     const std::function<void(const SweepRow&)>& on_point) {
  return RunSweepLoop<SweepPoint, ExperimentResult>(
      points,
      [&corpus](const SweepPoint& point) {
        return RunExperiment(corpus, point.options);
      },
      on_point);
}

std::string ExperimentResult::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "%-12s peers=%-5zu overlay=%-12s churn=%-11s microF1=%.4f "
      "jaccard=%.4f train=%.2fMiB (%.1fKiB/peer) predict=%.2fMiB "
      "failed=%zu/%zu degraded=%zu deliv=%.3f retx=%llu",
      algorithm.c_str(), num_peers, overlay.c_str(), churn.c_str(),
      metrics.micro_f1, metrics.jaccard_accuracy,
      static_cast<double>(train_bytes) / (1024.0 * 1024.0),
      train_bytes_per_peer() / 1024.0,
      static_cast<double>(predict_bytes) / (1024.0 * 1024.0),
      failed_predictions, test_documents, degraded_predictions,
      delivery_rate, static_cast<unsigned long long>(retransmits));
  return buf;
}

}  // namespace p2pdt
