#include "p2pdmt/recovery_experiment.h"

#include <cstring>
#include <utility>

#include "p2pdmt/recovery.h"

namespace p2pdt {

namespace {

/// Everything one pass of the crash-restore experiment produces.
struct PassOutput {
  EvaluationSample sample;
  std::vector<P2PPrediction> predictions;
  std::size_t crashed = 0;
  std::size_t restored = 0;
  std::size_t resnapshot_mismatches = 0;
  uint64_t checkpoint_bytes = 0;
};

/// Runs split → train → (optional crash/checkpoint-restore) → predict with
/// fully deterministic seeding, so two passes differing only in the crash
/// step are comparable prediction-by-prediction.
Result<PassOutput> RunPass(const VectorizedCorpus& corpus,
                           const ExperimentOptions& options,
                           std::size_t num_crashed_peers) {
  PassOutput out;
  Result<StoodUpNetwork> stood_up = StandUpNetwork(corpus, options);
  if (!stood_up.ok()) return stood_up.status();
  const MultiLabelDataset& test = stood_up->test;
  Environment& env = *stood_up->network.env;
  P2PClassifier& algo = *stood_up->network.algo;
  P2PDT_RETURN_IF_ERROR(
      TrainToQuiescence(env, algo, options.max_train_sim_seconds).status());

  if (num_crashed_peers > 0) {
    if (!algo.SupportsDurability()) {
      return Status::FailedPrecondition(algo.name() +
                                        " does not support durable state");
    }
    // Victims spread across the id space (avoids only testing peer 0's
    // special cases, e.g. owning many Chord keys).
    std::size_t n = env.net().num_nodes();
    std::size_t stride = n / num_crashed_peers;
    if (stride == 0) stride = 1;
    std::vector<NodeId> victims;
    for (std::size_t i = 0; i < num_crashed_peers && i * stride < n; ++i) {
      victims.push_back(static_cast<NodeId>(i * stride));
    }
    out.crashed = victims.size();

    // Checkpoint before the crash, evict (what the crash destroys), then
    // restore from the checkpoint — the exact warm-rejoin path.
    std::vector<std::string> blobs(victims.size());
    for (std::size_t i = 0; i < victims.size(); ++i) {
      Result<std::string> blob = algo.Snapshot(victims[i]);
      if (!blob.ok()) return blob.status();
      blobs[i] = std::move(blob).value();
      out.checkpoint_bytes += blobs[i].size();
    }
    for (NodeId v : victims) algo.EvictPeer(v);
    for (std::size_t i = 0; i < victims.size(); ++i) {
      P2PDT_RETURN_IF_ERROR(algo.Restore(victims[i], blobs[i]));
      ++out.restored;
      // Byte-exact round trip: re-snapshotting a restored peer must
      // reproduce the pre-crash blob.
      Result<std::string> again = algo.Snapshot(victims[i]);
      if (!again.ok() || *again != blobs[i]) ++out.resnapshot_mismatches;
    }
    // One anti-entropy round, as a real rejoin would run.
    std::size_t outstanding = victims.size();
    bool resynced = (outstanding == 0);
    for (NodeId v : victims) {
      algo.ResyncPeer(v, [&] {
        if (--outstanding == 0) resynced = true;
      });
    }
    env.RunUntilFlag(resynced, options.max_train_sim_seconds);
    if (!resynced) return Status::Internal("resync did not quiesce");
  }

  // Identical prediction workload to RunExperiment's evaluation loop.
  out.sample = SampleEvaluation(options, test.size(), env.net());
  const std::vector<std::size_t>& test_idx = out.sample.test_idx;
  out.predictions.resize(test_idx.size());
  std::size_t outstanding = test_idx.size();
  bool predict_done = (outstanding == 0);
  for (std::size_t i = 0; i < test_idx.size(); ++i) {
    const MultiLabelExample& ex = test[test_idx[i]];
    algo.Predict(out.sample.requesters[i], ex.x, [&, i](P2PPrediction p) {
      out.predictions[i] = std::move(p);
      if (--outstanding == 0) predict_done = true;
    });
  }
  env.RunUntilFlag(predict_done, options.max_predict_sim_seconds);
  if (!predict_done) return Status::Internal("prediction did not quiesce");
  return out;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

Result<CrashRestoreReport> RunCrashRestoreExperiment(
    const VectorizedCorpus& corpus, const ExperimentOptions& base,
    std::size_t num_crashed_peers) {
  ExperimentOptions options = base;
  options.env.churn = ChurnType::kNone;  // isolate the restore path
  options.recovery.enabled = false;      // this harness drives recovery itself

  Result<PassOutput> baseline = RunPass(corpus, options, 0);
  if (!baseline.ok()) return baseline.status();
  Result<PassOutput> recovered = RunPass(corpus, options, num_crashed_peers);
  if (!recovered.ok()) return recovered.status();

  CrashRestoreReport report;
  report.algorithm = AlgorithmTypeToString(options.algorithm);
  report.crashed_peers = recovered->crashed;
  report.restored_peers = recovered->restored;
  report.resnapshot_mismatches = recovered->resnapshot_mismatches;
  report.checkpoint_bytes = recovered->checkpoint_bytes;
  report.predictions = baseline->predictions.size();
  report.requesters = baseline->sample.requesters;
  if (baseline->sample != recovered->sample) {
    return Status::Internal("evaluation samples diverged between passes");
  }
  for (std::size_t i = 0; i < baseline->predictions.size(); ++i) {
    const P2PPrediction& a = baseline->predictions[i];
    const P2PPrediction& b = recovered->predictions[i];
    if (a.tags != b.tags) ++report.mismatched_tags;
    if (!SameBits(a.scores, b.scores)) ++report.mismatched_scores;
  }
  return report;
}

std::vector<SweepPoint> WarmColdGrid(const ExperimentOptions& base) {
  // Post-training churn exposure before evaluation (simulated seconds).
  constexpr double kExposureSimSeconds = 600.0;
  std::vector<SweepPoint> points;
  for (AlgorithmType algo : kSweepAlgorithms) {
    for (ChurnType churn :
         {ChurnType::kNone, ChurnType::kExponential, ChurnType::kPareto}) {
      for (bool warm : {true, false}) {
        SweepPoint point{base};
        ExperimentOptions& opt = point.options;
        opt.algorithm = algo;
        opt.env.churn = churn;
        opt.recovery.enabled = true;
        opt.recovery.warm_rejoin = warm;
        opt.post_train_sim_seconds = kExposureSimSeconds;
        points.push_back(std::move(point));
      }
    }
  }
  return points;
}

CsvWriter ChurnCsv(const std::vector<SweepRow>& rows) {
  CsvWriter csv({"algorithm", "churn", "rejoin_mode", "micro_f1", "macro_f1",
                 "failed", "attempted", "failures", "rejoins", "warm_rejoins",
                 "cold_rejoins", "corrupt_checkpoints", "retrain_examples",
                 "checkpoint_bytes", "mean_rejoin_latency_sec",
                 "max_rejoin_latency_sec"});
  for (const auto& [point, r] : rows) {
    csv.AddRow({r.algorithm, r.churn,
                point.options.recovery.warm_rejoin ? "warm" : "cold",
                CsvNumber(r.metrics.micro_f1), CsvNumber(r.metrics.macro_f1),
                std::to_string(r.failed_predictions),
                std::to_string(r.test_documents),
                std::to_string(r.churn_failures),
                std::to_string(r.churn_rejoins),
                std::to_string(r.warm_rejoins),
                std::to_string(r.cold_rejoins),
                std::to_string(r.corrupt_checkpoints),
                std::to_string(r.retrain_examples),
                std::to_string(r.checkpoint_bytes),
                CsvNumber(r.mean_rejoin_latency_sec),
                CsvNumber(r.max_rejoin_latency_sec)});
  }
  return csv;
}

}  // namespace p2pdt
