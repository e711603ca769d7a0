#include "p2pdmt/drift.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "common/fnv.h"

namespace p2pdt {

const char* RetrainPolicyToString(RetrainPolicy p) {
  switch (p) {
    case RetrainPolicy::kFrozen:
      return "frozen";
    case RetrainPolicy::kPeriodic:
      return "periodic";
    case RetrainPolicy::kStalenessTriggered:
      return "staleness";
    case RetrainPolicy::kDriftTriggered:
      return "drift";
  }
  return "unknown";
}

namespace {

/// The correctness grade the staleness tracker is fed: Jaccard overlap of
/// the auto-tags with the user's tags (both empty = perfect match). A
/// continuous grade, deliberately — per-observation variance is what
/// limits per-peer drift detection at a handful of documents per epoch.
/// Inputs are sorted, per dataset / prediction invariants.
double TagJaccard(const std::vector<TagId>& truth,
                  const std::vector<TagId>& predicted) {
  if (truth.empty() && predicted.empty()) return 1.0;
  std::size_t inter = 0, i = 0, j = 0;
  while (i < truth.size() && j < predicted.size()) {
    if (truth[i] == predicted[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (truth[i] < predicted[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const std::size_t uni = truth.size() + predicted.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

/// Confidence signal from a prediction: logistic squash of the best raw
/// score. Uncalibrated but monotone — exactly what the tracker's fast/slow
/// EWMA gap needs. NaN (missing) when the prediction failed or carried no
/// scores.
double PredictionConfidence(const P2PPrediction& p) {
  if (!p.success || p.scores.empty()) {
    return std::nan("");
  }
  const double best = *std::max_element(p.scores.begin(), p.scores.end());
  if (!std::isfinite(best)) return std::nan("");
  return 1.0 / (1.0 + std::exp(-best));
}

}  // namespace

Result<DriftExperimentResult> RunDriftExperiment(
    const VectorizedStream& stream, const DriftExperimentOptions& options) {
  const std::size_t num_peers = stream.corpus.num_users;
  const TagId num_tags = stream.corpus.dataset.num_tags();
  if (num_peers == 0 || stream.num_epochs < 2) {
    return Status::InvalidArgument(
        "drift harness needs >= 1 user and >= 2 epochs (epoch 0 is the "
        "initial training set)");
  }
  if (options.window_documents == 0) {
    return Status::InvalidArgument("window_documents must be positive");
  }
  P2PDT_RETURN_IF_ERROR(RejectUnusedOptions(options.experiment, "drift",
                                            /*splits_corpus=*/false));

  DriftExperimentResult result;
  result.algorithm = AlgorithmTypeToString(options.experiment.algorithm);
  result.policy = RetrainPolicyToString(options.policy);
  result.num_peers = num_peers;
  result.num_epochs = stream.num_epochs;
  result.first_drift_epoch = stream.first_drift_epoch;

  // Epoch-major document index (stream order is already epoch-major, but
  // don't depend on it).
  std::vector<std::vector<uint32_t>> epoch_docs(stream.num_epochs);
  for (std::size_t i = 0; i < stream.doc_epoch.size(); ++i) {
    epoch_docs[stream.doc_epoch[i]].push_back(static_cast<uint32_t>(i));
  }

  // One immutable copy of the full stream backs every window shard.
  auto shared =
      std::make_shared<const MultiLabelDataset>(stream.corpus.dataset);

  // Per-peer sliding windows, seeded from epoch 0.
  std::vector<std::vector<uint32_t>> window(num_peers);
  auto append_doc = [&](std::size_t peer, uint32_t doc) {
    window[peer].push_back(doc);
    if (window[peer].size() > options.window_documents) {
      window[peer].erase(window[peer].begin());
    }
  };
  for (uint32_t doc : epoch_docs[0]) {
    append_doc(stream.corpus.doc_user[doc], doc);
  }

  // Environment + classifier. Each simulated user is one peer.
  ExperimentOptions experiment = options.experiment;
  experiment.env.num_peers = num_peers;
  std::vector<DatasetShard> shards;
  shards.reserve(num_peers);
  for (std::size_t p = 0; p < num_peers; ++p) {
    shards.emplace_back(shared, window[p]);
  }
  Result<ClassifierNetwork> network =
      SetUpNetwork(experiment, std::move(shards), num_tags);
  if (!network.ok()) return network.status();
  Environment& env = *network->env;
  P2PClassifier& algo = *network->algo;
  if (options.policy != RetrainPolicy::kFrozen &&
      !algo.SupportsOnlineRefresh()) {
    return Status::FailedPrecondition(algo.name() +
                                      " does not support online refresh");
  }
  Result<double> train_sim_seconds =
      TrainToQuiescence(env, algo, experiment.max_train_sim_seconds);
  if (!train_sim_seconds.ok()) return train_sim_seconds.status();
  result.train_sim_seconds = train_sim_seconds.value();

  // Staleness tracking + observability surface.
  std::vector<ModelStalenessTracker> trackers(
      num_peers, ModelStalenessTracker(options.staleness));
  std::vector<uint8_t> was_drifting(num_peers, 0);
  Gauge* staleness_gauge = nullptr;
  Counter* drift_counter = nullptr;
  if (env.metrics() != nullptr) {
    staleness_gauge = &env.metrics()->GetGauge(
        "model_staleness", {{"classifier", algo.name()}});
    drift_counter = &env.metrics()->GetCounter(
        "drift_detected", {{"classifier", algo.name()}});
  }

  Fnv64 digest;
  uint64_t last_messages = env.net().stats().messages_sent();
  uint64_t last_bytes = env.net().stats().bytes_sent();

  for (std::size_t e = 1; e < stream.num_epochs; ++e) {
    const std::vector<uint32_t>& docs = epoch_docs[e];
    DriftEpochStats stats;
    stats.epoch = e;
    stats.documents = docs.size();

    // Auto-tag every arriving document from its owner peer — the paper's
    // SuggestTag loop, driven through the live protocol.
    std::vector<std::vector<TagId>> truth(docs.size());
    std::vector<std::vector<TagId>> predicted(docs.size());
    std::vector<double> confidence(docs.size(), std::nan(""));
    std::vector<uint8_t> answered(docs.size(), 0);
    std::size_t outstanding = docs.size();
    bool predict_done = (outstanding == 0);
    for (std::size_t i = 0; i < docs.size(); ++i) {
      const MultiLabelExample& ex = stream.corpus.dataset[docs[i]];
      truth[i] = ex.tags;
      const NodeId requester = stream.corpus.doc_user[docs[i]];
      algo.Predict(requester, ex.x, [&, i](P2PPrediction p) {
        answered[i] = p.success ? 1 : 0;
        confidence[i] = PredictionConfidence(p);
        predicted[i] = std::move(p.tags);
        if (--outstanding == 0) predict_done = true;
      });
    }
    env.RunUntilFlag(predict_done, options.max_epoch_sim_seconds);
    if (!predict_done) {
      return Status::Internal("drift harness: epoch " + std::to_string(e) +
                              " predictions did not quiesce");
    }

    // Feed the trackers and slide the windows — strictly after the whole
    // epoch predicted, so arrival order inside an epoch cannot influence
    // what the epoch's own predictions saw.
    for (std::size_t i = 0; i < docs.size(); ++i) {
      const std::size_t peer = stream.corpus.doc_user[docs[i]];
      trackers[peer].RecordDocument();
      // An outright prediction failure grades the *network*, not the
      // model (lost requests already surface as give-ups / suspicion);
      // feeding it as a zero would let packet loss impersonate drift.
      if (answered[i]) {
        trackers[peer].RecordHoldout(TagJaccard(truth[i], predicted[i]),
                                     confidence[i]);
      }
      append_doc(peer, docs[i]);
    }
    double staleness_sum = 0.0;
    for (std::size_t p = 0; p < num_peers; ++p) {
      staleness_sum += trackers[p].staleness();
      const bool drifting = trackers[p].DriftDetected();
      if (drifting && !was_drifting[p]) {
        ++stats.drift_detections;
        if (drift_counter != nullptr) drift_counter->Increment();
      }
      was_drifting[p] = drifting ? 1 : 0;
    }
    stats.mean_staleness = staleness_sum / static_cast<double>(num_peers);
    if (std::getenv("P2PDT_DRIFT_DEBUG") != nullptr) {
      double gsum = 0, gmax = 0, wsum = 0, ssum = 0;
      for (std::size_t p = 0; p < num_peers; ++p) {
        const double g = trackers[p].drift_score();
        gsum += g;
        gmax = std::max(gmax, g);
        wsum += trackers[p].window_accuracy();
        ssum += trackers[p].slow_accuracy();
      }
      std::fprintf(stderr,
                   "[drift-dbg] epoch=%zu gap=%.3f gmax=%.3f win=%.3f "
                   "slow=%.3f stale=%.3f\n",
                   e, gsum / num_peers, gmax, wsum / num_peers,
                   ssum / num_peers, stats.mean_staleness);
    }
    if (staleness_gauge != nullptr) staleness_gauge->Set(stats.mean_staleness);
    result.drift_detections += stats.drift_detections;

    // Retrain per policy: swap the peer's window in, refresh (retrain +
    // version-stamped republish through the protocol's own dissemination
    // and reliability paths), and restart its staleness clock.
    std::vector<std::size_t> retrain;
    switch (options.policy) {
      case RetrainPolicy::kFrozen:
        break;
      case RetrainPolicy::kPeriodic:
        if (options.periodic_interval_epochs > 0 &&
            e % options.periodic_interval_epochs == 0) {
          for (std::size_t p = 0; p < num_peers; ++p) {
            if (!window[p].empty()) retrain.push_back(p);
          }
        }
        break;
      case RetrainPolicy::kStalenessTriggered:
        for (std::size_t p = 0; p < num_peers; ++p) {
          if (!window[p].empty() &&
              trackers[p].staleness() >= options.staleness_trigger) {
            retrain.push_back(p);
          }
        }
        break;
      case RetrainPolicy::kDriftTriggered:
        for (std::size_t p = 0; p < num_peers; ++p) {
          if (!window[p].empty() && trackers[p].DriftDetected()) {
            retrain.push_back(p);
          }
        }
        break;
    }
    std::size_t refreshed = 0;
    bool refresh_done = true;
    for (std::size_t p : retrain) {
      Status s = algo.ReplacePeerData(p, DatasetShard(shared, window[p]));
      if (!s.ok()) return s;
      ++refreshed;
      refresh_done = false;
    }
    if (!refresh_done) {
      std::size_t pending = refreshed;
      for (std::size_t p : retrain) {
        algo.RefreshPeer(p, [&] {
          if (--pending == 0) refresh_done = true;
        });
        trackers[p].RecordTrained();
        was_drifting[p] = 0;
      }
      env.RunUntilFlag(refresh_done, options.max_epoch_sim_seconds);
      if (!refresh_done) {
        return Status::Internal("drift harness: epoch " + std::to_string(e) +
                                " refresh did not quiesce");
      }
    }
    stats.retrained_peers = refreshed;
    result.retrains += refreshed;

    MultiLabelMetrics quality = EvaluateMultiLabel(truth, predicted, num_tags);
    stats.macro_f1 = quality.macro_f1;
    stats.micro_f1 = quality.micro_f1;

    const uint64_t messages_now = env.net().stats().messages_sent();
    const uint64_t bytes_now = env.net().stats().bytes_sent();
    stats.messages = messages_now - last_messages;
    stats.bytes = bytes_now - last_bytes;
    last_messages = messages_now;
    last_bytes = bytes_now;

    digest.MixDouble(stats.macro_f1);
    digest.Mix(stats.documents);
    digest.Mix(stats.retrained_peers);
    digest.Mix(stats.messages);
    digest.Mix(stats.bytes);
    result.epochs.push_back(stats);
  }

  // Summary: dip depth and time-to-reconverge against the pre-drift level.
  const bool stationary = stream.first_drift_epoch >= stream.num_epochs;
  double pre = result.epochs.front().macro_f1;
  for (const DriftEpochStats& s : result.epochs) {
    if (s.epoch < stream.first_drift_epoch) pre = s.macro_f1;
  }
  result.pre_drift_f1 = pre;
  result.final_f1 = result.epochs.back().macro_f1;
  double min_post = result.final_f1;
  for (const DriftEpochStats& s : result.epochs) {
    if (stationary || s.epoch >= stream.first_drift_epoch) {
      min_post = std::min(min_post, s.macro_f1);
    }
  }
  result.min_post_drift_f1 = min_post;
  result.max_dip = std::max(0.0, pre - min_post);
  result.recovery_epochs = 0;
  result.reconverged = true;
  if (!stationary) {
    bool dipped = false;
    bool recovered = false;
    for (const DriftEpochStats& s : result.epochs) {
      if (s.epoch < stream.first_drift_epoch) continue;
      if (s.macro_f1 < pre - options.recovery_margin) {
        dipped = true;
      } else if (dipped && !recovered) {
        recovered = true;
        result.recovery_epochs = s.epoch - stream.first_drift_epoch;
      }
    }
    if (dipped && !recovered) {
      result.reconverged = false;
      result.recovery_epochs = stream.num_epochs;
    }
  }

  const NetworkStats& net_stats = env.net().stats();
  result.give_ups = net_stats.give_ups();
  result.total_messages = net_stats.messages_sent();
  result.total_bytes = net_stats.bytes_sent();
  result.suspected_peers =
      InternalsOf(algo).SuspectedPeers(env.net().num_nodes());
  digest.Mix(result.retrains);
  digest.Mix(result.total_messages);
  digest.Mix(result.total_bytes);
  result.fingerprint = digest.state;
  return result;
}

Result<std::vector<DriftEvent>> ScenarioEvents(const std::string& scenario,
                                               const StreamOptions& stream) {
  std::vector<DriftEvent> events;
  const std::size_t mid = stream.num_epochs / 2;
  if (scenario == "none") {
    return events;
  }
  if (scenario == "sudden_vocab") {
    DriftEvent ev;
    ev.kind = DriftKind::kVocabularyShift;
    ev.epoch = mid;
    ev.tag = DriftEvent::kAllTags;
    ev.magnitude = 1.0;
    events.push_back(ev);
    return events;
  }
  if (scenario == "gradual_rotation") {
    const std::size_t tags = std::min<std::size_t>(3, stream.base.num_tags);
    for (std::size_t t = 0; t < tags; ++t) {
      DriftEvent ev;
      ev.kind = DriftKind::kTopicRotation;
      ev.epoch = mid;
      ev.duration_epochs =
          std::min<std::size_t>(3, stream.num_epochs - mid);
      ev.magnitude = 0.6;
      ev.tag = t;
      events.push_back(ev);
    }
    return events;
  }
  if (scenario == "popularity_spike") {
    DriftEvent ev;
    ev.kind = DriftKind::kPopularitySpike;
    ev.epoch = mid;
    ev.duration_epochs = std::min<std::size_t>(2, stream.num_epochs - mid);
    ev.magnitude = 4.0;
    ev.tag = 0;
    events.push_back(ev);
    return events;
  }
  if (scenario == "new_tag") {
    if (stream.reserve_tags == 0) {
      return Status::InvalidArgument(
          "scenario new_tag needs reserve_tags >= 1");
    }
    DriftEvent ev;
    ev.kind = DriftKind::kNewTag;
    ev.epoch = mid;
    ev.magnitude = 1.5;
    ev.tag = stream.base.num_tags;  // first reserved tag
    events.push_back(ev);
    return events;
  }
  return Status::InvalidArgument("unknown drift scenario: " + scenario);
}

std::string DriftPoint::Name() const {
  const EnvironmentOptions& env = options.experiment.env;
  std::ostringstream name;
  name << AlgorithmTypeToString(options.experiment.algorithm)
       << " scenario=" << scenario
       << " policy=" << RetrainPolicyToString(options.policy)
       << " loss=" << env.physical.loss_rate
       << " churn=" << ChurnTypeToString(env.churn);
  return name.str();
}

std::vector<DriftPoint> DriftGrid(const DriftExperimentOptions& base,
                                  const std::vector<AlgorithmType>& algorithms,
                                  const std::vector<std::string>& scenarios,
                                  const std::vector<RetrainPolicy>& policies,
                                  const std::vector<double>& loss_rates,
                                  bool churn_arm) {
  const double max_loss =
      loss_rates.empty()
          ? 0.0
          : *std::max_element(loss_rates.begin(), loss_rates.end());
  std::vector<DriftPoint> points;
  auto add = [&](const std::string& scenario, AlgorithmType algo,
                 RetrainPolicy policy, double loss_rate, ChurnType churn) {
    DriftPoint point{base, scenario};
    point.options.experiment.algorithm = algo;
    point.options.experiment.env.physical.loss_rate = loss_rate;
    point.options.experiment.env.churn = churn;
    point.options.policy = policy;
    points.push_back(std::move(point));
  };
  for (const std::string& scenario : scenarios) {
    for (AlgorithmType algo : algorithms) {
      for (double loss : loss_rates) {
        for (RetrainPolicy policy : policies) {
          add(scenario, algo, policy, loss, ChurnType::kNone);
        }
      }
      if (churn_arm && scenario == "sudden_vocab") {
        for (RetrainPolicy policy : policies) {
          add(scenario, algo, policy, max_loss, ChurnType::kExponential);
        }
      }
    }
  }
  return points;
}

Result<DriftSweep> RunDriftSweep(
    const StreamOptions& stream, const std::vector<DriftPoint>& points,
    const std::function<void(const DriftRow&)>& on_point) {
  StreamOptions stream_options = stream;
  if (stream_options.reserve_tags == 0) stream_options.reserve_tags = 1;
  std::map<std::string, VectorizedStream> streams;
  for (const DriftPoint& point : points) {
    if (streams.count(point.scenario) != 0) continue;
    Result<std::vector<DriftEvent>> events =
        ScenarioEvents(point.scenario, stream_options);
    if (!events.ok()) return events.status();
    StreamOptions st = stream_options;
    st.events = std::move(events).value();
    Result<VectorizedStream> generated = MakeVectorizedStream(st);
    if (!generated.ok()) return generated.status();
    streams.emplace(point.scenario, std::move(generated).value());
  }
  return RunSweepLoop<DriftPoint, DriftExperimentResult>(
      points,
      [&streams](const DriftPoint& point) {
        return RunDriftExperiment(streams.at(point.scenario), point.options);
      },
      on_point);
}

CsvWriter DriftCsv(const std::vector<DriftRow>& rows) {
  CsvWriter csv({"algorithm", "scenario", "policy", "loss_rate", "churn",
                 "num_epochs", "first_drift_epoch", "pre_drift_f1",
                 "min_post_drift_f1", "final_f1", "max_dip", "recovery_epochs",
                 "reconverged", "retrains", "drift_detections", "give_ups",
                 "suspected_peers", "total_messages", "total_bytes",
                 "fingerprint"});
  for (const auto& [point, r] : rows) {
    const EnvironmentOptions& env = point.options.experiment.env;
    csv.AddRow({r.algorithm, point.scenario, r.policy,
                CsvNumber(env.physical.loss_rate),
                env.churn != ChurnType::kNone ? "1" : "0",
                std::to_string(r.num_epochs),
                std::to_string(r.first_drift_epoch),
                CsvNumber(r.pre_drift_f1), CsvNumber(r.min_post_drift_f1),
                CsvNumber(r.final_f1), CsvNumber(r.max_dip),
                std::to_string(r.recovery_epochs), r.reconverged ? "1" : "0",
                std::to_string(r.retrains), std::to_string(r.drift_detections),
                std::to_string(r.give_ups), std::to_string(r.suspected_peers),
                std::to_string(r.total_messages),
                std::to_string(r.total_bytes), CsvHex(r.fingerprint)});
  }
  return csv;
}

}  // namespace p2pdt
