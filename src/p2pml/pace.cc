#include "p2pml/pace.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/profile.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/serialization.h"
#include "p2psim/sharding.h"

namespace p2pdt {

namespace {

/// Version byte of the PACE peer-snapshot layout (the checkpoint envelope
/// already guards integrity; this guards format evolution).
constexpr uint8_t kPaceSnapshotVersion = 1;
}  // namespace

Pace::Pace(Simulator& sim, PhysicalNetwork& net, Overlay& overlay,
           PaceOptions options)
    : sim_(sim), net_(net), overlay_(overlay), options_(options) {
  if (options_.reliable_dissemination) {
    transport_ =
        std::make_unique<ReliableTransport>(sim_, net_, options_.transport);
  }
  if (options_.serve.enabled) {
    serve_ = std::make_unique<ServeQueueSet>(options_.serve);
  }
  if (options_.predict_cache.enabled) {
    cache_ = std::make_unique<PredictCacheSet>(options_.predict_cache);
  }
}

Status Pace::SetupShards(std::vector<DatasetShard> peer_data, TagId num_tags) {
  if (peer_data.size() != net_.num_nodes()) {
    return Status::InvalidArgument(
        "peer_data size must equal the number of underlay nodes");
  }
  peer_data_ = std::move(peer_data);
  num_tags_ = num_tags;
  models_.assign(peer_data_.size(), {});
  contributors_.clear();
  contributor_rank_.assign(peer_data_.size(), kNoRank);
  for (NodeId p = 0; p < peer_data_.size(); ++p) {
    if (peer_data_[p].empty()) continue;
    contributor_rank_[p] = static_cast<uint32_t>(contributors_.size());
    contributors_.push_back(p);
  }
  received_.assign(peer_data_.size(),
                   std::vector<bool>(contributors_.size(), false));
  received_version_.assign(peer_data_.size(), {});
  index_ = std::make_unique<CosineLsh>(options_.lsh);
  index_items_.clear();
  trained_ = false;
  bundle_verdict_.assign(peer_data_.size(), -1);
  predict_count_.assign(peer_data_.size(), 0);
  models_rejected_ = 0;
  votes_discarded_ = 0;
  reputation_.reset();
  if (options_.reputation.enabled) {
    reputation_ = std::make_unique<ReputationManager>(options_.reputation,
                                                      net_.metrics(), "pace");
    reputation_->Reset(peer_data_.size());
    // Holdouts are subsamples of (not carve-outs from) the local data, so
    // trained models are unchanged by enabling reputation.
    for (NodeId p = 0; p < peer_data_.size(); ++p) {
      reputation_->SetHoldout(p, peer_data_[p]);
    }
  }
  return Status::OK();
}

void Pace::TrainLocal(NodeId peer) {
  const DatasetShard& data = peer_data_[peer];
  PeerModel& pm = models_[peer];
  bundle_verdict_[peer] = -1;  // any cached sanitation verdict is stale now

  // Scripted adversary check: a pure read of the installed directory (none
  // installed = every peer honest at zero cost). Runs on pool workers while
  // the driver blocks in ParallelFor, so reading sim_.Now() is safe.
  const AdversaryDirectory* adversaries = net_.adversaries();
  const AdversaryBehavior behavior =
      adversaries == nullptr ? AdversaryBehavior::kHonest
                             : adversaries->BehaviorAt(peer, sim_.Now());

  if (behavior == AdversaryBehavior::kGarbageModel) {
    // No training at all: publish NaN/inf/absurd weight vectors with a
    // perfect self-reported accuracy, the classic poisoned-upload shape.
    // Corruption bytes come from a local Rng (per-node derived seed), so
    // the shared fault stream is untouched.
    Rng crng(adversaries->CorruptionSeed(peer));
    OneVsAllModel garbage;
    for (TagId t = 0; t < num_tags_; ++t) {
      std::vector<SparseVector::Entry> entries;
      for (int i = 0; i < 8; ++i) {
        double v = i % 3 == 0   ? std::numeric_limits<double>::quiet_NaN()
                   : i % 3 == 1 ? std::numeric_limits<double>::infinity()
                                : 1.0e30;
        entries.emplace_back(static_cast<uint32_t>(crng.NextU64(4096)), v);
      }
      garbage.SetModel(t, std::make_unique<LinearSvmModel>(
                              SparseVector::FromPairs(std::move(entries)),
                              std::numeric_limits<double>::quiet_NaN()));
    }
    pm.model = std::move(garbage);
    pm.tag_accuracy.assign(num_tags_, 1.0);
    pm.tag_informed.assign(num_tags_, true);
    // Centroids stay finite (huge, not NaN) so index insertion is
    // well-defined; the poison is in the weights.
    pm.centroids.clear();
    for (int c = 0; c < 2; ++c) {
      pm.centroids.push_back(SparseVector::FromPairs(
          {{static_cast<uint32_t>(crng.NextU64(4096)), 1.0e30},
           {static_cast<uint32_t>(crng.NextU64(4096)), -1.0e30}}));
    }
    pm.wire_size = pm.model.WireSize() + 8 * num_tags_;
    for (const auto& c : pm.centroids) pm.wire_size += c.WireSize();
    pm.valid = true;
    return;
  }

  const bool flip = behavior == AdversaryBehavior::kLabelFlip;

  if (behavior == AdversaryBehavior::kVoteSpam) {
    // A "model" whose every decision is a huge positive constant: it claims
    // every tag for every document, loudly enough to drown honest votes in
    // the weighted mean. Magnitude-bound sanitation is the counter.
    OneVsAllModel spam;
    for (TagId t = 0; t < num_tags_; ++t) {
      spam.SetModel(t, std::make_unique<LinearSvmModel>(SparseVector(), 1e9));
    }
    pm.model = std::move(spam);
    pm.tag_accuracy.assign(num_tags_, 1.0);
    pm.tag_informed.assign(num_tags_, true);
  } else {
    // Per-(peer, tag) RNG streams: every binary subproblem draws its
    // coordinate permutations from a seed derived from data identity, so the
    // trained model is the same no matter which thread (or how many) ran it.
    IndexedBinaryTrainer trainer =
        [this, peer, flip](const std::vector<Example>& examples, TagId tag)
        -> Result<std::unique_ptr<BinaryClassifier>> {
      LinearSvmOptions svm_opts = options_.svm;
      svm_opts.seed = DeriveSeed(options_.svm.seed, peer, tag);
      std::vector<Example> flipped;
      if (flip) {
        // Label-flip adversary: the model is genuinely trained — just on
        // negated labels, which makes it anti-correlated with the truth.
        flipped = examples;
        for (Example& ex : flipped) ex.y = -ex.y;
      }
      Result<LinearSvmModel> model =
          TrainLinearSvm(flip ? flipped : examples, svm_opts);
      if (!model.ok()) return model.status();
      return std::unique_ptr<BinaryClassifier>(
          std::make_unique<LinearSvmModel>(std::move(model).value()));
    };

    // Pad to the global tag universe so every peer's model is addressable by
    // any tag id. Copying the shard copies only its index vector, never the
    // documents.
    DatasetShard padded = data;
    padded.set_num_tags(num_tags_);
    OneVsAllTrainOptions ova;
    ova.num_threads = options_.num_threads;
    Result<OneVsAllModel> model = TrainOneVsAll(padded, trainer, ova);
    if (!model.ok()) {
      P2PDT_LOG(Warning) << "peer " << peer
                         << " PACE local training failed: "
                         << model.status().ToString();
      return;
    }
    pm.model = std::move(model).value();

    // Per-tag training accuracy: the vote weight the ensemble uses. The
    // flip adversary measures against its own flipped truth, so it reports
    // a high, plausible-looking accuracy.
    pm.tag_accuracy.assign(num_tags_, 0.0);
    pm.tag_informed.assign(num_tags_, false);
    std::vector<std::size_t> counts = padded.TagCounts();
    for (TagId t = 0; t < num_tags_; ++t) {
      pm.tag_informed[t] = t < counts.size() && counts[t] > 0;
      std::size_t correct = 0;
      for (std::size_t i = 0; i < data.size(); ++i) {
        const MultiLabelExample& ex = data[i];
        const BinaryClassifier* m = pm.model.model(t);
        if (m == nullptr) continue;
        bool predicted = m->Decision(ex.x) > 0.0;
        bool truth = ex.HasTag(t);
        if (flip) truth = !truth;
        if (predicted == truth) ++correct;
      }
      pm.tag_accuracy[t] = data.empty()
                               ? 0.0
                               : static_cast<double>(correct) /
                                     static_cast<double>(data.size());
    }
    if (behavior == AdversaryBehavior::kAccuracyInflate) {
      // Honest model, dishonest résumé: perfect accuracy on every tag,
      // competence claimed even on tags the peer has never seen.
      pm.tag_accuracy.assign(num_tags_, 1.0);
      pm.tag_informed.assign(num_tags_, true);
    }
  }

  // Cluster local data; centroids describe where this model is competent.
  std::vector<SparseVector> points;
  points.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) points.push_back(data[i].x);
  KMeansOptions km = options_.clustering;
  km.seed = DeriveSeed(options_.clustering.seed, peer);
  km.num_threads = options_.num_threads;
  Result<KMeansResult> clusters = KMeansCluster(points, km);
  if (!clusters.ok()) {
    P2PDT_LOG(Warning) << "peer " << peer << " PACE clustering failed: "
                       << clusters.status().ToString();
    return;
  }
  pm.centroids = std::move(clusters.value().centroids);

  if (behavior == AdversaryBehavior::kDimensionMismatch) {
    // Truncated upload: per-tag vectors shorter than the corpus tag count,
    // plus a centroid with a feature id far outside the lexicon.
    TagId half = num_tags_ > 1 ? num_tags_ / 2 : 1;
    OneVsAllModel truncated;
    for (TagId t = 0; t < half; ++t) {
      const BinaryClassifier* m = pm.model.model(t);
      truncated.SetModel(t, m != nullptr ? m->Clone() : nullptr);
    }
    pm.model = std::move(truncated);
    pm.tag_accuracy.resize(half);
    pm.tag_informed.resize(half);
    pm.centroids.push_back(SparseVector::FromPairs({{1u << 30, 1.0}}));
  }

  pm.wire_size = pm.model.WireSize() + 8 * num_tags_;
  for (const auto& c : pm.centroids) pm.wire_size += c.WireSize();
  pm.valid = true;
}

ModelRejectReason Pace::BundleVerdict(NodeId contributor) {
  int8_t memo = bundle_verdict_[contributor];
  if (memo >= 0) return static_cast<ModelRejectReason>(memo);
  const PeerModel& pm = models_[contributor];
  ModelRejectReason r = SanitizeOneVsAll(pm.model, num_tags_, options_.sanitize);
  if (r == ModelRejectReason::kNone) {
    r = SanitizeCentroids(pm.centroids, options_.sanitize);
  }
  if (r == ModelRejectReason::kNone &&
      (pm.tag_accuracy.size() != num_tags_ ||
       pm.tag_informed.size() != num_tags_)) {
    r = ModelRejectReason::kTagMismatch;
  }
  bundle_verdict_[contributor] = static_cast<int8_t>(r);
  return r;
}

void Pace::RecordRejected(ModelRejectReason reason) {
  ++models_rejected_;
  if (MetricsRegistry* metrics = net_.metrics()) {
    metrics
        ->GetCounter("models_rejected",
                     {{"classifier", "pace"},
                      {"reason", ModelRejectReasonToString(reason)}})
        .Increment();
  }
}

void Pace::AcceptBundle(NodeId receiver, NodeId contributor) {
  if (receiver >= received_.size() || contributor >= models_.size()) return;
  const uint32_t rank = contributor_rank_[contributor];
  if (rank == kNoRank) return;  // no data at setup => nothing to publish
  PeerModel& pm = models_[contributor];
  if (!pm.valid) return;
  // Unconditional trust-hole fix: self-reported accuracy is clamped to
  // [0, 1] (NaN -> 0) the moment a bundle arrives, reputation or not.
  // Identity for honest values, idempotent across repeat deliveries.
  for (double& a : pm.tag_accuracy) a = ClampAccuracy(a);
  if (options_.sanitize.enabled) {
    ModelRejectReason reason = BundleVerdict(contributor);
    if (reason != ModelRejectReason::kNone) {
      RecordRejected(reason);
      return;  // refused: the bundle never becomes visible to this receiver
    }
  }
  if (reputation_ != nullptr && receiver != contributor) {
    double score =
        reputation_->ScoreOneVsAll(receiver, pm.model, &pm.tag_informed);
    if (score >= 0.0) reputation_->Observe(receiver, contributor, score);
    if (reputation_->IsQuarantined(receiver, contributor)) {
      RecordRejected(ModelRejectReason::kDistrusted);
      return;
    }
  }
  received_[receiver][rank] = true;
  // Monotonic version stamp: a late delivery of a superseded bundle can
  // never downgrade a receiver that already ingested the fresh one.
  if (pm.version > HeldVersion(receiver, rank)) {
    SetHeldVersion(receiver, rank, pm.version);
  }
  // The receiver's visible ensemble changed: cached predictions computed
  // without this bundle are now stale.
  BumpPublishEpoch();
}

void Pace::ProbeQuarantined(NodeId requester) {
  // Re-score only quarantined contributors: re-admits any that retrained
  // honestly (trust climbs past readmit_threshold) and keeps decaying ones
  // out. Honest runs have no quarantined pairs, so this is a strict no-op
  // there — the bit-identical-baseline requirement.
  for (NodeId p : contributors_) {
    if (p == requester || !models_[p].valid) continue;
    if (!reputation_->IsQuarantined(requester, p)) continue;
    if (options_.sanitize.enabled &&
        BundleVerdict(p) != ModelRejectReason::kNone) {
      continue;  // still malformed; nothing to re-evaluate
    }
    double score = reputation_->ScoreOneVsAll(requester, models_[p].model,
                                              &models_[p].tag_informed);
    if (score < 0.0) continue;
    reputation_->Observe(requester, p, score);
    if (!reputation_->IsQuarantined(requester, p)) {
      // Re-admitted: re-ingest the retained bundle copy (current version).
      const uint32_t rank = contributor_rank_[p];
      received_[requester][rank] = true;
      if (models_[p].version > HeldVersion(requester, rank)) {
        SetHeldVersion(requester, rank, models_[p].version);
      }
    }
  }
}

DefenseStats Pace::defense_stats() const {
  DefenseStats s;
  s.models_rejected = models_rejected_;
  s.votes_discarded = votes_discarded_;
  if (reputation_ != nullptr) {
    s.quarantined = reputation_->num_quarantined();
    s.trust_observations = reputation_->observations();
  }
  return s;
}

void Pace::Train(std::function<void(Status)> on_complete) {
  // Local phase: models, accuracies, centroids. Pure compute — no
  // simulator or network calls — so it fans out across peers on the
  // thread pool; each task writes only its own models_[peer] slot.
  // Everything that touches sim_/net_/overlay_ stays below, on the
  // driver thread.
  std::vector<NodeId> training_peers;
  for (NodeId peer = 0; peer < peer_data_.size(); ++peer) {
    if (!net_.IsOnline(peer) || peer_data_[peer].empty()) continue;
    training_peers.push_back(peer);
  }
  // Resolved on the driver thread; workers record wall time per peer
  // lock-free (null when metrics are disabled).
  Histogram* train_hist = PhaseSeconds(net_.metrics(), "pace", "local_train");
  ShardPlanOptions plan;
  plan.shards = options_.sim_shards;
  plan.num_threads = options_.num_threads;
  plan.seed = options_.svm.seed;
  ShardedPhase(training_peers.size(), plan,
               [&](std::size_t i, Rng&) -> UniqueFunction {
                 PhaseScope profile("local_train", train_hist);
                 TrainLocal(training_peers[i]);
                 return {};  // all protocol traffic is issued below
               });

  // Build the shared LSH index over all contributed centroids.
  {
    PhaseScope profile("lsh_index",
                       PhaseSeconds(net_.metrics(), "pace", "lsh_index"));
    for (NodeId peer = 0; peer < models_.size(); ++peer) {
      if (!models_[peer].valid) continue;
      for (std::size_t c = 0; c < models_[peer].centroids.size(); ++c) {
        index_->Insert(index_items_.size(), models_[peer].centroids[c]);
        index_items_.push_back({peer, c, models_[peer].version});
      }
    }
  }

  // Dissemination phase: every contributor broadcasts its bundle; each
  // delivery marks visibility at the receiver. Everyone trivially "has"
  // its own model. With reliable dissemination on, the broadcast stays
  // best-effort and the repair passes afterwards close the gaps.
  auto pending = std::make_shared<std::size_t>(1);
  auto barrier = std::make_shared<std::function<void()>>();
  *barrier = [this, pending, on_complete = std::move(on_complete)] {
    if (--*pending > 0) return;
    repair_rounds_run_ = 0;
    if (transport_ != nullptr) {
      RepairRound(0, std::move(on_complete));
      return;
    }
    trained_ = true;
    on_complete(Status::OK());
  };

  // Broadcasts launch in contributor order through a sliding window: each
  // completion launches the next contributor. With the window unlimited
  // (the default) every broadcast is issued back-to-back before any event
  // runs — byte-for-byte the legacy schedule; a finite window only bounds
  // how many dissemination trees the event queue materializes at once,
  // which is what keeps the 100k-peer run inside memory.
  Histogram* bcast_hist =
      PhaseSeconds(net_.metrics(), "pace", "model_broadcast");
  struct BroadcastWindow {
    std::vector<NodeId> order;
    std::size_t next = 0;
  };
  auto window = std::make_shared<BroadcastWindow>();
  for (NodeId peer : contributors_) {
    if (!models_[peer].valid) continue;
    window->order.push_back(peer);
    ++*pending;
  }
  auto launch = std::make_shared<std::function<void()>>();
  // The launcher holds only a weak self-reference (no shared_ptr cycle);
  // each in-flight completion callback keeps it alive via `self`.
  std::weak_ptr<std::function<void()>> weak_launch = launch;
  *launch = [this, window, weak_launch, barrier, bcast_hist] {
    if (window->next >= window->order.size()) return;
    const NodeId peer = window->order[window->next++];
    AcceptBundle(peer, peer);  // self-ingest passes the same sanitation gate
    const SimTime bcast_started = sim_.Now();
    std::shared_ptr<std::function<void()>> self = weak_launch.lock();
    overlay_.Broadcast(
        peer, models_[peer].wire_size, MessageType::kModelBroadcast,
        [this, peer](NodeId receiver) { AcceptBundle(receiver, peer); },
        [this, self, barrier, bcast_hist, bcast_started] {
          // Sim-time until this contributor's dissemination tree settled.
          if (bcast_hist != nullptr) {
            bcast_hist->Observe(sim_.Now() - bcast_started);
          }
          if (self != nullptr) (*self)();
          (*barrier)();
        });
  };
  const std::size_t in_flight = options_.max_concurrent_broadcasts == 0
                                    ? window->order.size()
                                    : options_.max_concurrent_broadcasts;
  for (std::size_t i = 0; i < in_flight && i < window->order.size(); ++i) {
    (*launch)();
  }
  (*barrier)();
}

void Pace::RepairRound(std::size_t round,
                       std::function<void(Status)> on_complete) {
  // Pairs still missing: contributor's bundle never reached the receiver.
  // Realistically receivers piggyback have-lists on gossip; the simulation
  // reads received_ directly and charges the full repair traffic.
  std::vector<std::pair<NodeId, NodeId>> missing;  // (contributor, receiver)
  for (NodeId p : contributors_) {
    if (!models_[p].valid) continue;
    for (NodeId q = 0; q < received_.size(); ++q) {
      // Holds is version-aware: a receiver stuck on a superseded bundle
      // counts as missing and gets the fresh one.
      if (q == p || Holds(q, p) || !net_.IsOnline(q)) continue;
      missing.emplace_back(p, q);
    }
  }
  if (missing.empty() || round >= options_.max_repair_rounds) {
    trained_ = true;
    on_complete(Status::OK());
    return;
  }
  ++repair_rounds_run_;

  auto pending = std::make_shared<std::size_t>(1);
  auto barrier = std::make_shared<std::function<void()>>();
  *barrier = [this, pending, round,
              on_complete = std::move(on_complete)]() mutable {
    if (--*pending > 0) return;
    RepairRound(round + 1, std::move(on_complete));
  };

  for (const auto& [p, q] : missing) {
    ++*pending;
    transport_->SendReliable(
        p, q, models_[p].wire_size, MessageType::kModelBroadcast,
        /*on_deliver=*/
        [this, p, q] { AcceptBundle(q, p); },
        /*on_acked=*/[barrier] { (*barrier)(); },
        /*on_give_up=*/[barrier] { (*barrier)(); });
  }
  (*barrier)();
}

void Pace::Predict(NodeId requester, const SparseVector& x,
                   std::function<void(P2PPrediction)> done) {
  if (!trained_ || requester >= peer_data_.size() ||
      !net_.IsOnline(requester)) {
    sim_.Schedule(0.0, [done = std::move(done)] {
      done({{}, {}, false});
    });
    return;
  }

  // Requester-side versioned cache: a hit answers instantly with zero
  // compute and zero queue pressure — how a flash crowd on a hot document
  // set is absorbed.
  uint64_t cache_key = 0;
  PredictionCache* cache = nullptr;
  if (cache_ != nullptr) {
    cache = &cache_->ForNode(requester);
    cache_key = FingerprintVector(x);
    CacheOutcome oc = CacheOutcome::kMiss;
    const P2PPrediction* hit =
        cache->Lookup(cache_key, publish_epoch_, sim_.Now(), &oc);
    if (MetricsRegistry* metrics = net_.metrics()) {
      const char* family = oc == CacheOutcome::kHit     ? "cache_hits"
                           : oc == CacheOutcome::kStale ? "cache_stale"
                                                        : "cache_misses";
      metrics->GetCounter(family, {{"classifier", "pace"}}).Increment();
    }
    if (hit != nullptr) {
      P2PPrediction out = *hit;
      out.cached = true;
      sim_.Schedule(0.0, [done = std::move(done), out = std::move(out)] {
        done(std::move(out));
      });
      return;
    }
  }

  // PACE serves locally, so the requester's own serving queue is the
  // bottleneck a burst saturates. Shed requests get the typed overloaded
  // reject without consuming any capacity.
  double serve_delay = 0.0;
  if (serve_ != nullptr) {
    Admission a = serve_->Admit(requester, sim_.Now());
    if (MetricsRegistry* metrics = net_.metrics()) {
      metrics->GetGauge("serve_queue_depth", {{"classifier", "pace"}})
          .Set(static_cast<double>(a.depth));
    }
    if (a.outcome != AdmitOutcome::kAccept) {
      if (MetricsRegistry* metrics = net_.metrics()) {
        metrics
            ->GetCounter("requests_shed",
                         {{"classifier", "pace"},
                          {"reason", AdmitOutcomeToString(a.outcome)}})
            .Increment();
      }
      P2PPrediction out;
      out.success = false;
      out.overloaded = true;
      sim_.Schedule(0.0, [done = std::move(done), out = std::move(out)] {
        done(std::move(out));
      });
      return;
    }
    serve_delay = a.delay;
  }

  Tracer* tracer = net_.tracer();
  TraceContext span;
  if (tracer != nullptr) {
    span = tracer->StartAuto("pace/predict", sim_.Now(), requester);
    tracer->AddArg(span, "requester", std::to_string(requester));
  }

  if (reputation_ != nullptr) {
    // Probation cadence: every Nth prediction this requester re-examines
    // its quarantined contributors (no-op when there are none).
    ++predict_count_[requester];
    if (options_.reputation.probation_interval > 0 &&
        predict_count_[requester] % options_.reputation.probation_interval ==
            0) {
      ProbeQuarantined(requester);
    }
    // Contributors that were accepted and later quarantined lose their
    // vote; count each exclusion per prediction served.
    for (NodeId p : contributors_) {
      if (received_[requester][contributor_rank_[p]] && models_[p].valid &&
          reputation_->IsQuarantined(requester, p)) {
        ++votes_discarded_;
        if (MetricsRegistry* metrics = net_.metrics()) {
          metrics->GetCounter("votes_discarded", {{"classifier", "pace"}})
              .Increment();
        }
      }
    }
  }
  auto eligible = [this, requester](NodeId peer) {
    if (!Holds(requester, peer) || !models_[peer].valid) return false;
    return reputation_ == nullptr ||
           !reputation_->IsQuarantined(requester, peer);
  };

  // Entirely local: retrieve candidate models via LSH (multi-probe until we
  // have enough), filter to models this peer actually received, rank by
  // true centroid distance, keep top-k.
  struct Scored {
    NodeId peer;
    double dist2;
  };
  std::vector<Scored> nearest;
  {
    PhaseScope profile("top_k_retrieve",
                       PhaseSeconds(net_.metrics(), "pace", "top_k_retrieve"));
    std::vector<std::size_t> candidates =
        index_->QueryAtLeast(x, options_.top_k * 4);

    std::vector<double> best_dist(models_.size(),
                                  std::numeric_limits<double>::infinity());
    for (std::size_t item : candidates) {
      const IndexItem& entry = index_items_[item];
      const NodeId peer = entry.peer;
      if (!eligible(peer)) continue;
      // Entries of superseded bundle versions are dead — old-version
      // eviction at the index. Only the current version's centroids answer.
      if (entry.version != models_[peer].version) continue;
      // A restored bundle is expected to carry the indexed centroids, but a
      // stale index entry must degrade to "skip", never to an OOB read.
      if (entry.cidx >= models_[peer].centroids.size()) continue;
      double d = x.SquaredDistance(models_[peer].centroids[entry.cidx]);
      best_dist[peer] = std::min(best_dist[peer], d);
    }
    for (NodeId peer = 0; peer < models_.size(); ++peer) {
      if (std::isfinite(best_dist[peer])) {
        nearest.push_back({peer, best_dist[peer]});
      }
    }
    // LSH recall fallback: when collisions under-deliver, scan every
    // received model (correctness first; the LSH speedup is measured by the
    // ML benchmarks, not assumed).
    if (nearest.size() < options_.top_k) {
      nearest.clear();
      for (NodeId peer : contributors_) {
        if (!eligible(peer)) continue;
        double best = std::numeric_limits<double>::infinity();
        for (const auto& c : models_[peer].centroids) {
          best = std::min(best, x.SquaredDistance(c));
        }
        nearest.push_back({peer, best});
      }
    }
    std::sort(nearest.begin(), nearest.end(), [](const Scored& a,
                                                 const Scored& b) {
      return a.dist2 < b.dist2;
    });
    if (nearest.size() > options_.top_k) nearest.resize(options_.top_k);
  }

  P2PPrediction out;
  out.scores.assign(num_tags_, 0.0);
  if (nearest.empty()) {
    out.success = false;
    if (MetricsRegistry* metrics = net_.metrics()) {
      metrics
          ->GetCounter("predictions",
                       {{"classifier", "pace"}, {"outcome", "failed"}})
          .Increment();
    }
    if (tracer != nullptr) {
      tracer->AddArg(span, "success", "false");
      tracer->EndSpan(span, sim_.Now());
    }
    sim_.Schedule(serve_delay, [done = std::move(done), out = std::move(out)] {
      done(std::move(out));
    });
    return;
  }

  {
    // The vote interval ends before metrics, tracing and the cache insert.
    PhaseScope profile("vote", PhaseSeconds(net_.metrics(), "pace", "vote"));
    std::vector<double> weight_sum(num_tags_, 0.0);
    for (const Scored& s : nearest) {
      const PeerModel& pm = models_[s.peer];
      double dist_w =
          1.0 / std::pow(1.0 + std::sqrt(s.dist2), options_.distance_exponent);
      // Suspect contributors (low but not quarantine-level trust) vote with
      // min(self-reported, observed) accuracy, scaled by trust — the
      // reputation-weighted replacement for PACE's self-reported weighting.
      // Never triggers for honest contributors, whose trust stays high.
      const bool suspect =
          reputation_ != nullptr && reputation_->IsSuspect(requester, s.peer);
      for (TagId t = 0; t < num_tags_; ++t) {
        const BinaryClassifier* m = pm.model.model(t);
        // Explicit bounds guards: a dimension-mismatch adversary ships per-tag
        // vectors shorter than num_tags_, which must degrade to "no vote",
        // never to an out-of-bounds read.
        if (m == nullptr || t >= pm.tag_informed.size() ||
            t >= pm.tag_accuracy.size() || !pm.tag_informed[t]) {
          continue;
        }
        double acc = ClampAccuracy(pm.tag_accuracy[t]);
        if (suspect) {
          acc = std::min(acc, reputation_->ObservedAccuracy(requester, s.peer));
        }
        double w =
            std::pow(std::max(acc, 1e-6), options_.accuracy_exponent) * dist_w;
        if (suspect) w *= reputation_->Trust(requester, s.peer);
        out.scores[t] += w * m->Decision(x);
        weight_sum[t] += w;
      }
    }
    for (TagId t = 0; t < num_tags_; ++t) {
      if (weight_sum[t] > 0.0) out.scores[t] /= weight_sum[t];
    }
    out.tags = DecideTags(out.scores, options_.policy);
    out.success = true;
  }
  if (MetricsRegistry* metrics = net_.metrics()) {
    metrics
        ->GetCounter("predictions",
                     {{"classifier", "pace"}, {"outcome", "ok"}})
        .Increment();
  }
  if (tracer != nullptr) {
    tracer->AddArg(span, "voters", std::to_string(nearest.size()));
    tracer->AddArg(span, "success", "true");
    tracer->EndSpan(span, sim_.Now());
  }
  if (cache != nullptr) {
    cache->Insert(cache_key, publish_epoch_, sim_.Now(), out);
  }
  sim_.Schedule(serve_delay, [done = std::move(done), out = std::move(out)] {
    done(std::move(out));
  });
}

Result<std::string> Pace::Snapshot(NodeId peer) const {
  if (peer >= models_.size()) {
    return Status::InvalidArgument("snapshot of unknown peer " +
                                   std::to_string(peer));
  }
  const PeerModel& pm = models_[peer];
  std::string out;
  wire::PutU8(kPaceSnapshotVersion, out);
  wire::PutU32(num_tags_, out);
  wire::PutU32(static_cast<uint32_t>(models_.size()), out);
  wire::PutU8(pm.valid ? 1 : 0, out);
  if (pm.valid) {
    wire::PutBytes(SerializeOneVsAll(pm.model), out);
    wire::PutBytes(SerializeCentroids(pm.centroids), out);
    wire::PutU32(static_cast<uint32_t>(pm.tag_accuracy.size()), out);
    for (double a : pm.tag_accuracy) wire::PutDouble(a, out);
    wire::PutU32(static_cast<uint32_t>(pm.tag_informed.size()), out);
    for (bool b : pm.tag_informed) wire::PutU8(b ? 1 : 0, out);
    wire::PutU64(pm.wire_size, out);
  }
  // The receiver-side view: which contributors' bundles this peer holds.
  // Serialized as a full N-sized row (expanded from the rank-compressed
  // matrix) so the wire format is unchanged from the N×N layout.
  wire::PutU32(static_cast<uint32_t>(models_.size()), out);
  for (NodeId p = 0; p < models_.size(); ++p) {
    wire::PutU8(Holds(peer, p) ? 1 : 0, out);
  }
  return out;
}

Status Pace::Restore(NodeId peer, const std::string& blob) {
  if (peer >= models_.size()) {
    return Status::InvalidArgument("restore of unknown peer " +
                                   std::to_string(peer));
  }
  std::size_t offset = 0;
  Result<uint8_t> version = wire::GetU8(blob, offset);
  if (!version.ok()) return version.status();
  if (version.value() != kPaceSnapshotVersion) {
    return Status::InvalidArgument("unsupported pace snapshot version " +
                                   std::to_string(version.value()));
  }
  Result<uint32_t> num_tags = wire::GetU32(blob, offset);
  if (!num_tags.ok()) return num_tags.status();
  Result<uint32_t> num_peers = wire::GetU32(blob, offset);
  if (!num_peers.ok()) return num_peers.status();
  if (num_tags.value() != num_tags_ || num_peers.value() != models_.size()) {
    return Status::InvalidArgument(
        "pace snapshot was taken under a different configuration");
  }
  Result<uint8_t> valid = wire::GetU8(blob, offset);
  if (!valid.ok()) return valid.status();

  PeerModel restored;
  if (valid.value() != 0) {
    Result<std::string> model_bytes = wire::GetBytes(blob, offset);
    if (!model_bytes.ok()) return model_bytes.status();
    Result<OneVsAllModel> model = DeserializeOneVsAll(model_bytes.value());
    if (!model.ok()) return model.status();
    restored.model = std::move(model).value();
    Result<std::string> centroid_bytes = wire::GetBytes(blob, offset);
    if (!centroid_bytes.ok()) return centroid_bytes.status();
    Result<std::vector<SparseVector>> centroids =
        DeserializeCentroids(centroid_bytes.value());
    if (!centroids.ok()) return centroids.status();
    restored.centroids = std::move(centroids).value();
    Result<uint32_t> n_acc = wire::GetU32(blob, offset);
    if (!n_acc.ok()) return n_acc.status();
    // Bound attacker-controlled counts by the bytes that could back them
    // before reserving (8 bytes per accuracy, 1 per informed flag).
    if (static_cast<std::size_t>(n_acc.value()) > (blob.size() - offset) / 8) {
      return Status::DataLoss("pace snapshot accuracy count exceeds blob");
    }
    restored.tag_accuracy.reserve(n_acc.value());
    for (uint32_t i = 0; i < n_acc.value(); ++i) {
      Result<double> a = wire::GetDouble(blob, offset);
      if (!a.ok()) return a.status();
      // Checkpoints are an ingestion point too: the accuracy clamp applies
      // on restore exactly as it does at bundle receipt.
      restored.tag_accuracy.push_back(ClampAccuracy(a.value()));
    }
    Result<uint32_t> n_inf = wire::GetU32(blob, offset);
    if (!n_inf.ok()) return n_inf.status();
    if (static_cast<std::size_t>(n_inf.value()) > blob.size() - offset) {
      return Status::DataLoss("pace snapshot informed count exceeds blob");
    }
    restored.tag_informed.reserve(n_inf.value());
    for (uint32_t i = 0; i < n_inf.value(); ++i) {
      Result<uint8_t> b = wire::GetU8(blob, offset);
      if (!b.ok()) return b.status();
      restored.tag_informed.push_back(b.value() != 0);
    }
    Result<uint64_t> wire_size = wire::GetU64(blob, offset);
    if (!wire_size.ok()) return wire_size.status();
    restored.wire_size = static_cast<std::size_t>(wire_size.value());
    restored.valid = true;
  }

  Result<uint32_t> n_recv = wire::GetU32(blob, offset);
  if (!n_recv.ok()) return n_recv.status();
  if (n_recv.value() != models_.size()) {
    return Status::InvalidArgument("pace snapshot received-row size " +
                                   std::to_string(n_recv.value()) +
                                   " does not match network size");
  }
  std::vector<bool> row(n_recv.value(), false);
  for (uint32_t i = 0; i < n_recv.value(); ++i) {
    Result<uint8_t> b = wire::GetU8(blob, offset);
    if (!b.ok()) return b.status();
    row[i] = b.value() != 0;
  }
  if (offset != blob.size()) {
    return Status::InvalidArgument("trailing bytes after pace snapshot");
  }
  // A parsed-but-hostile payload (NaN weights, out-of-lexicon dimensions)
  // is rejected like any other ingested model; the caller degrades to a
  // cold restart, the same path as a corrupt checkpoint.
  if (options_.sanitize.enabled && restored.valid) {
    ModelRejectReason reason =
        SanitizeOneVsAll(restored.model, num_tags_, options_.sanitize);
    if (reason == ModelRejectReason::kNone) {
      reason = SanitizeCentroids(restored.centroids, options_.sanitize);
    }
    if (reason != ModelRejectReason::kNone) {
      RecordRejected(reason);
      return RejectedModelStatus(reason);
    }
  }
  // Commit only after the whole blob parsed: restore is all-or-nothing.
  // The version counter is store-side publish metadata, not checkpoint
  // content: it survives the restore so receivers holding the peer's
  // latest publish stay consistent and future refreshes keep ascending.
  restored.version = models_[peer].version;
  // The row compresses back to contributor ranks; bits claimed for peers
  // that never contributed have nothing behind them and are dropped. Held
  // versions reset to 0 (the snapshot predates versioning): any contributor
  // that refreshed since is honestly treated as missing until resync.
  models_[peer] = std::move(restored);
  received_[peer].assign(contributors_.size(), false);
  received_version_[peer].clear();
  for (NodeId p = 0; p < row.size(); ++p) {
    if (row[p] && contributor_rank_[p] != kNoRank) {
      received_[peer][contributor_rank_[p]] = true;
    }
  }
  bundle_verdict_[peer] = -1;
  BumpPublishEpoch();
  return Status::OK();
}

void Pace::EvictPeer(NodeId peer) {
  if (peer >= received_.size()) return;
  // The peer's RAM is gone: it no longer holds anyone's bundle, its own
  // included. models_[peer] itself is left in place — it doubles as the
  // copy other receivers hold, which a crash of the contributor does not
  // destroy; visibility is entirely received_[q][rank(peer)].
  received_[peer].assign(contributors_.size(), false);
  received_version_[peer].clear();
  BumpPublishEpoch();
}

std::size_t Pace::ColdRestart(NodeId peer) {
  if (peer >= peer_data_.size()) return 0;
  received_[peer].assign(contributors_.size(), false);
  received_version_[peer].clear();
  BumpPublishEpoch();
  const DatasetShard& data = peer_data_[peer];
  if (data.empty()) return 0;
  TrainLocal(peer);
  if (!models_[peer].valid) return 0;
  AcceptBundle(peer, peer);
  std::vector<std::size_t> counts = data.TagCounts();
  std::size_t informed_tags = 0;
  for (std::size_t c : counts) {
    if (c > 0) ++informed_tags;
  }
  return data.size() * informed_tags;
}

void Pace::ResyncPeer(NodeId peer, std::function<void()> done) {
  if (peer >= received_.size() || !net_.IsOnline(peer)) {
    sim_.Schedule(0.0, std::move(done));
    return;
  }
  auto pending = std::make_shared<std::size_t>(1);
  auto barrier = std::make_shared<std::function<void()>>();
  *barrier = [pending, done = std::move(done)] {
    if (--*pending > 0) return;
    done();
  };
  for (NodeId p : contributors_) {
    if (p == peer || !models_[p].valid || Holds(peer, p)) continue;
    // SRM-style repair: *any* online peer holding p's bundle can serve it,
    // not only the contributor — so a bundle stays recoverable as long as
    // one live copy exists, even while its contributor is offline.
    NodeId sender = kInvalidNode;
    if (net_.IsOnline(p)) {
      sender = p;
    } else {
      for (NodeId q = 0; q < received_.size(); ++q) {
        if (q != peer && Holds(q, p) && net_.IsOnline(q)) {
          sender = q;
          break;
        }
      }
    }
    if (sender == kInvalidNode) continue;  // no live copy anywhere
    ++*pending;
    auto deliver = [this, p, peer] { AcceptBundle(peer, p); };
    if (transport_ != nullptr) {
      transport_->SendReliable(
          sender, peer, models_[p].wire_size, MessageType::kModelBroadcast,
          std::move(deliver), /*on_acked=*/[barrier] { (*barrier)(); },
          /*on_give_up=*/[barrier] { (*barrier)(); });
    } else {
      net_.Send(
          sender, peer, models_[p].wire_size, MessageType::kModelBroadcast,
          [deliver = std::move(deliver), barrier] {
            deliver();
            (*barrier)();
          },
          [barrier] { (*barrier)(); });
    }
  }
  sim_.Schedule(0.0, [barrier] { (*barrier)(); });  // consume root token
}

double Pace::ModelCoverage() const {
  std::size_t contributors = 0;
  for (const auto& m : models_) {
    if (m.valid) ++contributors;
  }
  if (contributors == 0) return 0.0;
  std::size_t have = 0, want = 0;
  for (NodeId q = 0; q < received_.size(); ++q) {
    if (!net_.IsOnline(q)) continue;
    for (NodeId p : contributors_) {
      if (!models_[p].valid) continue;
      ++want;
      if (Holds(q, p)) ++have;
    }
  }
  return want == 0 ? 0.0
                   : static_cast<double>(have) / static_cast<double>(want);
}

Status Pace::ReplacePeerData(NodeId peer, DatasetShard window) {
  if (peer >= peer_data_.size()) {
    return Status::InvalidArgument("replace data of unknown peer " +
                                   std::to_string(peer));
  }
  if (contributor_rank_[peer] == kNoRank && !window.empty()) {
    // The receipt matrix is rank-compressed over setup-time contributors;
    // a peer that contributed nothing then cannot start publishing mid-run.
    return Status::FailedPrecondition(
        "peer " + std::to_string(peer) +
        " contributed no data at setup and cannot become a contributor");
  }
  window.set_num_tags(num_tags_);
  peer_data_[peer] = std::move(window);
  bundle_verdict_[peer] = -1;  // next publish is a different bundle
  if (reputation_ != nullptr) {
    // The cross-validation holdout tracks the peer's current window, so
    // trust scoring reflects the data regime models are judged against.
    reputation_->SetHoldout(peer, peer_data_[peer]);
  }
  return Status::OK();
}

void Pace::RefreshPeer(NodeId peer, std::function<void()> done) {
  const uint32_t rank =
      peer < contributor_rank_.size() ? contributor_rank_[peer] : kNoRank;
  if (rank == kNoRank || !net_.IsOnline(peer) || peer_data_[peer].empty()) {
    sim_.Schedule(0.0, std::move(done));
    return;
  }
  const uint32_t next_version = models_[peer].version + 1;
  {
    PhaseScope profile("model_refresh",
                       PhaseSeconds(net_.metrics(), "pace", "model_refresh"));
    TrainLocal(peer);  // deterministic per-(peer,tag) seeds, like Train
    if (!models_[peer].valid) {
      sim_.Schedule(0.0, std::move(done));
      return;
    }
    models_[peer].version = next_version;
    // The version bump invalidates cached predictions even if the refreshed
    // bundle is later refused at some ingestion gate.
    BumpPublishEpoch();
    // Index the refreshed centroids under the new stamp; the superseded
    // version's entries are now dead at query time (version mismatch).
    for (std::size_t c = 0; c < models_[peer].centroids.size(); ++c) {
      index_->Insert(index_items_.size(), models_[peer].centroids[c]);
      index_items_.push_back({peer, c, next_version});
    }
  }

  // Re-broadcast through the normal dissemination path; every delivery
  // passes the same AcceptBundle gate (clamp, sanitize, reputation) as an
  // initial publish, then reliable fill-in for receivers the broadcast
  // missed, exactly like Train's repair rounds.
  AcceptBundle(peer, peer);
  overlay_.Broadcast(
      peer, models_[peer].wire_size, MessageType::kModelBroadcast,
      [this, peer](NodeId receiver) { AcceptBundle(receiver, peer); },
      [this, peer, done = std::move(done)]() mutable {
        if (transport_ != nullptr) {
          RefreshRepair(peer, 0, std::move(done));
        } else {
          done();
        }
      });
}

void Pace::RefreshRepair(NodeId peer, std::size_t round,
                         std::function<void()> done) {
  std::vector<NodeId> missing;
  for (NodeId q = 0; q < received_.size(); ++q) {
    if (q == peer || Holds(q, peer) || !net_.IsOnline(q)) continue;
    missing.push_back(q);
  }
  if (missing.empty() || round >= options_.max_repair_rounds) {
    sim_.Schedule(0.0, std::move(done));
    return;
  }
  auto pending = std::make_shared<std::size_t>(1);
  auto barrier = std::make_shared<std::function<void()>>();
  *barrier = [this, peer, round, pending, done = std::move(done)]() mutable {
    if (--*pending > 0) return;
    RefreshRepair(peer, round + 1, std::move(done));
  };
  for (NodeId q : missing) {
    ++*pending;
    transport_->SendReliable(
        peer, q, models_[peer].wire_size, MessageType::kModelBroadcast,
        /*on_deliver=*/[this, peer, q] { AcceptBundle(q, peer); },
        /*on_acked=*/[barrier] { (*barrier)(); },
        /*on_give_up=*/[barrier] { (*barrier)(); });
  }
  (*barrier)();
}

uint64_t Pace::ModelVersion(NodeId peer) const {
  return peer < models_.size() ? models_[peer].version : 0;
}

}  // namespace p2pdt
