#include "p2pml/cempar.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/profile.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "ml/serialization.h"
#include "p2psim/sharding.h"

namespace p2pdt {

namespace {

/// Per-phase latency family shared by both classifiers; resolved once per
/// call site so recording stays lock-free (see MetricsRegistry).
Histogram* PhaseHistogram(MetricsRegistry* metrics, const char* phase) {
  if (metrics == nullptr) return nullptr;
  return &metrics->GetHistogram(
      "phase_seconds", {{"classifier", "cempar"}, {"phase", phase}});
}

/// Version byte of the CEMPaR peer-snapshot layout (inside the checkpoint
/// envelope, which already guards integrity; this guards evolution).
constexpr uint8_t kCemparSnapshotVersion = 1;

/// Wire size of a prediction request: the document vector plus a small
/// header naming the homes being queried.
std::size_t RequestBytes(const SparseVector& x) { return x.WireSize() + 16; }

/// Wire size of a response carrying `n` per-tag scores.
std::size_t ResponseBytes(std::size_t n) { return 16 + 12 * n; }

/// What a kGarbageModel adversary uploads in place of its honest fit: a
/// handful of support vectors whose coordinates cycle NaN / inf / 1e30 at
/// seeded feature ids, under a NaN bias. Undefended cascades absorb the
/// poison (SMO still terminates: NaN comparisons drop the indices from the
/// working set); defended intakes reject it as non_finite.
KernelSvmModel GarbageKernelModel(const Kernel& kernel, Rng& rng) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<SupportVector> svs;
  for (int k = 0; k < 6; ++k) {
    SupportVector sv;
    double v = k % 3 == 0 ? kNan : k % 3 == 1 ? kInf : 1.0e30;
    sv.x = SparseVector::FromPairs(
        {{static_cast<uint32_t>(rng.NextU64(4096)), v}});
    sv.y = k % 2 == 0 ? 1.0 : -1.0;
    sv.alpha = 1.0;
    svs.push_back(std::move(sv));
  }
  return KernelSvmModel(kernel, std::move(svs), kNan);
}

}  // namespace

Cempar::Cempar(Simulator& sim, PhysicalNetwork& net, ChordOverlay& chord,
               CemparOptions options)
    : sim_(sim), net_(net), chord_(chord), options_(options) {
  if (options_.regions_per_tag == 0) options_.regions_per_tag = 1;
  if (options_.reliable_transport) {
    transport_ =
        std::make_unique<ReliableTransport>(sim_, net_, options_.transport);
    transport_->SetSuspicionListener(
        [this](NodeId suspect) { OnSuspect(suspect); });
  }
  if (options_.serve.enabled) {
    serve_ = std::make_unique<ServeQueueSet>(options_.serve);
    if (transport_ != nullptr) {
      // Wire-level admission control: every fresh prediction request (or
      // batch) arriving at a super-peer is charged against its serving
      // queue; rejects travel back as typed overload NACKs.
      transport_->SetAdmissionHook(
          [this](NodeId to, MessageType type) -> AdmissionVerdict {
            AdmissionVerdict v;
            if (type != MessageType::kPredictionRequest) return v;
            Admission a = AdmitServe(to);
            if (a.outcome != AdmitOutcome::kAccept) {
              v.accept = false;
              v.retry_after = a.retry_after;
              return v;
            }
            v.delay = a.delay;
            return v;
          });
    }
  }
  if (options_.predict_cache.enabled) {
    cache_ = std::make_unique<PredictCacheSet>(options_.predict_cache);
  }
}

Admission Cempar::AdmitServe(NodeId owner) {
  Admission a = serve_->Admit(owner, sim_.Now());
  if (MetricsRegistry* metrics = net_.metrics()) {
    metrics->GetGauge("serve_queue_depth", {{"classifier", "cempar"}})
        .Set(static_cast<double>(a.depth));
    if (a.outcome != AdmitOutcome::kAccept) {
      metrics
          ->GetCounter("requests_shed",
                       {{"classifier", "cempar"},
                        {"reason", AdmitOutcomeToString(a.outcome)}})
          .Increment();
    }
  }
  return a;
}

uint64_t Cempar::HomeKey(TagId tag, std::size_t region) const {
  return chord_.HashToKey((uint64_t{tag} << 20) | region);
}

Status Cempar::SetupShards(std::vector<DatasetShard> peer_data,
                           TagId num_tags) {
  if (peer_data.size() != net_.num_nodes()) {
    return Status::InvalidArgument(
        "peer_data size must equal the number of underlay nodes");
  }
  peer_data_ = std::move(peer_data);
  num_tags_ = num_tags;
  homes_.assign(static_cast<std::size_t>(num_tags_) *
                    options_.regions_per_tag,
                Home{});
  local_models_.assign(peer_data_.size(), {});
  model_version_.assign(peer_data_.size(), 0);
  owner_cache_.assign(peer_data_.size(), {});
  trained_ = false;
  models_rejected_ = 0;
  votes_discarded_ = 0;
  reputation_.reset();
  if (options_.reputation.enabled) {
    reputation_ = std::make_unique<ReputationManager>(
        options_.reputation, net_.metrics(), "cempar");
    reputation_->Reset(peer_data_.size());
    for (NodeId p = 0; p < peer_data_.size(); ++p) {
      reputation_->SetHoldout(p, peer_data_[p]);
    }
  }
  return Status::OK();
}

void Cempar::RecordRejected(ModelRejectReason reason) {
  ++models_rejected_;
  if (MetricsRegistry* metrics = net_.metrics()) {
    metrics
        ->GetCounter("models_rejected",
                     {{"classifier", "cempar"},
                      {"reason", ModelRejectReasonToString(reason)}})
        .Increment();
  }
}

void Cempar::PurgeContributor(NodeId observer, NodeId contributor) {
  for (Home& home : homes_) {
    if (home.owner != observer) continue;
    if (home.locals.erase(contributor) > 0) home.dirty = true;
    home.local_versions.erase(contributor);
  }
  BumpPublishEpoch();
}

DefenseStats Cempar::defense_stats() const {
  DefenseStats stats;
  stats.models_rejected = models_rejected_;
  stats.votes_discarded = votes_discarded_;
  if (reputation_ != nullptr) {
    stats.quarantined = reputation_->num_quarantined();
    stats.trust_observations = reputation_->observations();
  }
  return stats;
}

void Cempar::UploadModel(NodeId peer, TagId tag, std::size_t region,
                         KernelSvmModel model, uint32_t version,
                         std::shared_ptr<std::function<void()>> barrier) {
  const std::size_t h = HomeIndex(tag, region);
  if (Histogram* hist = PhaseHistogram(net_.metrics(), "sv_upload")) {
    // Sim-time from issue to settlement (lookup + upload + retries), no
    // matter which path below settles the barrier.
    const SimTime started = sim_.Now();
    auto inner = barrier;
    barrier = std::make_shared<std::function<void()>>(
        [this, hist, started, inner] {
          hist->Observe(sim_.Now() - started);
          (*inner)();
        });
  }
  chord_.Lookup(peer, HomeKey(tag, region),
                [this, peer, h, version, model = std::move(model),
                 barrier](ChordOverlay::LookupResult res) {
    if (!res.success) {
      (*barrier)();
      return;
    }
    if (options_.cache_super_peer_lookups) {
      owner_cache_[peer][h] = res.owner;
    }
    auto install = [this, h, peer, version, owner = res.owner, model] {
      Home& home = homes_[h];
      if (home.owner == kInvalidNode) home.owner = owner;
      // A model delivered to a node that is not the home's collection
      // point (possible under churn-induced lookup disagreement) is
      // simply unused — it was still paid for on the wire.
      if (home.owner != owner) return;
      // Super-peer intake gate: sanitation first (structural), then
      // reputation (behavioral). Honest models pass both untouched.
      if (options_.sanitize.enabled) {
        ModelRejectReason reason = SanitizeKernelModel(model, options_.sanitize);
        if (reason != ModelRejectReason::kNone) {
          RecordRejected(reason);
          return;
        }
      }
      if (reputation_ != nullptr && owner != peer) {
        const TagId tag = static_cast<TagId>(h / options_.regions_per_tag);
        double score = reputation_->ScoreBinary(owner, model, tag);
        if (reputation_->Observe(owner, peer, score)) {
          // Transition into quarantine: drop what this contributor already
          // got merged before the evidence accumulated.
          PurgeContributor(owner, peer);
        }
        if (reputation_->IsQuarantined(owner, peer)) {
          RecordRejected(ModelRejectReason::kDistrusted);
          return;
        }
      }
      // Version-guarded intake: a stamped upload replaces the peer's
      // stored local iff it is strictly newer than the held one. Duplicate
      // deliveries (same version) and out-of-order stragglers (older
      // version landing after a refresh) leave the stored model untouched
      // — an old version can never clobber a fresh one. All initial
      // publishes carry version 0, reproducing the legacy first-write-wins
      // emplace exactly.
      auto existing = home.locals.find(peer);
      if (existing != home.locals.end()) {
        uint32_t held = 0;
        auto vit = home.local_versions.find(peer);
        if (vit != home.local_versions.end()) held = vit->second;
        if (version > held) {
          existing->second = model;  // old-version eviction at the home
          home.local_versions[peer] = version;
        }
      } else {
        home.locals.emplace(peer, model);
        if (version > 0) home.local_versions[peer] = version;
      }
      home.dirty = true;
    };
    const std::size_t bytes = model.WireSize() + 16;
    if (transport_) {
      // Reliable path: the upload retries until ACKed or the retry budget
      // is exhausted; the barrier settles on either outcome, never on
      // receiver-side delivery (idempotent under retransmission).
      transport_->SendReliable(
          peer, res.owner, bytes, MessageType::kModelUpload,
          std::move(install), [barrier] { (*barrier)(); },
          [barrier] { (*barrier)(); });
      return;
    }
    net_.Send(
        peer, res.owner, bytes, MessageType::kModelUpload,
        [install = std::move(install), barrier] {
          install();
          (*barrier)();
        },
        [barrier] { (*barrier)(); });
  });
}

void Cempar::Train(std::function<void(Status)> on_complete) {
  auto pending = std::make_shared<std::size_t>(1);  // root token
  auto barrier = std::make_shared<std::function<void()>>();
  *barrier = [this, pending, on_complete = std::move(on_complete)] {
    if (--*pending > 0) return;
    CascadeAll();
    ReplicateRegionals();
    trained_ = true;
    on_complete(Status::OK());
  };

  // Phase 1 — pure compute: fit one local SVM per (peer, tag) cell. The
  // grid fans out across the thread pool; each task reads immutable peer
  // data and writes only its own result slot. SMO itself is deterministic,
  // so phase 1 produces the same models at any thread count.
  struct GridCell {
    NodeId peer;
    TagId tag;
    std::size_t region;
  };
  std::vector<GridCell> grid;
  for (NodeId peer = 0; peer < peer_data_.size(); ++peer) {
    if (!net_.IsOnline(peer) || peer_data_[peer].empty()) continue;
    std::vector<std::size_t> counts = peer_data_[peer].TagCounts();
    const std::size_t region = peer % options_.regions_per_tag;
    for (TagId tag = 0; tag < num_tags_; ++tag) {
      if (tag >= counts.size() || counts[tag] == 0) continue;
      grid.push_back({peer, tag, region});
    }
  }
  // Adversary behaviors resolved on the driver thread before the fan-out so
  // workers never consult simulator state.
  const AdversaryDirectory* adversaries = net_.adversaries();
  std::vector<uint8_t> flip(grid.size(), 0);
  if (adversaries != nullptr) {
    for (std::size_t i = 0; i < grid.size(); ++i) {
      flip[i] = adversaries->BehaviorAt(grid[i].peer, sim_.Now()) ==
                AdversaryBehavior::kLabelFlip;
    }
  }
  // Resolved on the driver thread; workers record wall time per cell
  // lock-free (null when metrics are disabled).
  Histogram* train_hist = PhaseHistogram(net_.metrics(), "local_train");

  // Sharded compute/commit phase. Each grid cell fits its SVM on a pool
  // worker and stages the protocol side as a commit; ShardedPhase then runs
  // the commits on the driver thread in grid order — exactly the order the
  // old serial loop used — so the simulated message schedule is unchanged
  // for every shard and thread count. The fitted model is *moved* through
  // the commit closure, never copied.
  ShardPlanOptions plan;
  plan.shards = options_.sim_shards;
  plan.num_threads = options_.num_threads;
  // SMO draws no randomness, so the per-shard streams are unused by the
  // work itself; any fixed seed keeps the plan deterministic.
  plan.seed = 0;
  ShardedPhase(grid.size(), plan, [&](std::size_t i, Rng&) -> UniqueFunction {
    const GridCell cell = grid[i];
    PhaseScope profile("local_train");
    Stopwatch cell_wall;
    std::vector<Example> train =
        peer_data_[cell.peer].OneAgainstAll(cell.tag);
    if (flip[i] != 0) {
      // Label-flip poisoning: the model is perfectly anti-correlated with
      // the truth, which is exactly what cross-validation scores near zero.
      for (Example& ex : train) ex.y = -ex.y;
    }
    Result<KernelSvmModel> model = TrainKernelSvm(train, options_.svm);
    if (train_hist != nullptr) {
      train_hist->Observe(cell_wall.ElapsedSeconds());
    }
    return [this, cell, adversaries, pending, barrier,
            model = std::move(model)]() mutable {
      if (!model.ok()) {
        P2PDT_LOG(Warning) << "peer " << cell.peer << " tag " << cell.tag
                           << " local SVM failed: "
                           << model.status().ToString();
        return;
      }
      KernelSvmModel upload = std::move(model).value();
      if (adversaries != nullptr) {
        switch (adversaries->BehaviorAt(cell.peer, sim_.Now())) {
          case AdversaryBehavior::kGarbageModel: {
            // Seeded per (peer, tag, region) from the injector's dedicated
            // corruption stream — serial and parallel runs corrupt
            // identically, and armed-but-idle plans never draw from it.
            Rng crng(DeriveSeed(adversaries->CorruptionSeed(cell.peer),
                                cell.tag, cell.region));
            upload = GarbageKernelModel(options_.svm.kernel, crng);
            break;
          }
          case AdversaryBehavior::kDimensionMismatch: {
            // Append a support vector at a feature id far beyond any
            // plausible lexicon.
            std::vector<SupportVector> svs = upload.support_vectors();
            SupportVector sv;
            sv.x = SparseVector::FromPairs({{1u << 30, 1.0}});
            sv.y = 1.0;
            sv.alpha = 1.0;
            svs.push_back(std::move(sv));
            upload = KernelSvmModel(upload.kernel(), std::move(svs),
                                    upload.bias());
            break;
          }
          default:
            break;
        }
      }
      // Adversaries keep their corrupted model locally too: repair rounds
      // re-upload the same poison (and get re-rejected at the gate).
      local_models_[cell.peer].emplace(HomeIndex(cell.tag, cell.region),
                                       upload);
      ++*pending;
      UploadModel(cell.peer, cell.tag, cell.region, std::move(upload),
                  model_version_[cell.peer], barrier);
    };
  });
  (*barrier)();  // consume the root token
}

void Cempar::CascadeAll() {
  // Regional models are about to change: every cached prediction computed
  // against the old cascade is stale.
  BumpPublishEpoch();
  Histogram* cascade_hist = PhaseHistogram(net_.metrics(), "cascade_merge");
  for (Home& home : homes_) {
    if (home.locals.empty() || !home.dirty) continue;
    home.dirty = false;
    std::vector<const KernelSvmModel*> locals;
    locals.reserve(home.locals.size());
    for (const auto& [peer, model] : home.locals) {
      // Defense in depth at the merge: locals that slipped in before a
      // quarantine (or before sanitation was enabled) stay out of the
      // cascade. Both predicates are false for every honest model.
      if (options_.sanitize.enabled &&
          SanitizeKernelModel(model, options_.sanitize) !=
              ModelRejectReason::kNone) {
        continue;
      }
      if (reputation_ != nullptr && home.owner != kInvalidNode &&
          reputation_->IsQuarantined(home.owner, peer)) {
        continue;
      }
      locals.push_back(&model);
    }
    if (locals.empty()) {
      // Every contributor was rejected: the home has no trustworthy model.
      home.has_regional = false;
      home.weight = 0.0;
      continue;
    }
    Stopwatch merge_wall;
    PhaseScope profile("cascade_merge");
    Result<KernelSvmModel> regional =
        CascadeTree(locals, options_.svm, options_.cascade_fan_in);
    if (cascade_hist != nullptr) {
      cascade_hist->Observe(merge_wall.ElapsedSeconds());
    }
    if (!regional.ok()) {
      P2PDT_LOG(Warning) << "cascade failed: " << regional.status().ToString();
      continue;
    }
    home.regional = std::move(regional).value();
    home.has_regional = true;
    // Vote weight counts only the models that actually entered the merge.
    home.weight = static_cast<double>(locals.size());
  }
}

std::vector<Cempar::PredictVote> Cempar::EvaluateHomes(
    NodeId owner, const std::vector<std::size_t>& home_list,
    const SparseVector& x) {
  std::vector<PredictVote> partials;
  // A vote-spam super-peer answers every queried tag with a huge
  // constant score under an inflated weight — the classic
  // drown-the-honest-votes attack the requester-side gate exists for.
  const AdversaryDirectory* adv = net_.adversaries();
  const bool spam = adv != nullptr && adv->BehaviorAt(owner, sim_.Now()) ==
                                          AdversaryBehavior::kVoteSpam;
  for (std::size_t h : home_list) {
    const Home& home = homes_[h];
    if (home.owner != owner || !home.has_regional) continue;
    TagId tag = static_cast<TagId>(h / options_.regions_per_tag);
    if (spam) {
      partials.push_back({tag, 1.0e9, 1.0e3});
    } else {
      partials.push_back({tag, home.regional.Decision(x), home.weight});
    }
  }
  if (Tracer* tracer = net_.tracer()) {
    // Runs inside the request message's delivery, so the marker lands
    // in the prediction's trace at the super-peer.
    tracer->Instant("super_peer_vote", sim_.Now(), owner, tracer->current());
  }
  return partials;
}

void Cempar::EnqueueBatch(NodeId requester, NodeId owner, BatchMember member) {
  const auto key = std::make_pair(requester, owner);
  PendingBatch& batch = batches_[key];
  batch.members.push_back(std::move(member));
  if (batch.members.size() == 1) {
    batch.generation = ++batch_generation_;
    const uint64_t gen = batch.generation;
    // First member opens the window; companions queued before it closes
    // ride the same round-trip.
    sim_.Schedule(options_.batch_window_seconds, [this, key, gen] {
      auto it = batches_.find(key);
      if (it == batches_.end() || it->second.generation != gen) return;
      FlushBatch(key.first, key.second);
    });
  } else if (batch.members.size() >= options_.max_batch) {
    FlushBatch(requester, owner);
  }
}

void Cempar::FlushBatch(NodeId requester, NodeId owner) {
  auto it = batches_.find(std::make_pair(requester, owner));
  if (it == batches_.end()) return;
  auto members =
      std::make_shared<std::vector<BatchMember>>(std::move(it->second.members));
  batches_.erase(it);
  std::size_t request_bytes = 0;
  for (const BatchMember& m : *members) request_bytes += RequestBytes(m.x);
  if (MetricsRegistry* metrics = net_.metrics()) {
    static const std::vector<double> kBatchBounds = {1,  2,  3,  4,  6,
                                                     8,  12, 16, 24, 32};
    metrics->GetHistogram("batch_size", {{"classifier", "cempar"}},
                          kBatchBounds)
        .Observe(static_cast<double>(members->size()));
  }
  // One coalesced round-trip: the batch pays a single admission charge and
  // a single ACK exchange for every member.
  transport_->SendReliable(
      requester, owner, request_bytes, MessageType::kPredictionRequest,
      /*on_deliver=*/
      [this, owner, requester, members] {
        auto all =
            std::make_shared<std::vector<std::vector<PredictVote>>>();
        std::size_t response_bytes = 0;
        all->reserve(members->size());
        for (const BatchMember& m : *members) {
          all->push_back(EvaluateHomes(owner, m.home_list, m.x));
          response_bytes += ResponseBytes(all->back().size());
        }
        transport_->SendReliable(
            owner, requester, response_bytes, MessageType::kPredictionResponse,
            /*on_deliver=*/
            [members, all] {
              for (std::size_t i = 0; i < members->size(); ++i) {
                (*members)[i].deliver((*all)[i]);
              }
            },
            /*on_acked=*/nullptr,
            /*on_give_up=*/
            [members] {
              for (const BatchMember& m : *members) m.fail();
            });
      },
      /*on_acked=*/nullptr,
      /*on_give_up=*/
      [members] {
        for (const BatchMember& m : *members) m.fail();
      });
}

void Cempar::Predict(NodeId requester, const SparseVector& x,
                     std::function<void(P2PPrediction)> done) {
  if (!trained_ || requester >= peer_data_.size() ||
      !net_.IsOnline(requester)) {
    sim_.Schedule(0.0, [done = std::move(done)] {
      done({{}, {}, false});
    });
    return;
  }

  // Requester-side versioned cache: a hit answers instantly with zero
  // network traffic and zero super-peer load — how a flash crowd on a hot
  // document set is absorbed before it reaches the serving queues.
  if (cache_ != nullptr) {
    PredictionCache& cache = cache_->ForNode(requester);
    const uint64_t key = FingerprintVector(x);
    CacheOutcome oc = CacheOutcome::kMiss;
    const P2PPrediction* hit =
        cache.Lookup(key, publish_epoch_, sim_.Now(), &oc);
    if (MetricsRegistry* metrics = net_.metrics()) {
      const char* family = oc == CacheOutcome::kHit     ? "cache_hits"
                           : oc == CacheOutcome::kStale ? "cache_stale"
                                                        : "cache_misses";
      metrics->GetCounter(family, {{"classifier", "cempar"}}).Increment();
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

  struct PredictCtx {
    using Vote = PredictVote;
    /// Every vote in arrival order. Aggregation happens at finalize so the
    /// requester can gate and trim; surviving votes are summed in exactly
    /// this order, which keeps clean runs bit-identical to the old
    /// accumulate-on-arrival code.
    std::vector<Vote> votes;
    std::vector<double> weight_sum;
    std::vector<double> score_sum;
    std::size_t remaining = 0;
    std::size_t responded = 0;
    /// Request groups shed by admission control (fire-and-forget or local
    /// path; the reliable path surfaces sheds as overload give-ups).
    std::size_t shed = 0;
    std::function<void(P2PPrediction)> done;
    /// End-to-end prediction span; lookups, requests and responses all
    /// nest under it (or under its descendants).
    TraceContext span;
    SimTime started = 0.0;
  };
  auto ctx = std::make_shared<PredictCtx>();
  ctx->weight_sum.assign(num_tags_, 0.0);
  ctx->score_sum.assign(num_tags_, 0.0);
  ctx->done = std::move(done);
  ctx->started = sim_.Now();
  if (Tracer* tracer = net_.tracer()) {
    ctx->span = tracer->StartAuto("cempar/predict", sim_.Now(), requester);
    tracer->AddArg(ctx->span, "requester", std::to_string(requester));
  }

  auto finalize_one = [this, ctx, requester, x] {
    if (--ctx->remaining > 0) return;
    P2PPrediction out;
    out.scores.assign(num_tags_, 0.0);
    PhaseScope profile("vote");
    Stopwatch vote_wall;
    // Requester-side robust voting. Two layers, both inert on honest
    // traffic: (1) the sanitation gate drops non-finite or absurdly large
    // scores (the vote-spam signature), (2) with reputation on, a per-tag
    // median trim drops outliers that stayed under the magnitude bound.
    std::vector<char> keep(ctx->votes.size(), 1);
    uint64_t discarded = 0;
    if (options_.sanitize.enabled) {
      for (std::size_t i = 0; i < ctx->votes.size(); ++i) {
        const PredictCtx::Vote& v = ctx->votes[i];
        if (!std::isfinite(v.score) || !std::isfinite(v.weight) ||
            std::fabs(v.score) > options_.sanitize.max_abs_value ||
            v.weight < 0.0 || v.weight > options_.sanitize.max_abs_value) {
          keep[i] = 0;
          ++discarded;
        }
      }
    }
    if (reputation_ != nullptr && !ctx->votes.empty()) {
      std::vector<std::vector<double>> per_tag(num_tags_);
      for (std::size_t i = 0; i < ctx->votes.size(); ++i) {
        if (keep[i] != 0 && ctx->votes[i].tag < num_tags_) {
          per_tag[ctx->votes[i].tag].push_back(ctx->votes[i].score);
        }
      }
      std::vector<double> median(num_tags_, 0.0);
      std::vector<char> trimmable(num_tags_, 0);
      for (TagId t = 0; t < num_tags_; ++t) {
        if (per_tag[t].size() < 3) continue;  // no majority to trim against
        std::sort(per_tag[t].begin(), per_tag[t].end());
        median[t] = per_tag[t][per_tag[t].size() / 2];
        trimmable[t] = 1;
      }
      for (std::size_t i = 0; i < ctx->votes.size(); ++i) {
        const PredictCtx::Vote& v = ctx->votes[i];
        if (keep[i] == 0 || v.tag >= num_tags_ || trimmable[v.tag] == 0) {
          continue;
        }
        if (std::fabs(v.score - median[v.tag]) >
            options_.vote_outlier_threshold) {
          keep[i] = 0;
          ++discarded;
        }
      }
    }
    if (discarded > 0) {
      votes_discarded_ += discarded;
      if (MetricsRegistry* metrics = net_.metrics()) {
        metrics
            ->GetCounter("votes_discarded", {{"classifier", "cempar"}})
            .Increment(discarded);
      }
    }
    for (std::size_t i = 0; i < ctx->votes.size(); ++i) {
      const PredictCtx::Vote& v = ctx->votes[i];
      if (keep[i] == 0 || v.tag >= num_tags_) continue;
      ctx->score_sum[v.tag] += v.weight * v.score;
      ctx->weight_sum[v.tag] += v.weight;
    }
    for (TagId t = 0; t < num_tags_; ++t) {
      if (ctx->weight_sum[t] > 0.0) {
        out.scores[t] = ctx->score_sum[t] / ctx->weight_sum[t];
      }
    }
    out.success = ctx->responded > 0;
    if (!out.success && transport_ != nullptr &&
        LocalScores(requester, x, out.scores)) {
      // Every remote path exhausted its retry budget: degrade to the
      // requester's own local models rather than failing outright.
      out.success = true;
      out.degraded = true;
    }
    out.tags = out.success ? DecideTags(out.scores, options_.policy)
                           : std::vector<TagId>{};
    if (MetricsRegistry* metrics = net_.metrics()) {
      PhaseHistogram(metrics, "vote")->Observe(vote_wall.ElapsedSeconds());
      PhaseHistogram(metrics, "predict")
          ->Observe(sim_.Now() - ctx->started);
      metrics
          ->GetCounter("predictions",
                       {{"classifier", "cempar"},
                        {"outcome", !out.success  ? "failed"
                                    : out.degraded ? "degraded"
                                                   : "ok"}})
          .Increment();
    }
    if (Tracer* tracer = net_.tracer()) {
      tracer->AddArg(ctx->span, "responded", std::to_string(ctx->responded));
      tracer->AddArg(ctx->span, "success", out.success ? "true" : "false");
      if (out.degraded) tracer->AddArg(ctx->span, "degraded", "true");
      tracer->EndSpan(ctx->span, sim_.Now());
    }
    // The typed overload reject: nothing answered and at least one group
    // was shed — the caller may retry with backoff rather than treat this
    // as a reachability failure.
    if (!out.success && ctx->shed > 0) out.overloaded = true;
    if (cache_ != nullptr && out.success && !out.degraded) {
      cache_->ForNode(requester)
          .Insert(FingerprintVector(x), publish_epoch_, sim_.Now(), out);
    }
    ctx->done(std::move(out));
  };

  // Resolve the owner of every home (from cache when allowed), then group
  // homes by owner so the document vector travels once per super-peer.
  struct Resolution {
    std::vector<std::pair<std::size_t, NodeId>> resolved;  // (home, owner)
    std::size_t outstanding = 0;
  };
  auto res = std::make_shared<Resolution>();

  auto dispatch = [this, ctx, requester, x, finalize_one](
                      const std::vector<std::pair<std::size_t, NodeId>>&
                          resolved) {
    // Group home indexes by owner.
    std::map<NodeId, std::vector<std::size_t>> groups;
    for (const auto& [h, owner] : resolved) {
      if (owner == kInvalidNode) continue;
      groups[owner].push_back(h);
    }
    if (groups.empty()) {
      ++ctx->remaining;
      sim_.Schedule(0.0, finalize_one);
      return;
    }
    ctx->remaining = groups.size();
    for (const auto& [owner, home_list] : groups) {
      if (owner == requester) {
        // Local super-peer: evaluate without network traffic — but the
        // evaluation itself still occupies the serving queue.
        double local_delay = 0.0;
        if (serve_ != nullptr) {
          Admission a = AdmitServe(owner);
          if (a.outcome != AdmitOutcome::kAccept) {
            ++ctx->shed;
            sim_.Schedule(0.0, finalize_one);
            continue;
          }
          local_delay = a.delay;
        }
        // (A vote-spam requester poisons its own request too — the
        // behavior belongs to the responding super-peer, whoever that is.)
        sim_.Schedule(local_delay,
                      [this, ctx, owner, home_list, x, finalize_one] {
          const AdversaryDirectory* adv = net_.adversaries();
          const bool spam =
              adv != nullptr && adv->BehaviorAt(owner, sim_.Now()) ==
                                    AdversaryBehavior::kVoteSpam;
          for (std::size_t h : home_list) {
            const Home& home = homes_[h];
            if (home.owner != owner || !home.has_regional) continue;
            TagId tag =
                static_cast<TagId>(h / options_.regions_per_tag);
            if (spam) {
              ctx->votes.push_back({tag, 1.0e9, 1.0e3});
            } else {
              ctx->votes.push_back(
                  {tag, home.regional.Decision(x), home.weight});
            }
          }
          ++ctx->responded;
          finalize_one();
        });
        continue;
      }
      // Super-peer evaluates all queried homes it actually hosts.
      auto evaluate = [this, owner, home_list, x] {
        return std::make_shared<std::vector<PredictCtx::Vote>>(
            EvaluateHomes(owner, home_list, x));
      };
      auto accumulate =
          [ctx](std::shared_ptr<std::vector<PredictCtx::Vote>> partials) {
            for (const auto& p : *partials) ctx->votes.push_back(p);
            ++ctx->responded;
          };
      auto invalidate = [this, requester, home_list] {
        // Request lost: invalidate cached owners so the next prediction
        // re-resolves through the DHT.
        if (options_.cache_super_peer_lookups) {
          for (std::size_t h : home_list) {
            owner_cache_[requester].erase(h);
          }
        }
      };
      if (transport_ && options_.batch_predictions) {
        // Batched reliable path: park this group in the (requester, owner)
        // batch; the flush sends one coalesced round-trip for every member.
        auto settle = [finalize_one,
                       flag = std::make_shared<bool>(false)]() mutable {
          if (*flag) return;
          *flag = true;
          finalize_one();
        };
        BatchMember m;
        m.x = x;
        m.home_list = home_list;
        m.deliver = [ctx,
                     settle](const std::vector<PredictVote>& partials) mutable {
          for (const auto& p : partials) ctx->votes.push_back(p);
          ++ctx->responded;
          settle();
        };
        m.fail = [invalidate, settle]() mutable {
          invalidate();
          settle();
        };
        EnqueueBatch(requester, owner, std::move(m));
        continue;
      }
      if (transport_) {
        // Reliable path. A group can settle through several routes
        // (response delivered, response given up at the responder, request
        // given up after the data still slipped through) — the flag makes
        // the group's finalize idempotent.
        auto settle = [finalize_one,
                       flag = std::make_shared<bool>(false)]() mutable {
          if (*flag) return;
          *flag = true;
          finalize_one();
        };
        transport_->SendReliable(
            requester, owner, RequestBytes(x), MessageType::kPredictionRequest,
            /*on_deliver=*/
            [this, owner, requester, evaluate, accumulate, settle] {
              auto partials = evaluate();
              transport_->SendReliable(
                  owner, requester, ResponseBytes(partials->size()),
                  MessageType::kPredictionResponse,
                  /*on_deliver=*/
                  [accumulate, partials, settle]() mutable {
                    accumulate(partials);
                    settle();
                  },
                  /*on_acked=*/nullptr,
                  /*on_give_up=*/settle);
            },
            /*on_acked=*/nullptr,
            /*on_give_up=*/
            [invalidate, settle]() mutable {
              invalidate();
              settle();
            });
        continue;
      }
      net_.Send(
          requester, owner, RequestBytes(x), MessageType::kPredictionRequest,
          [this, ctx, owner, requester, evaluate, accumulate, finalize_one] {
            // Fire-and-forget admission: a shed request simply never gets
            // a response (the sender cannot be NACKed without a reliable
            // channel), so the requester's group finalizes empty.
            double serve_delay = 0.0;
            if (serve_ != nullptr) {
              Admission a = AdmitServe(owner);
              if (a.outcome != AdmitOutcome::kAccept) {
                net_.stats().RecordDrop(MessageType::kPredictionRequest,
                                        DropReason::kOverloadShed);
                ++ctx->shed;
                finalize_one();
                return;
              }
              serve_delay = a.delay;
            }
            auto respond = [this, owner, requester, evaluate, accumulate,
                            finalize_one] {
              auto partials = evaluate();
              net_.Send(
                  owner, requester, ResponseBytes(partials->size()),
                  MessageType::kPredictionResponse,
                  [accumulate, partials, finalize_one] {
                    accumulate(partials);
                    finalize_one();
                  },
                  finalize_one);
            };
            if (serve_delay > 0.0) {
              sim_.Schedule(serve_delay, respond);
            } else {
              respond();
            }
          },
          [invalidate, finalize_one] {
            invalidate();
            finalize_one();
          });
    }
  };

  // Resolution phase — issued under the prediction span, so every DHT
  // lookup (and the request/response traffic its continuation sends) stays
  // in the prediction's trace.
  ScopedTraceContext predict_scope(net_.tracer(), ctx->span);
  res->outstanding = 1;  // root token
  auto res_done = std::make_shared<std::function<void()>>();
  *res_done = [res, dispatch]() {
    if (--res->outstanding > 0) return;
    dispatch(res->resolved);
  };
  for (std::size_t h = 0; h < homes_.size(); ++h) {
    auto& cache = owner_cache_[requester];
    auto it = cache.find(h);
    if (options_.cache_super_peer_lookups && it != cache.end()) {
      res->resolved.emplace_back(h, it->second);
      continue;
    }
    ++res->outstanding;
    TagId tag = static_cast<TagId>(h / options_.regions_per_tag);
    std::size_t region = h % options_.regions_per_tag;
    chord_.Lookup(requester, HomeKey(tag, region),
                  [this, requester, h, res, res_done](
                      ChordOverlay::LookupResult lr) {
      if (lr.success) {
        res->resolved.emplace_back(h, lr.owner);
        if (options_.cache_super_peer_lookups) {
          owner_cache_[requester][h] = lr.owner;
        }
      }
      (*res_done)();
    });
  }
  (*res_done)();  // consume the root token
}

void Cempar::RepairRound(std::function<void()> on_complete) {
  // Detect dead homes: collection point offline (or never established).
  std::vector<bool> stale(homes_.size(), false);
  for (std::size_t h = 0; h < homes_.size(); ++h) {
    Home& home = homes_[h];
    bool dead = home.owner == kInvalidNode || !net_.IsOnline(home.owner);
    if (dead && home.standby_ready && home.standby != kInvalidNode &&
        net_.IsOnline(home.standby)) {
      // A live standby holds the replica: promote it instead of
      // discarding the cascade and forcing a full re-upload.
      home.owner = home.standby;
      home.standby = kInvalidNode;
      home.standby_ready = false;
      dead = false;
    }
    if (dead) {
      stale[h] = true;
      // Models held at the dead node are gone.
      home.locals.clear();
      home.local_versions.clear();
      home.has_regional = false;
      home.weight = 0.0;
      home.owner = kInvalidNode;
      home.standby = kInvalidNode;
      home.standby_ready = false;
    }
  }

  auto pending = std::make_shared<std::size_t>(1);
  auto barrier = std::make_shared<std::function<void()>>();
  *barrier = [this, pending, on_complete = std::move(on_complete)] {
    if (--*pending > 0) return;
    CascadeAll();
    ReplicateRegionals();
    on_complete();
  };

  for (NodeId peer = 0; peer < local_models_.size(); ++peer) {
    if (!net_.IsOnline(peer)) continue;
    for (const auto& [h, model] : local_models_[peer]) {
      if (!stale[h]) continue;
      TagId tag = static_cast<TagId>(h / options_.regions_per_tag);
      std::size_t region = h % options_.regions_per_tag;
      owner_cache_[peer].erase(h);
      ++*pending;
      UploadModel(peer, tag, region, model, model_version_[peer], barrier);
    }
  }
  (*barrier)();
}

std::size_t Cempar::NumLiveHomes() const {
  std::size_t live = 0;
  for (const Home& home : homes_) {
    if (home.has_regional && home.owner != kInvalidNode &&
        net_.IsOnline(home.owner)) {
      ++live;
    }
  }
  return live;
}

std::vector<NodeId> Cempar::HomeOwners() const {
  std::vector<NodeId> owners;
  owners.reserve(homes_.size());
  for (const Home& home : homes_) owners.push_back(home.owner);
  return owners;
}

std::size_t Cempar::TotalRegionalSupportVectors() const {
  std::size_t total = 0;
  for (const Home& home : homes_) {
    if (home.has_regional) total += home.regional.num_support_vectors();
  }
  return total;
}

std::size_t Cempar::NumReplicatedHomes() const {
  std::size_t count = 0;
  for (const Home& home : homes_) {
    if (home.standby_ready) ++count;
  }
  return count;
}

void Cempar::ReplicateHome(std::size_t h) {
  Home& home = homes_[h];
  if (!home.has_regional || home.owner == kInvalidNode) return;
  // Standby = the owner's first live successor on the ring — the node that
  // would inherit the home's key range if the owner vanished.
  NodeId standby = kInvalidNode;
  for (NodeId succ : chord_.SuccessorsOf(home.owner)) {
    if (succ != home.owner && net_.IsOnline(succ)) {
      standby = succ;
      break;
    }
  }
  if (standby == kInvalidNode) return;
  if (home.standby == standby && home.standby_ready) return;
  home.standby = standby;
  home.standby_ready = false;
  const std::size_t bytes = home.regional.WireSize() + 16;
  // The replica snapshot only becomes usable once it is *delivered*;
  // promotion checks standby_ready.
  auto install = [this, h, standby] {
    if (homes_[h].standby == standby) homes_[h].standby_ready = true;
  };
  if (transport_) {
    transport_->SendReliable(home.owner, standby, bytes,
                             MessageType::kModelReplicate, std::move(install));
  } else {
    net_.Send(home.owner, standby, bytes, MessageType::kModelReplicate,
              std::move(install));
  }
}

void Cempar::ReplicateRegionals() {
  if (transport_ == nullptr || !options_.replicate_regional_models) return;
  for (std::size_t h = 0; h < homes_.size(); ++h) ReplicateHome(h);
}

void Cempar::OnSuspect(NodeId suspect) {
  // Cached resolutions pointing at the suspect are poison: drop them so
  // the next prediction re-resolves through the DHT.
  for (auto& cache : owner_cache_) {
    for (auto it = cache.begin(); it != cache.end();) {
      it = it->second == suspect ? cache.erase(it) : std::next(it);
    }
  }
  if (!options_.replicate_regional_models) return;
  for (std::size_t h = 0; h < homes_.size(); ++h) {
    Home& home = homes_[h];
    if (home.owner != suspect) continue;
    if (!home.standby_ready || home.standby == kInvalidNode ||
        !net_.IsOnline(home.standby)) {
      continue;  // no usable replica; RepairRound can rebuild later
    }
    home.owner = home.standby;
    home.standby = kInvalidNode;
    home.standby_ready = false;
    // Restore the replication invariant under the new primary.
    ReplicateHome(h);
  }
}

Result<std::string> Cempar::Snapshot(NodeId peer) const {
  if (peer >= local_models_.size()) {
    return Status::InvalidArgument("snapshot of unknown peer " +
                                   std::to_string(peer));
  }
  std::string out;
  wire::PutU8(kCemparSnapshotVersion, out);
  wire::PutU32(num_tags_, out);
  wire::PutU32(static_cast<uint32_t>(options_.regions_per_tag), out);
  wire::PutU32(static_cast<uint32_t>(local_models_[peer].size()), out);
  for (const auto& [home, model] : local_models_[peer]) {
    wire::PutU64(home, out);
    wire::PutBytes(SerializeKernelSvm(model), out);
  }
  return out;
}

Status Cempar::Restore(NodeId peer, const std::string& blob) {
  if (peer >= local_models_.size()) {
    return Status::InvalidArgument("restore of unknown peer " +
                                   std::to_string(peer));
  }
  std::size_t offset = 0;
  Result<uint8_t> version = wire::GetU8(blob, offset);
  if (!version.ok()) return version.status();
  if (version.value() != kCemparSnapshotVersion) {
    return Status::InvalidArgument("unsupported cempar snapshot version " +
                                   std::to_string(version.value()));
  }
  Result<uint32_t> num_tags = wire::GetU32(blob, offset);
  if (!num_tags.ok()) return num_tags.status();
  Result<uint32_t> regions = wire::GetU32(blob, offset);
  if (!regions.ok()) return regions.status();
  if (num_tags.value() != num_tags_ ||
      regions.value() != options_.regions_per_tag) {
    return Status::InvalidArgument(
        "cempar snapshot was taken under a different configuration");
  }
  Result<uint32_t> count = wire::GetU32(blob, offset);
  if (!count.ok()) return count.status();
  // Every entry needs at least a home id (8) and a length prefix (4); a
  // count that cannot fit in the remaining bytes is a corrupted or hostile
  // length field — reject before looping, not after allocating.
  if (count.value() > (blob.size() - offset) / 12) {
    return Status::DataLoss("cempar snapshot model count exceeds buffer");
  }
  std::map<std::size_t, KernelSvmModel> restored;
  for (uint32_t i = 0; i < count.value(); ++i) {
    Result<uint64_t> home = wire::GetU64(blob, offset);
    if (!home.ok()) return home.status();
    if (home.value() >= homes_.size()) {
      return Status::InvalidArgument("cempar snapshot references home " +
                                     std::to_string(home.value()) +
                                     " out of " +
                                     std::to_string(homes_.size()));
    }
    Result<std::string> bytes = wire::GetBytes(blob, offset);
    if (!bytes.ok()) return bytes.status();
    Result<KernelSvmModel> model = DeserializeKernelSvm(bytes.value());
    if (!model.ok()) return model.status();
    if (options_.sanitize.enabled) {
      // A checkpoint is an ingestion point like any other: a tampered blob
      // that parses cleanly must still pass content sanitation.
      ModelRejectReason reason =
          SanitizeKernelModel(model.value(), options_.sanitize);
      if (reason != ModelRejectReason::kNone) {
        RecordRejected(reason);
        return RejectedModelStatus(reason);
      }
    }
    restored.emplace(static_cast<std::size_t>(home.value()),
                     std::move(model).value());
  }
  if (offset != blob.size()) {
    return Status::InvalidArgument("trailing bytes after cempar snapshot");
  }
  // Commit only after the whole blob parsed: restore is all-or-nothing.
  local_models_[peer] = std::move(restored);
  BumpPublishEpoch();
  return Status::OK();
}

void Cempar::EvictPeer(NodeId peer) {
  if (peer >= local_models_.size()) return;
  local_models_[peer].clear();
  owner_cache_[peer].clear();
  BumpPublishEpoch();
}

std::size_t Cempar::ColdRestart(NodeId peer) {
  if (peer >= peer_data_.size()) return 0;
  local_models_[peer].clear();
  owner_cache_[peer].clear();
  BumpPublishEpoch();
  const DatasetShard& data = peer_data_[peer];
  if (data.empty()) return 0;
  std::vector<std::size_t> counts = data.TagCounts();
  const std::size_t region = peer % options_.regions_per_tag;
  std::size_t examples_refit = 0;
  for (TagId tag = 0; tag < num_tags_; ++tag) {
    if (tag >= counts.size() || counts[tag] == 0) continue;
    // Same trainer, same data, same options as the original fit: SMO is
    // deterministic, so the recovered models are bit-identical and only
    // the work is different from a warm restore.
    Result<KernelSvmModel> model =
        TrainKernelSvm(data.OneAgainstAll(tag), options_.svm);
    if (!model.ok()) {
      P2PDT_LOG(Warning) << "peer " << peer << " tag " << tag
                         << " cold-restart SVM failed: "
                         << model.status().ToString();
      continue;
    }
    local_models_[peer].emplace(HomeIndex(tag, region),
                                std::move(model).value());
    examples_refit += data.size();
  }
  return examples_refit;
}

void Cempar::ResyncPeer(NodeId peer, std::function<void()> done) {
  (void)peer;  // RepairRound already sweeps every stale home network-wide.
  RepairRound(std::move(done));
}

Status Cempar::ReplacePeerData(NodeId peer, DatasetShard window) {
  if (peer >= peer_data_.size()) {
    return Status::InvalidArgument("replace data of unknown peer " +
                                   std::to_string(peer));
  }
  window.set_num_tags(num_tags_);
  peer_data_[peer] = std::move(window);
  if (reputation_ != nullptr) {
    // Trust scoring cross-validates against the peer's current window, so
    // refreshed contributors are judged on the data regime they now model.
    reputation_->SetHoldout(peer, peer_data_[peer]);
  }
  return Status::OK();
}

void Cempar::RefreshPeer(NodeId peer, std::function<void()> done) {
  if (peer >= peer_data_.size() || !net_.IsOnline(peer) ||
      peer_data_[peer].empty()) {
    sim_.Schedule(0.0, std::move(done));
    return;
  }
  // One publish version for the whole refreshed grid: every per-tag local
  // re-uploaded below carries it, so a home can tell this refresh from the
  // superseded fit no matter which copies (or retransmissions) arrive when.
  const uint32_t version = ++model_version_[peer];
  // The version bump invalidates cached predictions immediately, before
  // any re-upload lands (the coherence rule: never serve across a bump).
  BumpPublishEpoch();
  Stopwatch refresh_wall;
  local_models_[peer].clear();
  const DatasetShard& data = peer_data_[peer];
  std::vector<std::size_t> counts = data.TagCounts();
  const std::size_t region = peer % options_.regions_per_tag;
  for (TagId tag = 0; tag < num_tags_; ++tag) {
    if (tag >= counts.size() || counts[tag] == 0) continue;
    Result<KernelSvmModel> model =
        TrainKernelSvm(data.OneAgainstAll(tag), options_.svm);
    if (!model.ok()) {
      P2PDT_LOG(Warning) << "peer " << peer << " tag " << tag
                         << " refresh SVM failed: "
                         << model.status().ToString();
      continue;
    }
    local_models_[peer].emplace(HomeIndex(tag, region),
                                std::move(model).value());
  }
  if (Histogram* hist = PhaseHistogram(net_.metrics(), "model_refresh")) {
    hist->Observe(refresh_wall.ElapsedSeconds());
  }

  // Re-upload through the normal (possibly reliable) upload path; each
  // home's version-guarded intake evicts the stored old-version local and
  // re-cascades once the traffic quiesces — same barrier shape as Train.
  auto pending = std::make_shared<std::size_t>(1);
  auto barrier = std::make_shared<std::function<void()>>();
  *barrier = [this, pending, done = std::move(done)] {
    if (--*pending > 0) return;
    CascadeAll();
    ReplicateRegionals();
    done();
  };
  for (const auto& [h, model] : local_models_[peer]) {
    TagId tag = static_cast<TagId>(h / options_.regions_per_tag);
    std::size_t home_region = h % options_.regions_per_tag;
    ++*pending;
    UploadModel(peer, tag, home_region, model, version, barrier);
  }
  sim_.Schedule(0.0, [barrier] { (*barrier)(); });  // consume root token
}

uint64_t Cempar::ModelVersion(NodeId peer) const {
  return peer < model_version_.size() ? model_version_[peer] : 0;
}

bool Cempar::LocalScores(NodeId peer, const SparseVector& x,
                         std::vector<double>& scores) const {
  if (peer >= local_models_.size() || local_models_[peer].empty()) {
    return false;
  }
  scores.assign(num_tags_, 0.0);
  std::vector<double> weight(num_tags_, 0.0);
  for (const auto& [h, model] : local_models_[peer]) {
    TagId tag = static_cast<TagId>(h / options_.regions_per_tag);
    scores[tag] += model.Decision(x);
    weight[tag] += 1.0;
  }
  for (TagId t = 0; t < num_tags_; ++t) {
    if (weight[t] > 0.0) scores[t] /= weight[t];
  }
  return true;
}

}  // namespace p2pdt

