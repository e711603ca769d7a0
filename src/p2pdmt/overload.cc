#include "p2pdmt/overload.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/fnv.h"

namespace p2pdt {

Result<OverloadRunStats> RunOverloadExperiment(
    const VectorizedCorpus& corpus, const OverloadExperimentOptions& options) {
  P2PDT_RETURN_IF_ERROR(RejectUnusedOptions(options.experiment, "overload",
                                            /*splits_corpus=*/true));
  ExperimentOptions experiment = options.experiment;
  experiment.env.observe.metrics = true;  // the SLO histogram lives here
  Result<StoodUpNetwork> stood_up = StandUpNetwork(corpus, experiment);
  if (!stood_up.ok()) return stood_up.status();
  if (stood_up->train_documents == 0 || stood_up->test.size() == 0) {
    return Status::InvalidArgument(
        "overload harness needs non-empty train and test splits");
  }
  Environment& env = *stood_up->network.env;
  P2PClassifier& algo = *stood_up->network.algo;

  OverloadRunStats stats;
  Result<double> train_sim_seconds =
      TrainToQuiescence(env, algo, experiment.max_train_sim_seconds);
  if (!train_sim_seconds.ok()) return train_sim_seconds.status();
  stats.train_sim_seconds = train_sim_seconds.value();

  // Request catalog in popularity order. The stood-up test split must stay
  // alive until the generator finishes — docs are views.
  const std::vector<const SparseVector*> docs =
      RequestCatalog(stood_up->test, options.max_docs);
  const std::size_t num_peers = experiment.env.num_peers;
  std::vector<NodeId> requesters(num_peers);
  for (std::size_t p = 0; p < num_peers; ++p) requesters[p] = p;

  if (options.loadgen.enabled) {
    SessionLoadGenerator gen(env.sim(), algo, options.loadgen, docs,
                             requesters, *env.metrics());
    bool load_done = false;
    gen.Run([&](const LoadGenResult& r) {
      stats.load = r;
      load_done = true;
    });
    env.RunUntilFlag(load_done, options.max_load_sim_seconds);
    if (!load_done) {
      return Status::Internal("overload harness: load did not quiesce");
    }
  } else {
    // Disarmed bit-identity witness: a short sequential prediction pass
    // fingerprinting only the answers. Idle overload machinery (queues
    // with no contention, an empty cache) must not change a single bit.
    Fnv64 digest;
    const std::size_t n = std::min<std::size_t>(40, docs.size());
    for (std::size_t i = 0; i < n; ++i) {
      bool done = false;
      P2PPrediction pred;
      algo.Predict(requesters[i % requesters.size()], *docs[i],
                   [&](P2PPrediction p) {
                     pred = std::move(p);
                     done = true;
                   });
      env.RunUntilFlag(done, options.max_load_sim_seconds);
      if (!done) {
        return Status::Internal("overload harness: eval did not quiesce");
      }
      digest.Mix(pred.success ? 1 : 0);
      digest.Mix(pred.tags.size());
      for (TagId t : pred.tags) digest.Mix(static_cast<uint64_t>(t));
      for (double s : pred.scores) digest.MixDouble(s);
      ++stats.load.offered;
      ++stats.load.completed;
      if (pred.success) {
        ++stats.load.ok;
      } else {
        ++stats.load.failed;
      }
    }
    stats.load.fingerprint = digest.state;
  }

  const ProtocolInternals internals = InternalsOf(algo);
  if (internals.serve_queue != nullptr) {
    stats.requests_shed = internals.serve_queue->shed();
  }
  if (internals.predict_cache != nullptr) {
    stats.cache_hits = internals.predict_cache->hits();
    stats.cache_misses = internals.predict_cache->misses();
    stats.cache_stale = internals.predict_cache->stale();
  }
  const NetworkStats& net_stats = env.net().stats();
  stats.give_ups = net_stats.give_ups();
  stats.overload_drops = net_stats.dropped(DropReason::kOverloadShed);
  return stats;
}

std::string OverloadPoint::Name() const {
  std::ostringstream name;
  name << AlgorithmTypeToString(options.experiment.algorithm)
       << " arm=" << arm << " burst=" << burst
       << " rate=" << arrival_rate();
  return name.str();
}

namespace {

/// Steady-state serving capacity over offered rate in every arm. Well above
/// 1 the steady arm is healthy (service time is a small fraction of the
/// SLO, so off-burst requests land within it even undefended); the flash
/// multiplier then drives offered past capacity and only the defended arm
/// keeps its goodput.
constexpr double kCapacityHeadroom = 4.0;

/// Applies one arm's configuration: serving capacity always on (finite
/// machines are the physical reality both arms share); the defended arm
/// adds admission control + load shedding, the prediction cache, CEMPaR
/// request batching and the reliable transport's typed overload path.
void ConfigureArm(OverloadExperimentOptions& opt, const std::string& arm,
                  double arrival_rate) {
  ExperimentOptions& experiment = opt.experiment;
  const double sessions = static_cast<double>(
      std::max<std::size_t>(opt.loadgen.sessions, 1));
  const double peers = static_cast<double>(
      std::max<std::size_t>(experiment.env.num_peers, 1));
  const double per_session_rate = arrival_rate / sessions;
  const double sessions_per_peer = std::max(1.0, sessions / peers);
  // PACE serves predictions at the requester itself, so its budget is
  // per session. CEMPaR concentrates requests on the documents' home
  // super-peers; Zipf popularity puts most of the load on a handful of
  // owners, so budget as if ~4 of them carry the aggregate rate.
  const double pace_rate =
      kCapacityHeadroom * per_session_rate * sessions_per_peer;
  const double cempar_rate = kCapacityHeadroom * arrival_rate / 4.0;

  const bool defended = arm == "defended";
  auto configure = [&](ServeOptions& serve, double rate) {
    serve.enabled = true;
    serve.service_rate = rate;
    serve.admission_control = defended;
    serve.max_wait = 0.5 * opt.loadgen.slo_latency;
    serve.retry_after = 0.25 * opt.loadgen.slo_latency;
  };
  configure(experiment.pace.serve, pace_rate);
  configure(experiment.cempar.serve, cempar_rate);

  experiment.pace.predict_cache.enabled = defended;
  experiment.cempar.predict_cache.enabled = defended;
  experiment.cempar.batch_predictions = defended;
  if (defended) {
    experiment.cempar.reliable_transport = true;  // typed overload NACK path
  }
}

}  // namespace

std::vector<OverloadPoint> OverloadGrid(
    const OverloadExperimentOptions& base,
    const std::vector<double>& arrival_rates, double burst_multiplier) {
  std::vector<OverloadPoint> points;
  const std::vector<std::string> arms = {"undefended", "defended"};
  const std::vector<std::string> bursts = {"none", "flash"};
  const double first_rate =
      arrival_rates.empty() ? 40.0 : arrival_rates.front();

  for (AlgorithmType algorithm :
       {AlgorithmType::kPace, AlgorithmType::kCempar}) {
    // Disarmed bit-identity pair: both arm configurations with the load
    // generator off. The checker asserts their fingerprints match — idle
    // overload machinery changes no prediction.
    for (const std::string& arm : arms) {
      OverloadPoint point{base, arm, "disarmed"};
      point.options.experiment.algorithm = algorithm;
      point.options.loadgen.enabled = false;
      ConfigureArm(point.options, arm, first_rate);
      points.push_back(std::move(point));
    }

    for (double rate : arrival_rates) {
      for (const std::string& burst : bursts) {
        for (const std::string& arm : arms) {
          OverloadPoint point{base, arm, burst};
          point.options.experiment.algorithm = algorithm;
          LoadGenOptions& loadgen = point.options.loadgen;
          loadgen.enabled = true;
          loadgen.arrival_rate = rate;
          loadgen.bursts.clear();
          if (burst == "flash") {
            // Burst placed inside the expected steady-state span of the
            // replay: mean session length over the per-session rate.
            const double sessions = static_cast<double>(
                std::max<std::size_t>(loadgen.sessions, 1));
            const double mean_docs =
                0.5 * static_cast<double>(loadgen.min_docs +
                                          loadgen.max_docs);
            const double span = mean_docs / (rate / sessions);
            FlashCrowdBurst b;
            b.start = 0.3 * span;
            b.duration = 0.25 * span;
            b.rate_multiplier = burst_multiplier;
            b.hot_fraction = 0.9;
            b.hot_docs = 8;
            loadgen.bursts.push_back(b);
          }
          ConfigureArm(point.options, arm, rate);
          points.push_back(std::move(point));
        }
      }
    }
  }
  return points;
}

OverloadSweep RunOverloadSweep(
    const VectorizedCorpus& corpus, const std::vector<OverloadPoint>& points,
    const std::function<void(const OverloadRow&)>& on_point) {
  return RunSweepLoop<OverloadPoint, OverloadRunStats>(
      points,
      [&corpus](const OverloadPoint& point) {
        return RunOverloadExperiment(corpus, point.options);
      },
      on_point);
}

CsvWriter OverloadCsv(const std::vector<OverloadRow>& rows) {
  CsvWriter csv({"algorithm", "arm", "burst", "arrival_rate",
                 "burst_multiplier", "offered", "completed", "ok", "degraded",
                 "cached", "failed", "shed", "retries", "within_slo",
                 "goodput_within_slo", "shed_rate", "cache_hit_rate", "p50_s",
                 "p95_s", "p99_s", "slo_s", "give_ups", "fingerprint"});
  for (const auto& [point, s] : rows) {
    const LoadGenResult& load = s.load;
    csv.AddRow({AlgorithmTypeToString(point.options.experiment.algorithm),
                point.arm, point.burst, CsvNumber(point.arrival_rate()),
                CsvNumber(point.burst_multiplier()),
                std::to_string(load.offered), std::to_string(load.completed),
                std::to_string(load.ok), std::to_string(load.degraded),
                std::to_string(load.cached), std::to_string(load.failed),
                std::to_string(s.requests_shed), std::to_string(load.retries),
                std::to_string(load.within_slo),
                CsvNumber(load.goodput_within_slo), CsvNumber(s.shed_rate()),
                CsvNumber(s.cache_hit_rate()), CsvNumber(load.p50_latency),
                CsvNumber(load.p95_latency), CsvNumber(load.p99_latency),
                CsvNumber(point.options.loadgen.slo_latency),
                std::to_string(s.give_ups), CsvHex(load.fingerprint)});
  }
  return csv;
}

}  // namespace p2pdt
