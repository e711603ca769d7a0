// End-to-end overload-robustness properties:
//  - versioned prediction cache: a cached answer is served without network
//    traffic, and no stale answer outlives a model-version bump or its TTL
//    (both protocols);
//  - the armed load generator is bit-deterministic across sim shard counts
//    (serial == sharded);
//  - idle overload machinery (queues, admission, cache, batching) changes
//    no prediction: disarmed fingerprints match the pure-default config.

#include <gtest/gtest.h>

#include "p2pdmt/overload.h"

namespace p2pdt {
namespace {

const VectorizedCorpus& SmallCorpus() {
  static const VectorizedCorpus corpus = [] {
    CorpusOptions opt;
    opt.num_users = 12;
    opt.min_docs_per_user = 12;
    opt.max_docs_per_user = 20;
    opt.num_tags = 4;
    opt.vocabulary_size = 600;
    opt.seed = 20100913;
    Result<VectorizedCorpus> r = MakeVectorizedCorpus(opt);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }();
  return corpus;
}

/// Trained classifier + environment, built the same way the harness builds
/// them, with direct access for fine-grained cache assertions.
struct Trained {
  std::unique_ptr<Environment> env;
  std::unique_ptr<P2PClassifier> algo;
  CorpusSplit split;

  static Trained Make(AlgorithmType algorithm,
                      const PredictCacheOptions& cache) {
    const VectorizedCorpus& corpus = SmallCorpus();
    Trained t;
    t.split = SplitCorpus(corpus, 0.2, 777);

    ExperimentOptions options;
    options.env.num_peers = corpus.num_users;
    options.env.observe.metrics = true;
    options.algorithm = algorithm;
    options.pace.predict_cache = cache;
    options.cempar.predict_cache = cache;
    options.distribution.cls = ClassDistribution::kByUser;
    Result<std::vector<DatasetShard>> shards = DistributeDataShared(
        std::make_shared<const MultiLabelDataset>(t.split.train),
        corpus.num_users, options.distribution, &t.split.train_user);
    EXPECT_TRUE(shards.ok());
    Result<ClassifierNetwork> network = SetUpNetwork(
        options, std::move(shards).value(), corpus.dataset.num_tags());
    EXPECT_TRUE(network.ok()) << network.status().ToString();
    t.env = std::move(network->env);
    t.algo = std::move(network->algo);
    Result<double> trained = TrainToQuiescence(*t.env, *t.algo, 3600.0);
    EXPECT_TRUE(trained.ok()) << trained.status().ToString();
    return t;
  }

  P2PPrediction PredictSync(NodeId requester, const SparseVector& x) {
    P2PPrediction out;
    bool done = false;
    algo->Predict(requester, x, [&](P2PPrediction p) {
      out = std::move(p);
      done = true;
    });
    env->RunUntilFlag(done, 3600.0);
    EXPECT_TRUE(done);
    return out;
  }

  const PredictCacheSet* cache() const {
    if (auto* pace = dynamic_cast<Pace*>(algo.get())) {
      return pace->predict_cache();
    }
    if (auto* cempar = dynamic_cast<Cempar*>(algo.get())) {
      return cempar->predict_cache();
    }
    return nullptr;
  }
};

PredictCacheOptions CacheOn(double ttl = 1e9) {
  PredictCacheOptions opt;
  opt.enabled = true;
  opt.capacity = 64;
  opt.ttl_seconds = ttl;
  return opt;
}

class OverloadCacheTest : public ::testing::TestWithParam<AlgorithmType> {};

TEST_P(OverloadCacheTest, RepeatLookupIsServedFromCache) {
  Trained t = Trained::Make(GetParam(), CacheOn());
  const SparseVector& doc = t.split.test[0].x;

  P2PPrediction first = t.PredictSync(0, doc);
  ASSERT_TRUE(first.success);
  EXPECT_FALSE(first.cached);

  const uint64_t messages_before = t.env->net().stats().messages_sent();
  P2PPrediction second = t.PredictSync(0, doc);
  ASSERT_TRUE(second.success);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.tags, first.tags);
  EXPECT_EQ(second.scores, first.scores);
  // A cache hit costs zero network traffic.
  EXPECT_EQ(t.env->net().stats().messages_sent(), messages_before);
  ASSERT_NE(t.cache(), nullptr);
  EXPECT_EQ(t.cache()->hits(), 1u);

  // Another requester has its own (cold) cache.
  P2PPrediction other = t.PredictSync(1, doc);
  ASSERT_TRUE(other.success);
  EXPECT_FALSE(other.cached);
}

TEST_P(OverloadCacheTest, VersionBumpInvalidatesCachedAnswers) {
  Trained t = Trained::Make(GetParam(), CacheOn());
  const SparseVector& doc = t.split.test[0].x;

  ASSERT_TRUE(t.PredictSync(0, doc).success);
  ASSERT_TRUE(t.PredictSync(0, doc).cached);

  // Refresh some peer's model: the publish epoch bumps, so every cached
  // answer predates the current model generation and must not be served.
  bool refreshed = false;
  t.algo->RefreshPeer(1, [&] { refreshed = true; });
  t.env->RunUntilFlag(refreshed, 3600.0);
  ASSERT_TRUE(refreshed);

  P2PPrediction after = t.PredictSync(0, doc);
  ASSERT_TRUE(after.success);
  EXPECT_FALSE(after.cached);
  ASSERT_NE(t.cache(), nullptr);
  EXPECT_GE(t.cache()->stale(), 1u);

  // The fresh answer re-enters the cache under the new epoch.
  EXPECT_TRUE(t.PredictSync(0, doc).cached);
}

TEST_P(OverloadCacheTest, TtlBoundsCacheLifetime) {
  // With a TTL shorter than one prediction round-trip, nothing is ever
  // served stale from the cache.
  Trained t = Trained::Make(GetParam(), CacheOn(/*ttl=*/1e-9));
  const SparseVector& doc = t.split.test[0].x;
  ASSERT_TRUE(t.PredictSync(0, doc).success);
  P2PPrediction second = t.PredictSync(0, doc);
  ASSERT_TRUE(second.success);
  EXPECT_FALSE(second.cached);
  ASSERT_NE(t.cache(), nullptr);
  EXPECT_GE(t.cache()->stale(), 1u);
  EXPECT_EQ(t.cache()->hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothAlgorithms, OverloadCacheTest,
                         ::testing::Values(AlgorithmType::kPace,
                                           AlgorithmType::kCempar),
                         [](const ::testing::TestParamInfo<AlgorithmType>& i) {
                           return std::string(AlgorithmTypeToString(i.param));
                         });

OverloadExperimentOptions ArmedOptions(AlgorithmType algorithm) {
  OverloadExperimentOptions opt;
  opt.experiment.algorithm = algorithm;
  opt.experiment.env.num_peers = SmallCorpus().num_users;
  opt.experiment.distribution.cls = ClassDistribution::kByUser;
  opt.loadgen.enabled = true;
  opt.loadgen.sessions = SmallCorpus().num_users;
  opt.loadgen.min_docs = 3;
  opt.loadgen.max_docs = 5;
  opt.loadgen.arrival_rate = 12.0;
  opt.loadgen.max_retries = 1;
  FlashCrowdBurst burst;
  burst.start = 1.0;
  burst.duration = 1.5;
  burst.rate_multiplier = 6.0;
  burst.hot_fraction = 0.9;
  burst.hot_docs = 4;
  opt.loadgen.bursts = {burst};

  auto defend = [](ServeOptions& serve) {
    serve.enabled = true;
    serve.service_rate = 4.0;
    serve.admission_control = true;
    serve.max_depth = 16;
    serve.max_wait = 0.5;
    serve.retry_after = 0.25;
  };
  defend(opt.experiment.pace.serve);
  defend(opt.experiment.cempar.serve);
  opt.experiment.pace.predict_cache = CacheOn();
  opt.experiment.cempar.predict_cache = CacheOn();
  opt.experiment.cempar.batch_predictions = true;
  opt.experiment.cempar.reliable_transport = true;
  return opt;
}

class OverloadDeterminismTest
    : public ::testing::TestWithParam<AlgorithmType> {};

TEST_P(OverloadDeterminismTest, ArmedSerialEqualsSharded) {
  OverloadExperimentOptions serial = ArmedOptions(GetParam());
  serial.experiment.sim_shards = 1;
  OverloadExperimentOptions sharded = ArmedOptions(GetParam());
  sharded.experiment.sim_shards = 4;

  Result<OverloadRunStats> a = RunOverloadExperiment(SmallCorpus(), serial);
  Result<OverloadRunStats> b = RunOverloadExperiment(SmallCorpus(), sharded);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_GT(a->load.offered, 0u);
  EXPECT_EQ(a->load.offered, b->load.offered);
  EXPECT_EQ(a->load.completed, b->load.completed);
  EXPECT_EQ(a->load.fingerprint, b->load.fingerprint);
  EXPECT_EQ(a->requests_shed, b->requests_shed);
  EXPECT_EQ(a->cache_hits, b->cache_hits);
}

TEST_P(OverloadDeterminismTest, IdleMachineryChangesNoPrediction) {
  // Pure default: no serve queues, no cache, no batching.
  OverloadExperimentOptions plain;
  plain.experiment.algorithm = GetParam();
  plain.experiment.env.num_peers = SmallCorpus().num_users;
  plain.experiment.distribution.cls = ClassDistribution::kByUser;
  plain.loadgen.enabled = false;

  // Full machinery constructed but idle: finite queues with admission
  // control, an empty cache, batching — and a sequential disarmed eval
  // that never contends.
  OverloadExperimentOptions armed = ArmedOptions(GetParam());
  armed.loadgen.enabled = false;
  armed.experiment.cempar.reliable_transport =
      plain.experiment.cempar.reliable_transport;

  Result<OverloadRunStats> a = RunOverloadExperiment(SmallCorpus(), plain);
  Result<OverloadRunStats> b = RunOverloadExperiment(SmallCorpus(), armed);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_GT(a->load.offered, 0u);
  EXPECT_EQ(a->load.fingerprint, b->load.fingerprint);
}

TEST(OverloadHarnessTest, RejectsExperimentFieldsItIgnores) {
  OverloadExperimentOptions opt;
  opt.experiment.env.num_peers = SmallCorpus().num_users;
  opt.experiment.max_eval_peers = 4;
  Result<OverloadRunStats> r = RunOverloadExperiment(SmallCorpus(), opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("max_eval_peers"), std::string::npos)
      << r.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(BothAlgorithms, OverloadDeterminismTest,
                         ::testing::Values(AlgorithmType::kPace,
                                           AlgorithmType::kCempar),
                         [](const ::testing::TestParamInfo<AlgorithmType>& i) {
                           return std::string(AlgorithmTypeToString(i.param));
                         });

}  // namespace
}  // namespace p2pdt
