#include "p2pdmt/experiment.h"

#include <gtest/gtest.h>

namespace p2pdt {
namespace {

const VectorizedCorpus& SharedCorpus() {
  static const VectorizedCorpus corpus = [] {
    CorpusOptions opt;
    opt.num_users = 12;
    opt.min_docs_per_user = 40;
    opt.max_docs_per_user = 50;
    opt.num_tags = 6;
    opt.vocabulary_size = 1200;
    opt.seed = 2024;
    return std::move(MakeVectorizedCorpus(opt)).value();
  }();
  return corpus;
}

ExperimentOptions BaseOptions(AlgorithmType algo) {
  ExperimentOptions opt;
  opt.env.num_peers = 12;
  opt.algorithm = algo;
  opt.max_test_documents = 80;
  opt.distribution.cls = ClassDistribution::kByUser;
  return opt;
}

TEST(SplitCorpusTest, FractionAndUserParallelism) {
  CorpusSplit split = SplitCorpus(SharedCorpus(), 0.2, 1);
  std::size_t total = SharedCorpus().dataset.size();
  EXPECT_NEAR(static_cast<double>(split.train.size()) / total, 0.2, 0.01);
  EXPECT_EQ(split.train.size() + split.test.size(), total);
  EXPECT_EQ(split.train_user.size(), split.train.size());
  EXPECT_EQ(split.test_user.size(), split.test.size());
}

TEST(SplitCorpusTest, DeterministicInSeed) {
  CorpusSplit a = SplitCorpus(SharedCorpus(), 0.3, 7);
  CorpusSplit b = SplitCorpus(SharedCorpus(), 0.3, 7);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::size_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].x, b.train[i].x);
  }
}

TEST(RejectUnusedOptionsTest, NamesEachIgnoredFieldThatDiffersFromDefault) {
  EXPECT_TRUE(RejectUnusedOptions(ExperimentOptions{}, "h", false).ok());
  ExperimentOptions used;  // fields every harness reads
  used.env.num_peers = 7;
  used.algorithm = AlgorithmType::kCempar;
  used.sim_shards = 2;
  used.max_train_sim_seconds = 10.0;
  EXPECT_TRUE(RejectUnusedOptions(used, "h", false).ok());

  struct Case {
    const char* field;
    void (*set)(ExperimentOptions&);
    bool read_when_splitting;
  };
  const Case cases[] = {
      {"warmup_sim_seconds",
       [](ExperimentOptions& o) { o.warmup_sim_seconds = 1; }, false},
      {"post_train_sim_seconds",
       [](ExperimentOptions& o) { o.post_train_sim_seconds = 1; }, false},
      {"recovery",
       [](ExperimentOptions& o) { o.recovery.warm_rejoin = false; }, false},
      {"max_test_documents",
       [](ExperimentOptions& o) { o.max_test_documents = 0; }, false},
      {"max_eval_peers",
       [](ExperimentOptions& o) { o.max_eval_peers = 2; }, false},
      {"max_predict_sim_seconds",
       [](ExperimentOptions& o) { o.max_predict_sim_seconds = 1; }, false},
      {"report_path",
       [](ExperimentOptions& o) { o.report_path = "r"; }, false},
      {"metrics_path",
       [](ExperimentOptions& o) { o.metrics_path = "m"; }, false},
      {"trace_path",
       [](ExperimentOptions& o) { o.trace_path = "t"; }, false},
      {"profile_path",
       [](ExperimentOptions& o) { o.profile_path = "p"; }, false},
      {"distribution",
       [](ExperimentOptions& o) { o.distribution.seed = 6; }, true},
      {"train_fraction",
       [](ExperimentOptions& o) { o.train_fraction = 0.5; }, true},
      {"seed",
       [](ExperimentOptions& o) { o.seed = 1; }, true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.field);
    ExperimentOptions opt;
    c.set(opt);
    Status s = RejectUnusedOptions(opt, "h", /*splits_corpus=*/false);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(s.message(),
              std::string("h harness ignores ") + c.field +
                  "; leave it at its default");
    EXPECT_EQ(RejectUnusedOptions(opt, "h", /*splits_corpus=*/true).ok(),
              c.read_when_splitting);
  }
}

TEST(MakeClassifierTest, CemparNeedsChord) {
  ExperimentOptions opt = BaseOptions(AlgorithmType::kCempar);
  opt.env.overlay = OverlayType::kUnstructured;
  auto env = std::move(Environment::Create(opt.env)).value();
  EXPECT_EQ(MakeClassifier(*env, opt).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(MakeClassifierTest, AllAlgorithmsConstructible) {
  for (AlgorithmType a :
       {AlgorithmType::kCempar, AlgorithmType::kPace,
        AlgorithmType::kCentralized, AlgorithmType::kLocalOnly,
        AlgorithmType::kModelAvg}) {
    ExperimentOptions opt = BaseOptions(a);
    auto env = std::move(Environment::Create(opt.env)).value();
    Result<std::unique_ptr<P2PClassifier>> algo = MakeClassifier(*env, opt);
    ASSERT_TRUE(algo.ok()) << AlgorithmTypeToString(a);
    EXPECT_EQ(algo.value()->name(), AlgorithmTypeToString(a));
  }
}

TEST(ExperimentTest, CollaborationBeatsLocalOnly) {
  Result<ExperimentResult> local =
      RunExperiment(SharedCorpus(), BaseOptions(AlgorithmType::kLocalOnly));
  Result<ExperimentResult> cempar =
      RunExperiment(SharedCorpus(), BaseOptions(AlgorithmType::kCempar));
  Result<ExperimentResult> pace =
      RunExperiment(SharedCorpus(), BaseOptions(AlgorithmType::kPace));
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(cempar.ok());
  ASSERT_TRUE(pace.ok());
  EXPECT_GT(cempar->metrics.micro_f1, local->metrics.micro_f1 + 0.15);
  EXPECT_GT(pace->metrics.micro_f1, local->metrics.micro_f1 + 0.15);
}

TEST(ExperimentTest, CemparTracksCentralizedAccuracy) {
  // The paper's headline: "classification accuracy comparable to
  // centralized approaches".
  Result<ExperimentResult> cempar =
      RunExperiment(SharedCorpus(), BaseOptions(AlgorithmType::kCempar));
  Result<ExperimentResult> central = RunExperiment(
      SharedCorpus(), BaseOptions(AlgorithmType::kCentralized));
  ASSERT_TRUE(cempar.ok() && central.ok());
  EXPECT_GT(central->metrics.micro_f1, 0.85);
  EXPECT_GE(cempar->metrics.micro_f1, central->metrics.micro_f1 - 0.08);
}

TEST(ExperimentTest, CommunicationShapes) {
  Result<ExperimentResult> cempar =
      RunExperiment(SharedCorpus(), BaseOptions(AlgorithmType::kCempar));
  Result<ExperimentResult> pace =
      RunExperiment(SharedCorpus(), BaseOptions(AlgorithmType::kPace));
  Result<ExperimentResult> local =
      RunExperiment(SharedCorpus(), BaseOptions(AlgorithmType::kLocalOnly));
  ASSERT_TRUE(cempar.ok() && pace.ok() && local.ok());
  // CEMPaR trains much cheaper than PACE's broadcast; PACE predicts free.
  EXPECT_LT(cempar->train_bytes, pace->train_bytes / 4);
  EXPECT_EQ(pace->predict_bytes, 0u);
  EXPECT_GT(cempar->predict_bytes, 0u);
  EXPECT_EQ(local->train_bytes, 0u);
}

TEST(ExperimentTest, ResultRatiosComputed) {
  Result<ExperimentResult> r =
      RunExperiment(SharedCorpus(), BaseOptions(AlgorithmType::kCempar));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_peers, 12u);
  EXPECT_EQ(r->test_documents, 80u);
  EXPECT_NEAR(r->train_bytes_per_peer(),
              static_cast<double>(r->train_bytes) / 12.0, 1e-9);
  EXPECT_GT(r->predict_bytes_per_doc(), 0.0);
  EXPECT_NE(r->ToString().find("cempar"), std::string::npos);
}

TEST(ExperimentTest, ChurnExperimentCompletes) {
  ExperimentOptions opt = BaseOptions(AlgorithmType::kCempar);
  opt.env.churn = ChurnType::kExponential;
  opt.env.churn_mean_online_sec = 60.0;
  opt.env.churn_mean_offline_sec = 15.0;
  opt.warmup_sim_seconds = 5.0;
  Result<ExperimentResult> r = RunExperiment(SharedCorpus(), opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->churn, "exponential");
  // Quality may degrade but the protocol must still answer most queries.
  EXPECT_LT(r->failed_predictions, r->test_documents / 2);
}

TEST(ExperimentTest, DeterministicInSeed) {
  ExperimentOptions opt = BaseOptions(AlgorithmType::kPace);
  Result<ExperimentResult> a = RunExperiment(SharedCorpus(), opt);
  Result<ExperimentResult> b = RunExperiment(SharedCorpus(), opt);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->metrics.micro_f1, b->metrics.micro_f1);
  EXPECT_EQ(a->train_bytes, b->train_bytes);
}

// Pins every algorithm's exact outputs on a fixed heterogeneous
// distribution (non-IID tags, Zipf peer sizes): any change in how peer data
// reaches a classifier that moves one prediction, message or byte fails
// here.
TEST(ExperimentTest, PinnedOutputsPerAlgorithm) {
  struct Pin {
    AlgorithmType algorithm;
    double macro_f1;
    double micro_f1;
    std::size_t failed_predictions;
    uint64_t train_messages;
    uint64_t train_bytes;
    uint64_t predict_messages;
    uint64_t predict_bytes;
  };
  const Pin pins[] = {
      {AlgorithmType::kCempar, 0.92980824153406771, 0.93203883495145634, 0,
       151, 209764, 1246, 238868},
      {AlgorithmType::kPace, 0.8917555326224057, 0.87557603686635943, 0, 240,
       2400240, 0, 0},
      {AlgorithmType::kCentralized, 0.98818752307124402, 0.98999999999999999,
       0, 15, 49940, 152, 54732},
      {AlgorithmType::kLocalOnly, 0.31315235528173535, 0.40625, 0, 0, 0, 0,
       0},
      {AlgorithmType::kModelAvg, 0.87054939924116981, 0.85981308411214952, 0,
       195, 1584360, 0, 0},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(AlgorithmTypeToString(pin.algorithm));
    ExperimentOptions opt = BaseOptions(pin.algorithm);
    opt.env.num_peers = 16;
    opt.distribution.cls = ClassDistribution::kNonIidDirichlet;
    opt.distribution.size = SizeDistribution::kZipf;
    Result<ExperimentResult> r = RunExperiment(SharedCorpus(), opt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->metrics.macro_f1, pin.macro_f1);
    EXPECT_EQ(r->metrics.micro_f1, pin.micro_f1);
    EXPECT_EQ(r->failed_predictions, pin.failed_predictions);
    EXPECT_EQ(r->train_messages, pin.train_messages);
    EXPECT_EQ(r->train_bytes, pin.train_bytes);
    EXPECT_EQ(r->predict_messages, pin.predict_messages);
    EXPECT_EQ(r->predict_bytes, pin.predict_bytes);
  }
}

}  // namespace
}  // namespace p2pdt
