// Asserts the core guarantee of the parallel training engine: training with
// one thread and with many threads produces bit-identical models and
// predictions. Task RNG streams are keyed by (peer, tag) — data identity —
// never by thread identity, and no floating-point reduction crosses task
// boundaries, so exact equality (not approximate) is the contract.

#include <vector>

#include <gtest/gtest.h>

#include "common/cost_ledger.h"
#include "common/thread_pool.h"
#include "corpus/vectorize.h"
#include "ml/kernel_svm.h"
#include "ml/kmeans.h"
#include "ml/linear_svm.h"
#include "ml/multilabel.h"
#include "p2pdmt/data_distribution.h"
#include "p2pdmt/environment.h"
#include "p2pml/cempar.h"
#include "p2pml/pace.h"

namespace p2pdt {
namespace {

// A small generated corpus shared by every case in this binary.
const VectorizedCorpus& Corpus() {
  static const VectorizedCorpus corpus = [] {
    CorpusOptions opt;
    opt.num_users = 24;
    opt.min_docs_per_user = 12;
    opt.max_docs_per_user = 20;
    opt.num_tags = 6;
    opt.vocabulary_size = 500;
    opt.seed = 4242;
    Result<VectorizedCorpus> r = MakeVectorizedCorpus(opt);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  }();
  return corpus;
}

std::vector<DatasetShard> PeerPartition(std::size_t num_peers) {
  DataDistributionOptions opt;
  opt.cls = ClassDistribution::kByUser;
  Result<std::vector<DatasetShard>> r = DistributeDataShared(
      std::make_shared<const MultiLabelDataset>(Corpus().dataset), num_peers,
      opt, &Corpus().doc_user);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

std::vector<SparseVector> ProbeVectors(std::size_t n) {
  std::vector<SparseVector> probes;
  const auto& examples = Corpus().dataset.examples();
  for (std::size_t i = 0; i < examples.size() && probes.size() < n;
       i += examples.size() / n + 1) {
    probes.push_back(examples[i].x);
  }
  return probes;
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override { ThreadPool::SetGlobalConcurrency(4); }
  void TearDown() override { ThreadPool::SetGlobalConcurrency(0); }
};

TEST_F(ParallelDeterminismTest, OneVsAllScoresIdentical1VsNThreads) {
  const MultiLabelDataset& data = Corpus().dataset;
  IndexedBinaryTrainer trainer =
      [](const std::vector<Example>& examples, TagId tag)
      -> Result<std::unique_ptr<BinaryClassifier>> {
    LinearSvmOptions opt;
    opt.seed = DeriveSeed(7, 0, tag);
    Result<LinearSvmModel> model = TrainLinearSvm(examples, opt);
    if (!model.ok()) return model.status();
    return std::unique_ptr<BinaryClassifier>(
        std::make_unique<LinearSvmModel>(std::move(model).value()));
  };

  OneVsAllTrainOptions serial;
  serial.num_threads = 1;
  OneVsAllTrainOptions parallel;
  parallel.num_threads = 4;
  Result<OneVsAllModel> a = TrainOneVsAll(data, trainer, serial);
  Result<OneVsAllModel> b = TrainOneVsAll(data, trainer, parallel);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->num_tags(), b->num_tags());
  for (const SparseVector& x : ProbeVectors(25)) {
    EXPECT_EQ(a->Scores(x), b->Scores(x));  // exact double equality
    EXPECT_EQ(a->PredictTags(x), b->PredictTags(x));
  }
}

TEST_F(ParallelDeterminismTest, KMeansIdentical1VsNThreads) {
  std::vector<SparseVector> points;
  for (const auto& ex : Corpus().dataset.examples()) points.push_back(ex.x);
  ASSERT_GE(points.size() * 16, 4096u) << "below the parallel gate";

  KMeansOptions serial;
  serial.k = 16;
  serial.seed = 11;
  serial.num_threads = 1;
  KMeansOptions parallel = serial;
  parallel.num_threads = 4;

  Result<KMeansResult> a = KMeansCluster(points, serial);
  Result<KMeansResult> b = KMeansCluster(points, parallel);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->iterations, b->iterations);
  EXPECT_EQ(a->assignment, b->assignment);
  EXPECT_EQ(a->inertia, b->inertia);  // exact: reductions stay serial
  ASSERT_EQ(a->centroids.size(), b->centroids.size());
  for (std::size_t c = 0; c < a->centroids.size(); ++c) {
    EXPECT_EQ(a->centroids[c], b->centroids[c]);
  }
}

TEST_F(ParallelDeterminismTest, CemparTrainIdentical1VsNThreads) {
  auto run = [&](std::size_t num_threads) {
    EnvironmentOptions eo;
    eo.num_peers = 12;
    auto env = std::move(Environment::Create(eo)).value();
    CemparOptions opt;
    opt.svm.kernel = Kernel::Linear();
    opt.num_threads = num_threads;
    Cempar cempar(env->sim(), env->net(), *env->chord(), opt);
    EXPECT_TRUE(
        cempar.SetupShards(PeerPartition(12), Corpus().dataset.num_tags())
            .ok());
    bool done = false;
    cempar.Train([&](Status s) {
      EXPECT_TRUE(s.ok());
      done = true;
    });
    env->RunUntilFlag(done, 3600);
    EXPECT_TRUE(done);

    std::vector<std::vector<double>> scores;
    for (const SparseVector& x : ProbeVectors(10)) {
      bool pdone = false;
      cempar.Predict(3, x, [&](P2PPrediction p) {
        EXPECT_TRUE(p.success);
        scores.push_back(std::move(p.scores));
        pdone = true;
      });
      env->RunUntilFlag(pdone, 3600);
      EXPECT_TRUE(pdone);
    }
    return std::make_tuple(scores, cempar.TotalRegionalSupportVectors(),
                           cempar.HomeOwners());
  };
  auto [scores1, svs1, owners1] = run(1);
  auto [scores4, svs4, owners4] = run(4);
  EXPECT_EQ(svs1, svs4);
  EXPECT_EQ(owners1, owners4);
  EXPECT_EQ(scores1, scores4);  // exact double equality
}

// Runs `fn` at global concurrency `threads` with the cost ledger on and
// returns its result plus the kernel evaluations it charged.
template <typename Fn>
auto AtConcurrency(std::size_t threads, Fn fn) {
  ThreadPool::SetGlobalConcurrency(threads);
  ScopedCostLedger ledger(true);
  const uint64_t before = CostLedger::Collect().kernel_evals;
  auto result = fn();
  return std::make_pair(std::move(result),
                        CostLedger::Collect().kernel_evals - before);
}

void ExpectSameModel(const KernelSvmModel& a, const KernelSvmModel& b) {
  EXPECT_EQ(a.bias(), b.bias());  // exact double equality throughout
  ASSERT_EQ(a.num_support_vectors(), b.num_support_vectors());
  for (std::size_t i = 0; i < a.num_support_vectors(); ++i) {
    EXPECT_EQ(a.support_vectors()[i].x, b.support_vectors()[i].x);
    EXPECT_EQ(a.support_vectors()[i].y, b.support_vectors()[i].y);
    EXPECT_EQ(a.support_vectors()[i].alpha, b.support_vectors()[i].alpha);
  }
}

KernelSvmOptions RbfOptions() {
  KernelSvmOptions opt;
  opt.kernel = Kernel::Rbf(1.0);
  opt.c = 10.0;
  return opt;
}

TEST_F(ParallelDeterminismTest, RbfKernelSvmIdentical1VsNThreads) {
  const std::vector<Example> data = Corpus().dataset.OneAgainstAll(0);
  auto train = [&] {
    Result<KernelSvmModel> m = TrainKernelSvm(data, RbfOptions());
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return std::move(m).value();
  };
  auto [serial, serial_evals] = AtConcurrency(1, train);
  auto [parallel, parallel_evals] = AtConcurrency(4, train);
  ASSERT_GT(serial.num_support_vectors(), 0u);
  ExpectSameModel(serial, parallel);
  EXPECT_EQ(serial_evals, parallel_evals);
  EXPECT_EQ(serial_evals, data.size() * (data.size() + 1) / 2);
}

TEST_F(ParallelDeterminismTest, RbfCascadeTreeIdentical1VsNThreads) {
  // One local model per user-partition peer, cascaded with a small fan-in
  // so the tree has several levels.
  ThreadPool::SetGlobalConcurrency(1);
  std::vector<KernelSvmModel> locals;
  for (const DatasetShard& shard : PeerPartition(8)) {
    if (shard.empty()) continue;
    Result<KernelSvmModel> m = TrainKernelSvm(shard.OneAgainstAll(1),
                                              RbfOptions());
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    locals.push_back(std::move(m).value());
  }
  std::vector<const KernelSvmModel*> inputs;
  for (const KernelSvmModel& m : locals) inputs.push_back(&m);
  auto cascade = [&] {
    Result<KernelSvmModel> m = CascadeTree(inputs, RbfOptions(), 3);
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return std::move(m).value();
  };
  auto [serial, serial_evals] = AtConcurrency(1, cascade);
  auto [parallel, parallel_evals] = AtConcurrency(4, cascade);
  ASSERT_GT(serial.num_support_vectors(), 0u);
  ExpectSameModel(serial, parallel);
  EXPECT_EQ(serial_evals, parallel_evals);
}

TEST_F(ParallelDeterminismTest, RbfDecisionIdentical1VsNThreads) {
  ThreadPool::SetGlobalConcurrency(1);
  Result<KernelSvmModel> trained =
      TrainKernelSvm(Corpus().dataset.OneAgainstAll(2), RbfOptions());
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  const KernelSvmModel model = std::move(trained).value();
  // More than one 64-SV chunk, so the parallel run really fans out.
  ASSERT_GT(model.num_support_vectors(), 64u);
  const std::vector<SparseVector> probes = ProbeVectors(20);
  auto decide = [&] {
    std::vector<double> out;
    for (const SparseVector& x : probes) out.push_back(model.Decision(x));
    return out;
  };
  auto [serial, serial_evals] = AtConcurrency(1, decide);
  auto [parallel, parallel_evals] = AtConcurrency(4, decide);
  EXPECT_EQ(serial, parallel);  // exact double equality
  EXPECT_EQ(serial_evals, parallel_evals);
  EXPECT_EQ(serial_evals, probes.size() * model.num_support_vectors());
}

TEST_F(ParallelDeterminismTest, RbfCemparIdentical1VsNThreads) {
  // The same train+predict as CemparTrainIdentical1VsNThreads, on the RBF
  // kernel so the cascade merges and routed predictions fan out on the pool.
  auto run = [&] {
    EnvironmentOptions eo;
    eo.num_peers = 12;
    auto env = std::move(Environment::Create(eo)).value();
    CemparOptions opt;
    opt.svm = RbfOptions();
    opt.cascade_fan_in = 3;
    Cempar cempar(env->sim(), env->net(), *env->chord(), opt);
    EXPECT_TRUE(
        cempar.SetupShards(PeerPartition(12), Corpus().dataset.num_tags())
            .ok());
    bool done = false;
    cempar.Train([&](Status s) {
      EXPECT_TRUE(s.ok());
      done = true;
    });
    env->RunUntilFlag(done, 3600);
    EXPECT_TRUE(done);

    std::vector<std::vector<double>> scores;
    for (const SparseVector& x : ProbeVectors(10)) {
      bool pdone = false;
      cempar.Predict(3, x, [&](P2PPrediction p) {
        EXPECT_TRUE(p.success);
        scores.push_back(std::move(p.scores));
        pdone = true;
      });
      env->RunUntilFlag(pdone, 3600);
      EXPECT_TRUE(pdone);
    }
    return std::make_pair(scores, cempar.TotalRegionalSupportVectors());
  };
  auto [serial, serial_evals] = AtConcurrency(1, run);
  auto [parallel, parallel_evals] = AtConcurrency(4, run);
  EXPECT_GT(serial.second, 0u);
  EXPECT_EQ(serial.second, parallel.second);
  EXPECT_EQ(serial.first, parallel.first);  // exact double equality
  EXPECT_EQ(serial_evals, parallel_evals);
}

TEST_F(ParallelDeterminismTest, PaceTrainIdentical1VsNThreads) {
  auto run = [&](std::size_t num_threads) {
    EnvironmentOptions eo;
    eo.num_peers = 12;
    auto env = std::move(Environment::Create(eo)).value();
    PaceOptions opt;
    opt.num_threads = num_threads;
    Pace pace(env->sim(), env->net(), env->overlay(), opt);
    EXPECT_TRUE(
        pace.SetupShards(PeerPartition(12), Corpus().dataset.num_tags()).ok());
    bool done = false;
    pace.Train([&](Status s) {
      EXPECT_TRUE(s.ok());
      done = true;
    });
    env->RunUntilFlag(done, 3600);
    EXPECT_TRUE(done);

    std::vector<std::vector<double>> scores;
    std::vector<std::vector<TagId>> tags;
    for (const SparseVector& x : ProbeVectors(10)) {
      bool pdone = false;
      pace.Predict(5, x, [&](P2PPrediction p) {
        EXPECT_TRUE(p.success);
        scores.push_back(std::move(p.scores));
        tags.push_back(std::move(p.tags));
        pdone = true;
      });
      env->RunUntilFlag(pdone, 3600);
      EXPECT_TRUE(pdone);
    }
    return std::make_pair(scores, tags);
  };
  auto [scores1, tags1] = run(1);
  auto [scores4, tags4] = run(4);
  EXPECT_EQ(tags1, tags4);
  EXPECT_EQ(scores1, scores4);  // exact double equality
}

}  // namespace
}  // namespace p2pdt
