#include "p2pdmt/environment.h"

#include <gtest/gtest.h>

#include "p2pdmt/sim_scorer.h"
#include "p2pml/baselines.h"
#include "peer_data.h"

namespace p2pdt {
namespace {

TEST(EnvironmentTest, RejectsZeroPeers) {
  EnvironmentOptions opt;
  opt.num_peers = 0;
  EXPECT_FALSE(Environment::Create(opt).ok());
}

TEST(EnvironmentTest, ChordEnvironmentWiring) {
  EnvironmentOptions opt;
  opt.num_peers = 24;
  auto env = std::move(Environment::Create(opt)).value();
  EXPECT_EQ(env->net().num_nodes(), 24u);
  ASSERT_NE(env->chord(), nullptr);
  EXPECT_EQ(env->unstructured(), nullptr);
  EXPECT_EQ(env->chord()->num_members(), 24u);
  EXPECT_EQ(env->overlay().name(), "chord");
}

TEST(EnvironmentTest, UnstructuredEnvironmentWiring) {
  EnvironmentOptions opt;
  opt.num_peers = 24;
  opt.overlay = OverlayType::kUnstructured;
  auto env = std::move(Environment::Create(opt)).value();
  EXPECT_EQ(env->chord(), nullptr);
  ASSERT_NE(env->unstructured(), nullptr);
  EXPECT_GT(env->unstructured()->MeanDegree(), 1.0);
}

TEST(EnvironmentTest, BootstrapChargesMaintenanceTraffic) {
  EnvironmentOptions opt;
  opt.num_peers = 16;
  auto env = std::move(Environment::Create(opt)).value();
  EXPECT_GT(env->net().stats().messages_sent(
                MessageType::kOverlayMaintenance),
            0u);
}

TEST(EnvironmentTest, ChurnDrivesTransitionsIntoOverlay) {
  EnvironmentOptions opt;
  opt.num_peers = 32;
  opt.churn = ChurnType::kExponential;
  opt.churn_mean_online_sec = 5.0;
  opt.churn_mean_offline_sec = 2.0;
  auto env = std::move(Environment::Create(opt)).value();
  env->StartDynamics();
  env->sim().RunUntil(60.0);
  EXPECT_GT(env->churn().num_failures(), 0u);
  // Some peers should be offline at any sampled instant.
  EXPECT_LT(env->net().num_online(), 32u);
}

TEST(EnvironmentTest, NoChurnKeepsEveryoneOnline) {
  EnvironmentOptions opt;
  opt.num_peers = 8;
  auto env = std::move(Environment::Create(opt)).value();
  env->StartDynamics();
  env->sim().RunUntil(100.0);
  EXPECT_EQ(env->net().num_online(), 8u);
}

TEST(EnvironmentTest, RunUntilFlagStopsOnFlag) {
  EnvironmentOptions opt;
  opt.num_peers = 4;
  auto env = std::move(Environment::Create(opt)).value();
  bool flag = false;
  env->sim().Schedule(3.5, [&] { flag = true; });
  double elapsed = env->RunUntilFlag(flag, 100.0);
  EXPECT_TRUE(flag);
  EXPECT_LT(elapsed, 10.0);
}

TEST(EnvironmentTest, RunUntilFlagRespectsDeadlineUnderRecurringEvents) {
  EnvironmentOptions opt;
  opt.num_peers = 4;
  opt.churn = ChurnType::kExponential;
  opt.churn_mean_online_sec = 1.0;
  opt.churn_mean_offline_sec = 1.0;
  auto env = std::move(Environment::Create(opt)).value();
  env->StartDynamics();  // endless churn events
  bool never = false;
  double elapsed = env->RunUntilFlag(never, 20.0);
  EXPECT_FALSE(never);
  EXPECT_GE(elapsed, 19.0);
  EXPECT_LE(elapsed, 22.0);
}

TEST(EnvironmentTest, SeedChangesTopology) {
  EnvironmentOptions a;
  a.num_peers = 16;
  a.seed = 1;
  EnvironmentOptions b = a;
  b.seed = 2;
  auto ea = std::move(Environment::Create(a)).value();
  auto eb = std::move(Environment::Create(b)).value();
  bool any_diff = false;
  for (NodeId n = 0; n < 16; ++n) {
    if (ea->chord()->KeyOf(n) != eb->chord()->KeyOf(n)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SimScorerTest, BridgesPredictionsSynchronously) {
  EnvironmentOptions opt;
  opt.num_peers = 6;
  auto env = std::move(Environment::Create(opt)).value();
  LocalOnlyClassifier algo(env->sim(), env->net());
  std::vector<MultiLabelDataset> peers(6, MultiLabelDataset(2));
  for (std::size_t p = 0; p < 6; ++p) {
    for (int i = 0; i < 6; ++i) {
      MultiLabelExample ex;
      TagId tag = i % 2;
      ex.x = SparseVector::FromPairs({{tag, 1.0}});
      ex.tags = {tag};
      peers[p].Add(std::move(ex));
    }
  }
  ASSERT_TRUE(algo.SetupShards(OwnShards(std::move(peers)), 2).ok());
  bool done = false;
  algo.Train([&](Status) { done = true; });
  env->RunUntilFlag(done, 600);

  GlobalScorer scorer = MakeSimScorer(algo, *env, /*self=*/2);
  std::vector<double> scores = scorer(SparseVector::FromPairs({{0, 1.0}}));
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_GT(scores[0], scores[1]);
}

TEST(SimScorerTest, FailureYieldsEmptyScores) {
  EnvironmentOptions opt;
  opt.num_peers = 3;
  auto env = std::move(Environment::Create(opt)).value();
  LocalOnlyClassifier algo(env->sim(), env->net());
  ASSERT_TRUE(algo.SetupShards(std::vector<DatasetShard>(3), 2).ok());
  // Never trained: predictions fail, scorer returns empty.
  GlobalScorer scorer = MakeSimScorer(algo, *env, 0);
  EXPECT_TRUE(scorer(SparseVector::FromPairs({{0, 1.0}})).empty());
}

}  // namespace
}  // namespace p2pdt
