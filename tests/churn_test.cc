#include "p2psim/churn.h"

#include <set>

#include <gtest/gtest.h>

#include "p2pdmt/environment.h"
#include "p2pml/cempar.h"
#include "p2pml/pace.h"
#include "peer_data.h"

namespace p2pdt {
namespace {

TEST(ChurnModelTest, NoChurnNeverEnds) {
  NoChurn model;
  Rng rng(1);
  EXPECT_GE(model.NextOnlineDuration(rng), 1e17);
  EXPECT_DOUBLE_EQ(model.NextOfflineDuration(rng), 0.0);
  EXPECT_EQ(model.name(), "none");
}

TEST(ChurnModelTest, ExponentialMeansMatch) {
  ExponentialChurn model(100.0, 25.0);
  Rng rng(2);
  double on = 0, off = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    on += model.NextOnlineDuration(rng);
    off += model.NextOfflineDuration(rng);
  }
  EXPECT_NEAR(on / n, 100.0, 3.0);
  EXPECT_NEAR(off / n, 25.0, 1.0);
}

TEST(ChurnModelTest, ParetoMeanAndMinimum) {
  ParetoChurn model(90.0, 10.0, 1.5);
  Rng rng(3);
  double sum = 0, min_seen = 1e18;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double d = model.NextOnlineDuration(rng);
    sum += d;
    min_seen = std::min(min_seen, d);
  }
  // xm = mean*(a-1)/a = 30; heavy tail → generous tolerance on the mean.
  EXPECT_NEAR(min_seen, 30.0, 1.0);
  EXPECT_NEAR(sum / n, 90.0, 10.0);
}

TEST(ChurnDriverTest, NoChurnSchedulesNothing) {
  Simulator sim;
  PhysicalNetwork net(sim);
  net.AddNodes(10);
  ChurnDriver driver(sim, net, std::make_shared<NoChurn>());
  driver.Start();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(ChurnDriverTest, TransitionsToggleAndNotify) {
  Simulator sim;
  PhysicalNetwork net(sim);
  net.AddNodes(20);
  ChurnDriver driver(sim, net,
                     std::make_shared<ExponentialChurn>(10.0, 5.0), 77);
  int offline_events = 0, online_events = 0;
  driver.AddListener([&](NodeId, bool online) {
    (online ? online_events : offline_events) += 1;
  });
  driver.Start();
  sim.RunUntil(100.0);

  EXPECT_GT(driver.num_failures(), 0u);
  EXPECT_GT(driver.num_rejoins(), 0u);
  EXPECT_EQ(driver.num_failures(),
            static_cast<uint64_t>(offline_events));
  EXPECT_EQ(driver.num_rejoins(), static_cast<uint64_t>(online_events));
  // Transitions alternate per node, so failures ≥ rejoins ≥ failures - N.
  EXPECT_GE(driver.num_failures(), driver.num_rejoins());
  EXPECT_LE(driver.num_failures() - driver.num_rejoins(), 20u);
}

TEST(ChurnDriverTest, SteadyStateOnlineFractionMatchesTheory) {
  // With mean online 30 and offline 10, availability → 0.75.
  Simulator sim;
  PhysicalNetwork net(sim);
  net.AddNodes(200);
  ChurnDriver driver(sim, net, std::make_shared<ExponentialChurn>(30.0, 10.0),
                     5);
  driver.Start();
  sim.RunUntil(300.0);  // burn-in
  double sum = 0;
  int samples = 0;
  for (int i = 0; i < 50; ++i) {
    sim.RunUntil(sim.Now() + 5.0);
    sum += static_cast<double>(net.num_online()) / 200.0;
    ++samples;
  }
  EXPECT_NEAR(sum / samples, 0.75, 0.06);
}

TEST(ChurnDriverTest, DeterministicInSeed) {
  auto run = [](uint64_t seed) {
    Simulator sim;
    PhysicalNetwork net(sim);
    net.AddNodes(30);
    ChurnDriver driver(sim, net,
                       std::make_shared<ExponentialChurn>(5.0, 5.0), seed);
    driver.Start();
    sim.RunUntil(50.0);
    std::vector<bool> state;
    for (NodeId n = 0; n < 30; ++n) state.push_back(net.IsOnline(n));
    return std::make_pair(driver.num_failures(), state);
  };
  auto [f1, s1] = run(11);
  auto [f2, s2] = run(11);
  auto [f3, s3] = run(12);
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(s1, s2);
  EXPECT_TRUE(f1 != f3 || s1 != s3);
}

// ---------------------------------------------------------------------------
// Regression tests: a prediction whose serving peers die mid-flight must
// resolve to P2PPrediction::success == false — promptly, not as a hang, and
// not as an empty "successful" prediction.
// ---------------------------------------------------------------------------

TEST(ChurnPredictionTest, CemparAllSuperPeersFailMidPrediction) {
  EnvironmentOptions eo;
  eo.num_peers = 16;
  auto env = std::move(Environment::Create(eo)).value();
  CemparOptions opt;
  opt.svm.kernel = Kernel::Linear();
  Cempar cempar(env->sim(), env->net(), *env->chord(), opt);
  ASSERT_TRUE(
      cempar.SetupShards(OwnShards(MakePeerData(16, 8, 21)), 4).ok());
  bool trained = false;
  cempar.Train([&](Status s) {
    ASSERT_TRUE(s.ok());
    trained = true;
  });
  env->RunUntilFlag(trained, 3600);
  ASSERT_TRUE(trained);

  // A requester that hosts no home, so every score must come off-node.
  std::set<NodeId> owners;
  for (NodeId owner : cempar.HomeOwners()) {
    if (owner != kInvalidNode) owners.insert(owner);
  }
  NodeId requester = 0;
  while (owners.count(requester)) ++requester;
  ASSERT_LT(requester, 16u);

  // Issue the prediction — requests to the super-peers are now in flight —
  // then kill every super-peer before the simulator delivers anything.
  bool done = false;
  P2PPrediction pred;
  cempar.Predict(requester,
                 SparseVector::FromPairs({{0u, 1.0}, {1u, 1.0}}),
                 [&](P2PPrediction p) {
                   pred = std::move(p);
                   done = true;
                 });
  for (NodeId owner : owners) env->net().SetOnline(owner, false);
  env->RunUntilFlag(done, 3600);

  ASSERT_TRUE(done) << "prediction hung after super-peer failure";
  EXPECT_FALSE(pred.success);
  EXPECT_TRUE(pred.tags.empty());
}

TEST(ChurnPredictionTest, PaceRequesterWithNoModelsFailsPromptly) {
  // PACE's serving peers are the model contributors. A peer that missed
  // every broadcast (offline through training) holds no models; once the
  // contributors fail there is nothing to fall back to — prediction must
  // report failure, not hang and not return an empty success.
  EnvironmentOptions eo;
  eo.num_peers = 10;
  auto env = std::move(Environment::Create(eo)).value();
  Pace pace(env->sim(), env->net(), env->overlay(), {});
  ASSERT_TRUE(
      pace.SetupShards(OwnShards(MakePeerData(10, 8, 22)), 4).ok());
  env->net().SetOnline(7, false);
  bool trained = false;
  pace.Train([&](Status) { trained = true; });
  env->RunUntilFlag(trained, 3600);
  ASSERT_TRUE(trained);

  env->net().SetOnline(7, true);
  for (NodeId peer = 0; peer < 10; ++peer) {
    if (peer != 7) env->net().SetOnline(peer, false);
  }
  bool done = false;
  P2PPrediction pred;
  pace.Predict(7, SparseVector::FromPairs({{0u, 1.0}, {1u, 1.0}}),
               [&](P2PPrediction p) {
                 pred = std::move(p);
                 done = true;
               });
  env->RunUntilFlag(done, 3600);

  ASSERT_TRUE(done) << "prediction hung with no reachable models";
  EXPECT_FALSE(pred.success);
  EXPECT_TRUE(pred.tags.empty());
}

}  // namespace
}  // namespace p2pdt
