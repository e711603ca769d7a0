#include "p2pml/cempar.h"

#include <set>

#include <gtest/gtest.h>

#include "p2pdmt/environment.h"
#include "peer_data.h"

namespace p2pdt {
namespace {

struct Fixture {
  std::unique_ptr<Environment> env;
  std::unique_ptr<Cempar> cempar;

  explicit Fixture(std::size_t peers, CemparOptions options = {}) {
    EnvironmentOptions eo;
    eo.num_peers = peers;
    env = std::move(Environment::Create(eo)).value();
    if (options.svm.kernel.type == KernelType::kRbf) {
      options.svm.kernel = Kernel::Linear();
    }
    cempar = std::make_unique<Cempar>(env->sim(), env->net(), *env->chord(),
                                      options);
  }

  Status Train(std::vector<MultiLabelDataset> data) {
    P2PDT_RETURN_IF_ERROR(cempar->SetupShards(OwnShards(std::move(data)), 4));
    bool done = false;
    Status status = Status::OK();
    cempar->Train([&](Status s) {
      status = s;
      done = true;
    });
    env->RunUntilFlag(done, 3600);
    EXPECT_TRUE(done);
    return status;
  }

  P2PPrediction PredictSync(NodeId requester, const SparseVector& x) {
    P2PPrediction out;
    bool done = false;
    cempar->Predict(requester, x, [&](P2PPrediction p) {
      out = std::move(p);
      done = true;
    });
    env->RunUntilFlag(done, 3600);
    EXPECT_TRUE(done);
    return out;
  }
};

TEST(CemparTest, SetupRequiresMatchingPeerCount) {
  Fixture f(8);
  EXPECT_FALSE(f.cempar->SetupShards(std::vector<DatasetShard>(3), 4).ok());
}

TEST(CemparTest, TrainBuildsHomesForEveryTag) {
  Fixture f(12);
  ASSERT_TRUE(f.Train(MakePeerData(12, 8, 1)).ok());
  EXPECT_EQ(f.cempar->NumLiveHomes(), 4u);
  EXPECT_GT(f.cempar->TotalRegionalSupportVectors(), 0u);
}

TEST(CemparTest, PredictionsRecoverTagStructure) {
  Fixture f(12);
  ASSERT_TRUE(f.Train(MakePeerData(12, 10, 2)).ok());
  for (TagId t = 0; t < 4; ++t) {
    P2PPrediction p = f.PredictSync(3, TagVector(t));
    ASSERT_TRUE(p.success);
    ASSERT_EQ(p.scores.size(), 4u);
    EXPECT_EQ(p.tags, (std::vector<TagId>{t})) << "tag " << t;
  }
}

TEST(CemparTest, PredictionsWorkFromEveryRequester) {
  Fixture f(10);
  ASSERT_TRUE(f.Train(MakePeerData(10, 8, 3)).ok());
  for (NodeId r = 0; r < 10; ++r) {
    P2PPrediction p = f.PredictSync(r, TagVector(1));
    ASSERT_TRUE(p.success) << "requester " << r;
    EXPECT_EQ(p.tags, (std::vector<TagId>{1}));
  }
}

TEST(CemparTest, PredictBeforeTrainFails) {
  Fixture f(6);
  ASSERT_TRUE(f.cempar->SetupShards(OwnShards(MakePeerData(6, 4, 4)), 4).ok());
  P2PPrediction p = f.PredictSync(0, TagVector(0));
  EXPECT_FALSE(p.success);
}

TEST(CemparTest, OfflineRequesterFails) {
  Fixture f(8);
  ASSERT_TRUE(f.Train(MakePeerData(8, 6, 5)).ok());
  f.env->net().SetOnline(2, false);
  P2PPrediction p = f.PredictSync(2, TagVector(0));
  EXPECT_FALSE(p.success);
}

TEST(CemparTest, TrainingChargesUploadsAndLookups) {
  Fixture f(10);
  ASSERT_TRUE(f.Train(MakePeerData(10, 6, 6)).ok());
  const NetworkStats& stats = f.env->net().stats();
  EXPECT_GT(stats.messages_sent(MessageType::kModelUpload), 0u);
  EXPECT_GT(stats.messages_sent(MessageType::kLookup), 0u);
  EXPECT_EQ(stats.messages_sent(MessageType::kModelBroadcast), 0u);
}

TEST(CemparTest, PredictionChargesRequestTraffic) {
  Fixture f(10);
  ASSERT_TRUE(f.Train(MakePeerData(10, 6, 7)).ok());
  uint64_t before = f.env->net().stats().messages_sent(
      MessageType::kPredictionRequest);
  f.PredictSync(1, TagVector(2));
  EXPECT_GT(f.env->net().stats().messages_sent(
                MessageType::kPredictionRequest),
            before);
}

TEST(CemparTest, SuperPeerFailureDegradesThenRepairRestores) {
  Fixture f(16);
  ASSERT_TRUE(f.Train(MakePeerData(16, 8, 8)).ok());
  ASSERT_EQ(f.cempar->NumLiveHomes(), 4u);

  // Kill every current super-peer.
  std::set<NodeId> killed;
  for (NodeId owner : f.cempar->HomeOwners()) {
    if (owner != kInvalidNode && killed.insert(owner).second) {
      f.env->net().SetOnline(owner, false);
    }
  }
  EXPECT_EQ(f.cempar->NumLiveHomes(), 0u);

  // Stabilize the ring so lookups route around the dead nodes, then repair.
  f.env->chord()->Bootstrap();
  bool repaired = false;
  f.cempar->RepairRound([&] { repaired = true; });
  f.env->RunUntilFlag(repaired, 3600);
  ASSERT_TRUE(repaired);
  EXPECT_EQ(f.cempar->NumLiveHomes(), 4u);

  // The system answers correctly again (no single point of failure).
  NodeId requester = 0;
  while (killed.count(requester)) ++requester;
  P2PPrediction p = f.PredictSync(requester, TagVector(0));
  ASSERT_TRUE(p.success);
  EXPECT_EQ(p.tags, (std::vector<TagId>{0}));
}

TEST(CemparTest, MultipleRegionsAlsoWork) {
  CemparOptions opt;
  opt.regions_per_tag = 2;
  Fixture f(12, opt);
  ASSERT_TRUE(f.Train(MakePeerData(12, 10, 9)).ok());
  EXPECT_EQ(f.cempar->NumLiveHomes(), 8u);  // 4 tags × 2 regions
  P2PPrediction p = f.PredictSync(5, TagVector(3));
  ASSERT_TRUE(p.success);
  EXPECT_EQ(p.tags, (std::vector<TagId>{3}));
}

TEST(CemparTest, PeersWithoutDataDontContribute) {
  Fixture f(8);
  std::vector<MultiLabelDataset> data = MakePeerData(8, 6, 10);
  data[3] = MultiLabelDataset(4);  // peer 3 empty
  ASSERT_TRUE(f.Train(std::move(data)).ok());
  // Empty peers can still request predictions.
  P2PPrediction p = f.PredictSync(3, TagVector(1));
  EXPECT_TRUE(p.success);
}

}  // namespace
}  // namespace p2pdt
