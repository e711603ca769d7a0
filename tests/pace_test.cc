#include "p2pml/pace.h"

#include <gtest/gtest.h>

#include "p2pdmt/environment.h"
#include "peer_data.h"

namespace p2pdt {
namespace {

struct Fixture {
  std::unique_ptr<Environment> env;
  std::unique_ptr<Pace> pace;

  explicit Fixture(std::size_t peers, PaceOptions options = {},
                   OverlayType overlay = OverlayType::kChord) {
    EnvironmentOptions eo;
    eo.num_peers = peers;
    eo.overlay = overlay;
    env = std::move(Environment::Create(eo)).value();
    pace = std::make_unique<Pace>(env->sim(), env->net(), env->overlay(),
                                  options);
  }

  Status Train(std::vector<MultiLabelDataset> data) {
    P2PDT_RETURN_IF_ERROR(pace->SetupShards(OwnShards(std::move(data)), 4));
    bool done = false;
    Status status = Status::OK();
    pace->Train([&](Status s) {
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
    pace->Predict(requester, x, [&](P2PPrediction p) {
      out = std::move(p);
      done = true;
    });
    env->RunUntilFlag(done, 3600);
    EXPECT_TRUE(done);
    return out;
  }
};

TEST(PaceTest, SetupRequiresMatchingPeerCount) {
  Fixture f(8);
  EXPECT_FALSE(f.pace->SetupShards(std::vector<DatasetShard>(3), 4).ok());
}

TEST(PaceTest, FullCoverageOnStableNetwork) {
  Fixture f(10);
  ASSERT_TRUE(f.Train(MakePeerData(10, 8, 1)).ok());
  EXPECT_DOUBLE_EQ(f.pace->ModelCoverage(), 1.0);
}

TEST(PaceTest, PredictionsRecoverTagStructure) {
  Fixture f(10);
  ASSERT_TRUE(f.Train(MakePeerData(10, 10, 2)).ok());
  for (TagId t = 0; t < 4; ++t) {
    P2PPrediction p = f.PredictSync(4, TagVector(t));
    ASSERT_TRUE(p.success);
    EXPECT_EQ(p.tags, (std::vector<TagId>{t})) << "tag " << t;
  }
}

TEST(PaceTest, PredictionIsCommunicationFree) {
  Fixture f(10);
  ASSERT_TRUE(f.Train(MakePeerData(10, 8, 3)).ok());
  uint64_t before = f.env->net().stats().messages_sent();
  for (int i = 0; i < 10; ++i) f.PredictSync(2, TagVector(1));
  EXPECT_EQ(f.env->net().stats().messages_sent(), before);
}

TEST(PaceTest, TrainingUsesBroadcasts) {
  Fixture f(10);
  ASSERT_TRUE(f.Train(MakePeerData(10, 8, 4)).ok());
  EXPECT_GT(
      f.env->net().stats().messages_sent(MessageType::kModelBroadcast), 0u);
  EXPECT_EQ(f.env->net().stats().messages_sent(MessageType::kModelUpload),
            0u);
}

TEST(PaceTest, WorksOnUnstructuredOverlay) {
  Fixture f(12, PaceOptions(), OverlayType::kUnstructured);
  ASSERT_TRUE(f.Train(MakePeerData(12, 8, 5)).ok());
  EXPECT_GT(f.pace->ModelCoverage(), 0.9);
  P2PPrediction p = f.PredictSync(6, TagVector(2));
  ASSERT_TRUE(p.success);
  EXPECT_EQ(p.tags, (std::vector<TagId>{2}));
}

TEST(PaceTest, OfflinePeersMissBroadcasts) {
  Fixture f(10);
  std::vector<MultiLabelDataset> data = MakePeerData(10, 8, 6);
  ASSERT_TRUE(f.pace->SetupShards(OwnShards(std::move(data)), 4).ok());
  f.env->net().SetOnline(7, false);
  bool done = false;
  f.pace->Train([&](Status) { done = true; });
  f.env->RunUntilFlag(done, 3600);
  ASSERT_TRUE(done);
  // Peer 7 contributed nothing and received nothing (coverage counts
  // online peers, so bring it back before measuring).
  f.env->net().SetOnline(7, true);
  EXPECT_LT(f.pace->ModelCoverage(), 1.0);
  // Back online it can still predict with whatever it has (only itself —
  // nothing), so prediction fails or uses zero models.
  P2PPrediction p = f.PredictSync(7, TagVector(0));
  EXPECT_FALSE(p.success);
}

TEST(PaceTest, UninformedModelsAbstain) {
  // Peer 0 knows only tag 0; its vote must not drag down tag 3 scores.
  Fixture f(6);
  std::vector<MultiLabelDataset> peers(6, MultiLabelDataset(4));
  Rng rng(7);
  for (std::size_t p = 0; p < 6; ++p) {
    for (int i = 0; i < 8; ++i) {
      TagId tag = (p == 0) ? 0 : static_cast<TagId>((p + i) % 4);
      MultiLabelExample ex;
      ex.x = SparseVector::FromPairs(
          {{tag * 3 + static_cast<uint32_t>(rng.NextU64(3)), 1.0}});
      ex.tags = {tag};
      peers[p].Add(std::move(ex));
    }
  }
  ASSERT_TRUE(f.Train(std::move(peers)).ok());
  P2PPrediction p = f.PredictSync(0, TagVector(3));
  ASSERT_TRUE(p.success);
  EXPECT_EQ(p.tags, (std::vector<TagId>{3}));
}

TEST(PaceTest, PredictBeforeTrainFails) {
  Fixture f(6);
  ASSERT_TRUE(f.pace->SetupShards(OwnShards(MakePeerData(6, 4, 8)), 4).ok());
  EXPECT_FALSE(f.PredictSync(0, TagVector(0)).success);
}

TEST(PaceTest, TopKOneStillPredicts) {
  PaceOptions opt;
  opt.top_k = 1;
  Fixture f(8, opt);
  ASSERT_TRUE(f.Train(MakePeerData(8, 10, 9)).ok());
  P2PPrediction p = f.PredictSync(3, TagVector(1));
  ASSERT_TRUE(p.success);
  EXPECT_FALSE(p.tags.empty());
}

TEST(PaceTest, ScoresExposeConfidences) {
  Fixture f(8);
  ASSERT_TRUE(f.Train(MakePeerData(8, 10, 10)).ok());
  P2PPrediction p = f.PredictSync(1, TagVector(2));
  ASSERT_TRUE(p.success);
  ASSERT_EQ(p.scores.size(), 4u);
  // The true tag's score dominates.
  for (TagId t = 0; t < 4; ++t) {
    if (t != 2) {
      EXPECT_GT(p.scores[2], p.scores[t]);
    }
  }
}

}  // namespace
}  // namespace p2pdt
