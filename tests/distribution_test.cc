#include "p2pdmt/data_distribution.h"

#include <memory>
#include <set>
#include <gtest/gtest.h>

namespace p2pdt {
namespace {

MultiLabelDataset MakeData(std::size_t n, TagId num_tags) {
  MultiLabelDataset d(num_tags);
  for (std::size_t i = 0; i < n; ++i) {
    MultiLabelExample ex;
    ex.x = SparseVector::FromPairs({{static_cast<uint32_t>(i), 1.0}});
    ex.tags = {static_cast<TagId>(i % num_tags)};
    d.Add(std::move(ex));
  }
  return d;
}

Result<std::vector<DatasetShard>> Distribute(
    const MultiLabelDataset& data, std::size_t num_peers,
    const DataDistributionOptions& options,
    const std::vector<std::size_t>* doc_user = nullptr) {
  return DistributeDataShared(std::make_shared<const MultiLabelDataset>(data),
                              num_peers, options, doc_user);
}

std::size_t TotalAssigned(const std::vector<DatasetShard>& peers) {
  std::size_t total = 0;
  for (const auto& p : peers) total += p.size();
  return total;
}

TEST(DistributionTest, RejectsZeroPeers) {
  EXPECT_FALSE(Distribute(MakeData(10, 2), 0, {}).ok());
}

TEST(DistributionTest, EveryExampleAssignedExactlyOnce) {
  MultiLabelDataset d = MakeData(200, 4);
  for (auto size : {SizeDistribution::kUniform, SizeDistribution::kZipf}) {
    for (auto cls :
         {ClassDistribution::kIid, ClassDistribution::kNonIidDirichlet}) {
      DataDistributionOptions opt;
      opt.size = size;
      opt.cls = cls;
      Result<std::vector<DatasetShard>> peers =
          Distribute(d, 16, opt);
      ASSERT_TRUE(peers.ok());
      EXPECT_EQ(peers->size(), 16u);
      EXPECT_EQ(TotalAssigned(peers.value()), 200u);
      // Uniqueness: every feature id (== example id) appears once.
      std::set<uint32_t> seen;
      for (const auto& p : peers.value()) {
        for (std::size_t i = 0; i < p.size(); ++i) {
          EXPECT_TRUE(seen.insert(p[i].x.entries().front().first).second);
        }
      }
    }
  }
}

TEST(DistributionTest, UntaggedExamplesAreAssigned) {
  // Untagged documents have no tag pool to be drawn from under non-IID;
  // they must still land on exactly one peer.
  MultiLabelDataset d;
  for (uint32_t i = 0; i < 10; ++i) {
    d.Add({SparseVector::FromPairs({{i, 1.0}}), {}});
  }
  for (auto cls :
       {ClassDistribution::kIid, ClassDistribution::kNonIidDirichlet}) {
    DataDistributionOptions opt;
    opt.cls = cls;
    Result<std::vector<DatasetShard>> peers = Distribute(d, 4, opt);
    ASSERT_TRUE(peers.ok());
    EXPECT_EQ(TotalAssigned(peers.value()), 10u)
        << ClassDistributionToString(cls);
  }
}

TEST(DistributionTest, UniformSizesAreBalanced) {
  DataDistributionOptions opt;
  Result<std::vector<DatasetShard>> peers =
      Distribute(MakeData(160, 4), 16, opt);
  ASSERT_TRUE(peers.ok());
  DistributionSummary s = SummarizeDistribution(peers.value(), 4);
  EXPECT_EQ(s.num_examples, 160u);
  EXPECT_GE(s.min_peer_size, 8u);
  EXPECT_LE(s.max_peer_size, 12u);
  EXPECT_LT(s.size_gini, 0.1);
}

TEST(DistributionTest, ZipfSizesAreSkewed) {
  DataDistributionOptions uniform;
  DataDistributionOptions zipf;
  zipf.size = SizeDistribution::kZipf;
  zipf.size_zipf_exponent = 1.2;
  MultiLabelDataset d = MakeData(400, 4);
  DistributionSummary su =
      SummarizeDistribution(Distribute(d, 20, uniform).value(), 4);
  DistributionSummary sz =
      SummarizeDistribution(Distribute(d, 20, zipf).value(), 4);
  EXPECT_GT(sz.size_gini, su.size_gini + 0.2);
  EXPECT_GT(sz.max_peer_size, su.max_peer_size);
}

TEST(DistributionTest, NonIidReducesTagCoverage) {
  MultiLabelDataset d = MakeData(400, 8);
  DataDistributionOptions iid;
  DataDistributionOptions non_iid;
  non_iid.cls = ClassDistribution::kNonIidDirichlet;
  non_iid.dirichlet_alpha = 0.05;
  DistributionSummary si =
      SummarizeDistribution(Distribute(d, 10, iid).value(), 8);
  DistributionSummary sn =
      SummarizeDistribution(Distribute(d, 10, non_iid).value(), 8);
  EXPECT_LT(sn.mean_tag_coverage, si.mean_tag_coverage - 0.1);
}

TEST(DistributionTest, ByUserFollowsOwnership) {
  MultiLabelDataset d = MakeData(40, 2);
  std::vector<std::size_t> doc_user;
  for (std::size_t i = 0; i < 40; ++i) doc_user.push_back(i % 4);
  DataDistributionOptions opt;
  opt.cls = ClassDistribution::kByUser;
  Result<std::vector<DatasetShard>> peers =
      Distribute(d, 4, opt, &doc_user);
  ASSERT_TRUE(peers.ok());
  for (const auto& p : peers.value()) EXPECT_EQ(p.size(), 10u);
  // Peer p must hold exactly the docs with user ≡ p (mod 4).
  for (std::size_t p = 0; p < 4; ++p) {
    const DatasetShard& shard = (*peers)[p];
    for (std::size_t i = 0; i < shard.size(); ++i) {
      EXPECT_EQ(shard[i].x.entries().front().first % 4, p);
    }
  }
}

TEST(DistributionTest, ByUserWrapsWhenMorePeersThanUsers) {
  MultiLabelDataset d = MakeData(20, 2);
  std::vector<std::size_t> doc_user(20, 7);  // single user id 7
  DataDistributionOptions opt;
  opt.cls = ClassDistribution::kByUser;
  Result<std::vector<DatasetShard>> peers =
      Distribute(d, 4, opt, &doc_user);
  ASSERT_TRUE(peers.ok());
  EXPECT_EQ((*peers)[7 % 4].size(), 20u);
}

TEST(DistributionTest, ByUserRequiresMapping) {
  DataDistributionOptions opt;
  opt.cls = ClassDistribution::kByUser;
  EXPECT_FALSE(Distribute(MakeData(10, 2), 4, opt, nullptr).ok());
  std::vector<std::size_t> wrong_size(3, 0);
  EXPECT_FALSE(Distribute(MakeData(10, 2), 4, opt, &wrong_size).ok());
}

TEST(DistributionTest, EmptyDatasetGivesEmptyPeers) {
  Result<std::vector<DatasetShard>> peers =
      Distribute(MultiLabelDataset(3), 5, {});
  ASSERT_TRUE(peers.ok());
  EXPECT_EQ(peers->size(), 5u);
  EXPECT_EQ(TotalAssigned(peers.value()), 0u);
}

TEST(DistributionTest, DeterministicInSeed) {
  MultiLabelDataset d = MakeData(100, 4);
  DataDistributionOptions opt;
  opt.size = SizeDistribution::kZipf;
  auto a = Distribute(d, 8, opt);
  auto b = Distribute(d, 8, opt);
  ASSERT_TRUE(a.ok() && b.ok());
  for (std::size_t p = 0; p < 8; ++p) {
    ASSERT_EQ((*a)[p].size(), (*b)[p].size());
    for (std::size_t i = 0; i < (*a)[p].size(); ++i) {
      EXPECT_EQ((*a)[p][i].x, (*b)[p][i].x);
    }
  }
}

TEST(DistributionTest, SummaryToStringMentionsGini) {
  DistributionSummary s =
      SummarizeDistribution(Distribute(MakeData(50, 2), 5, {}).value(),
                            2);
  EXPECT_NE(s.ToString().find("gini"), std::string::npos);
}

TEST(DistributionTest, EnumNames) {
  EXPECT_STREQ(SizeDistributionToString(SizeDistribution::kZipf), "zipf");
  EXPECT_STREQ(ClassDistributionToString(ClassDistribution::kByUser),
               "by_user");
}

}  // namespace
}  // namespace p2pdt
