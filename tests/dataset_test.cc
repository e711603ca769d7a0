#include "ml/dataset.h"

#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace p2pdt {
namespace {

MultiLabelExample Ex(std::vector<SparseVector::Entry> features,
                     std::vector<TagId> tags) {
  MultiLabelExample ex;
  ex.x = SparseVector::FromPairs(std::move(features));
  ex.tags = std::move(tags);
  return ex;
}

TEST(MultiLabelDatasetTest, AddSortsAndDedupsTags) {
  MultiLabelDataset d;
  d.Add(Ex({{0, 1.0}}, {3, 1, 3}));
  EXPECT_EQ(d[0].tags, (std::vector<TagId>{1, 3}));
  EXPECT_EQ(d.num_tags(), 4u);  // max tag id + 1
}

TEST(MultiLabelDatasetTest, HasTagUsesBinarySearch) {
  MultiLabelDataset d;
  d.Add(Ex({{0, 1.0}}, {5, 2}));
  EXPECT_TRUE(d[0].HasTag(2));
  EXPECT_TRUE(d[0].HasTag(5));
  EXPECT_FALSE(d[0].HasTag(3));
}

TEST(MultiLabelDatasetTest, OneAgainstAllLabels) {
  MultiLabelDataset d(3);
  d.Add(Ex({{0, 1.0}}, {0}));
  d.Add(Ex({{1, 1.0}}, {1, 2}));
  d.Add(Ex({{2, 1.0}}, {2}));
  std::vector<Example> bin = d.OneAgainstAll(2);
  ASSERT_EQ(bin.size(), 3u);
  EXPECT_EQ(bin[0].y, -1.0);
  EXPECT_EQ(bin[1].y, 1.0);
  EXPECT_EQ(bin[2].y, 1.0);
}

TEST(MultiLabelDatasetTest, TagCounts) {
  MultiLabelDataset d(3);
  d.Add(Ex({{0, 1.0}}, {0, 1}));
  d.Add(Ex({{1, 1.0}}, {1}));
  std::vector<std::size_t> counts = d.TagCounts();
  EXPECT_EQ(counts, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(MultiLabelDatasetTest, SplitProportionsAndCoverage) {
  MultiLabelDataset d(2);
  for (int i = 0; i < 100; ++i) {
    d.Add(Ex({{static_cast<uint32_t>(i), 1.0}}, {static_cast<TagId>(i % 2)}));
  }
  Rng rng(3);
  auto [train, test] = d.Split(0.2, rng);
  EXPECT_EQ(train.size(), 20u);
  EXPECT_EQ(test.size(), 80u);
  EXPECT_EQ(train.num_tags(), 2u);
  // Every example appears exactly once across the two halves.
  std::set<uint32_t> seen;
  for (const auto& ex : train.examples()) {
    seen.insert(ex.x.entries().front().first);
  }
  for (const auto& ex : test.examples()) {
    seen.insert(ex.x.entries().front().first);
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(MultiLabelDatasetTest, SplitIsDeterministicInSeed) {
  MultiLabelDataset d(2);
  for (int i = 0; i < 30; ++i) {
    d.Add(Ex({{static_cast<uint32_t>(i), 1.0}}, {0}));
  }
  Rng r1(9), r2(9);
  auto [a_train, a_test] = d.Split(0.5, r1);
  auto [b_train, b_test] = d.Split(0.5, r2);
  ASSERT_EQ(a_train.size(), b_train.size());
  for (std::size_t i = 0; i < a_train.size(); ++i) {
    EXPECT_EQ(a_train[i].x, b_train[i].x);
  }
}

TEST(MultiLabelDatasetTest, MergeCombinesAndGrowsTagUniverse) {
  MultiLabelDataset a(2), b(5);
  a.Add(Ex({{0, 1.0}}, {0}));
  b.Add(Ex({{1, 1.0}}, {4}));
  a.Merge(DatasetShard::Own(b));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.num_tags(), 5u);
}

TEST(MultiLabelDatasetTest, WireSizeAccounts) {
  MultiLabelDataset d;
  d.Add(Ex({{0, 1.0}, {1, 2.0}}, {0, 1}));
  // vector (4 + 2*12) + tag header 4 + 2 tags * 4.
  EXPECT_EQ(d.WireSize(), 28u + 4u + 8u);
}

MultiLabelDataset ShardCorpus() {
  MultiLabelDataset d(6);
  for (uint32_t i = 0; i < 64; ++i) {
    d.Add(Ex({{i, 1.0}, {i + 100, 0.5 * (i % 7)}},
             {static_cast<TagId>(i % 6), static_cast<TagId>((i * 3) % 6)}));
  }
  return d;
}

TEST(DatasetShardTest, AccessorsMatchMaterializedCopy) {
  auto corpus = std::make_shared<const MultiLabelDataset>(ShardCorpus());
  DatasetShard shard(corpus, {3, 7, 7, 11, 42, 63});
  MultiLabelDataset copy = shard.Materialize();
  ASSERT_EQ(shard.size(), copy.size());
  EXPECT_EQ(shard.num_tags(), copy.num_tags());
  EXPECT_EQ(shard.TagCounts(), copy.TagCounts());
  EXPECT_EQ(shard.WireSize(), copy.WireSize());
  for (std::size_t i = 0; i < shard.size(); ++i) {
    EXPECT_EQ(shard[i].x, copy[i].x);
    EXPECT_EQ(shard[i].tags, copy[i].tags);
  }
  for (TagId t = 0; t < shard.num_tags(); ++t) {
    std::vector<Example> a = shard.OneAgainstAll(t);
    std::vector<Example> b = copy.OneAgainstAll(t);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].x, b[i].x);
      EXPECT_EQ(a[i].y, b[i].y);
    }
  }
}

TEST(DatasetShardTest, OwnWrapsDataAsSinglePeerCorpus) {
  DatasetShard shard = DatasetShard::Own(ShardCorpus());
  EXPECT_EQ(shard.size(), 64u);
  EXPECT_EQ(shard.num_tags(), 6u);
  EXPECT_EQ(shard[5].tags, ShardCorpus()[5].tags);
}

TEST(DatasetShardTest, SetNumTagsGrowsButNeverShrinks) {
  auto corpus = std::make_shared<const MultiLabelDataset>(ShardCorpus());
  DatasetShard shard(corpus, {0, 1});
  shard.set_num_tags(9);
  EXPECT_EQ(shard.num_tags(), 9u);
  shard.set_num_tags(2);
  EXPECT_EQ(shard.num_tags(), 9u);
}

TEST(DatasetShardTest, PerPeerFootprintIsIndicesNotDocuments) {
  auto corpus = std::make_shared<const MultiLabelDataset>(ShardCorpus());
  // 1000 flyweight peers, 16 docs each, over the one shared corpus.
  std::vector<DatasetShard> peers;
  std::size_t total_footprint = 0;
  std::size_t total_materialized = 0;
  for (uint32_t p = 0; p < 1000; ++p) {
    std::vector<uint32_t> idx;
    for (uint32_t k = 0; k < 16; ++k) idx.push_back((p * 17 + k * 5) % 64);
    peers.emplace_back(corpus, std::move(idx));
    total_footprint += peers.back().FootprintBytes();
    total_materialized += peers.back().WireSize();
  }
  // Each peer is charged the shard header plus one uint32_t per held doc —
  // documents themselves live once, in the shared corpus.
  const std::size_t per_peer = peers[0].FootprintBytes();
  EXPECT_GE(per_peer, 16u * sizeof(uint32_t));
  EXPECT_LE(per_peer, sizeof(DatasetShard) + 2 * 16 * sizeof(uint32_t));
  // The fleet's flyweight state is far below what materialized per-peer
  // copies would cost (the pre-refactor engine's memory model).
  EXPECT_LT(total_footprint, total_materialized / 3);
}

TEST(FeatureRemapperTest, CompactRoundTrip) {
  FeatureRemapper remap;
  SparseVector v =
      SparseVector::FromPairs({{1000000, 1.0}, {5, 2.0}, {70000, 3.0}});
  remap.Observe(v);
  EXPECT_EQ(remap.num_features(), 3u);
  SparseVector compact = remap.ToCompact(v);
  EXPECT_EQ(compact.nnz(), 3u);
  EXPECT_LT(compact.DimensionBound(), 4u);
  SparseVector back = remap.ToGlobal(compact);
  EXPECT_EQ(back, v);
}

TEST(FeatureRemapperTest, UnseenFeaturesDropped) {
  FeatureRemapper remap;
  remap.Observe(SparseVector::FromPairs({{1, 1.0}}));
  SparseVector v = SparseVector::FromPairs({{1, 5.0}, {2, 7.0}});
  SparseVector compact = remap.ToCompact(v);
  EXPECT_EQ(compact.nnz(), 1u);
}

TEST(FeatureRemapperTest, DenseToGlobal) {
  FeatureRemapper remap;
  remap.Observe(SparseVector::FromPairs({{42, 1.0}, {7, 1.0}}));
  // Compact ids are assigned in observation order: 7 -> ? (sorted entries:
  // 7 first), 42 second.
  SparseVector out = remap.DenseToGlobal({1.5, 0.0});
  EXPECT_EQ(out.nnz(), 1u);
  EXPECT_DOUBLE_EQ(out.Get(7), 1.5);
}

TEST(FeatureRemapperTest, PreservesDotProducts) {
  FeatureRemapper remap;
  SparseVector a = SparseVector::FromPairs({{10, 1.0}, {999, 2.0}});
  SparseVector b = SparseVector::FromPairs({{10, 3.0}, {500, 4.0}});
  remap.Observe(a);
  remap.Observe(b);
  EXPECT_DOUBLE_EQ(remap.ToCompact(a).Dot(remap.ToCompact(b)), a.Dot(b));
}

}  // namespace
}  // namespace p2pdt
