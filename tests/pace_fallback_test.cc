// Regression: PACE's LSH under-recall fallback must rank models exactly
// like brute-force scoring. Config A (1 table x 30 bits) makes bucket
// collisions essentially impossible, forcing the fallback scan on every
// prediction; config B (0 bits) collapses every centroid into one bucket,
// so the LSH path itself enumerates all candidates. Both must produce
// bit-identical predictions — the fallback is a correctness guarantee, not
// an approximation.

#include <gtest/gtest.h>

#include "ml/lsh.h"
#include "p2pdmt/environment.h"
#include "p2pml/pace.h"
#include "peer_data.h"

namespace p2pdt {
namespace {

struct Fixture {
  std::unique_ptr<Environment> env;
  std::unique_ptr<Pace> pace;

  explicit Fixture(std::size_t peers, PaceOptions options) {
    EnvironmentOptions eo;
    eo.num_peers = peers;
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

SparseVector QueryVector(uint64_t i) {
  Rng rng(1000 + i);
  return SparseVector::FromPairs(
      {{static_cast<uint32_t>(rng.NextU64(12)), 1.0},
       {static_cast<uint32_t>(12 + rng.NextU64(4)), 0.5},
       {static_cast<uint32_t>(rng.NextU64(12)), 0.25}});
}

// Premise check: 1 table x 30 bits yields no collisions for sparse vectors
// like ours, so QueryAtLeast (multi-probe flips one bit at a time) cannot
// reach the candidate floor and PACE must take its brute-force fallback.
TEST(PaceFallbackTest, WideSignaturesUnderRecall) {
  LshOptions wide;
  wide.num_tables = 1;
  wide.num_bits = 30;
  CosineLsh index(wide);
  for (uint64_t i = 0; i < 20; ++i) index.Insert(i, QueryVector(i));
  std::size_t found = index.QueryAtLeast(QueryVector(99), 5).size();
  EXPECT_LT(found, 5u);

  // 0 bits: one bucket, everything collides — the exhaustive LSH path.
  LshOptions flat;
  flat.num_tables = 1;
  flat.num_bits = 0;
  CosineLsh all(flat);
  for (uint64_t i = 0; i < 20; ++i) all.Insert(i, QueryVector(i));
  EXPECT_EQ(all.Query(QueryVector(99)).size(), 20u);
}

TEST(PaceFallbackTest, FallbackRanksIdenticallyToBruteForce) {
  const std::size_t kPeers = 10;

  // Config A: fallback fires (top_k=5 can never be met from an empty
  // candidate set). Config B: the LSH path enumerates every centroid.
  PaceOptions fallback_opt;
  fallback_opt.top_k = 5;
  fallback_opt.lsh.num_tables = 1;
  fallback_opt.lsh.num_bits = 30;

  PaceOptions exhaustive_opt;
  exhaustive_opt.top_k = 5;
  exhaustive_opt.lsh.num_tables = 1;
  exhaustive_opt.lsh.num_bits = 0;

  Fixture a(kPeers, fallback_opt);
  Fixture b(kPeers, exhaustive_opt);
  ASSERT_TRUE(a.Train(MakePeerData(kPeers, 10, 31)).ok());
  ASSERT_TRUE(b.Train(MakePeerData(kPeers, 10, 31)).ok());

  for (uint64_t i = 0; i < 16; ++i) {
    SparseVector x = QueryVector(i);
    NodeId requester = i % kPeers;
    P2PPrediction pa = a.PredictSync(requester, x);
    P2PPrediction pb = b.PredictSync(requester, x);
    ASSERT_EQ(pa.success, pb.success) << "query " << i;
    EXPECT_EQ(pa.tags, pb.tags) << "query " << i;
    ASSERT_EQ(pa.scores.size(), pb.scores.size());
    for (std::size_t t = 0; t < pa.scores.size(); ++t) {
      // Bit-identical: the same model set scored with the same arithmetic.
      EXPECT_EQ(pa.scores[t], pb.scores[t]) << "query " << i << " tag " << t;
    }
  }
}

}  // namespace
}  // namespace p2pdt
