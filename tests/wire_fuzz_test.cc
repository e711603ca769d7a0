// Fuzz-style hardening tests for the wire format: every truncation prefix
// of a valid model buffer must fail cleanly, deterministic bit flips must
// never crash or read out of bounds (ASan/UBSan builds make this real), and
// hand-crafted oversized length fields must be rejected before any
// allocation is sized from them. Also covers the classifier checkpoint
// Restore paths, which parse the same wire primitives.

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/sanitize.h"
#include "ml/serialization.h"
#include "net/frame.h"
#include "p2pdmt/environment.h"
#include "p2pdmt/experiment.h"
#include "p2pml/cempar.h"
#include "p2pml/pace.h"

namespace p2pdt {
namespace {

LinearSvmModel SampleLinear() {
  return LinearSvmModel(
      SparseVector::FromPairs({{0, 0.5}, {3, -1.25}, {100, 2.0}}), 0.25);
}

KernelSvmModel SampleKernel() {
  std::vector<SupportVector> svs;
  for (uint32_t i = 0; i < 3; ++i) {
    SupportVector sv;
    sv.x = SparseVector::FromPairs({{i, 1.0}, {i + 7, -0.5}});
    sv.y = i % 2 == 0 ? 1.0 : -1.0;
    sv.alpha = 0.25 * (i + 1);
    svs.push_back(std::move(sv));
  }
  return KernelSvmModel(Kernel::Linear(), std::move(svs), -0.125);
}

OneVsAllModel SampleOneVsAll() {
  std::vector<std::unique_ptr<BinaryClassifier>> models;
  models.push_back(std::make_unique<LinearSvmModel>(SampleLinear()));
  models.push_back(nullptr);
  models.push_back(std::make_unique<ConstantClassifier>(-1.0));
  models.push_back(std::make_unique<KernelSvmModel>(SampleKernel()));
  return OneVsAllModel(std::move(models));
}

std::vector<SparseVector> SampleCentroids() {
  return {SparseVector::FromPairs({{1, 0.5}}),
          SparseVector::FromPairs({{2, -0.5}, {9, 1.5}})};
}

/// Patches 4 bytes at `offset` with an absurd little-endian count.
std::string WithCount(std::string blob, std::size_t offset, uint32_t count) {
  for (int i = 0; i < 4; ++i) {
    blob[offset + i] = static_cast<char>(count >> (8 * i));
  }
  return blob;
}

TEST(WireFuzzTest, RoundTripsStayIntact) {
  Result<LinearSvmModel> lin =
      DeserializeLinearSvm(SerializeLinearSvm(SampleLinear()));
  ASSERT_TRUE(lin.ok());
  EXPECT_DOUBLE_EQ(lin->bias(), 0.25);

  Result<KernelSvmModel> ker =
      DeserializeKernelSvm(SerializeKernelSvm(SampleKernel()));
  ASSERT_TRUE(ker.ok());
  EXPECT_EQ(ker->num_support_vectors(), 3u);

  Result<OneVsAllModel> ova =
      DeserializeOneVsAll(SerializeOneVsAll(SampleOneVsAll()));
  ASSERT_TRUE(ova.ok());
  EXPECT_EQ(ova->num_tags(), 4u);
  EXPECT_EQ(ova->model(1), nullptr);

  Result<std::vector<SparseVector>> cent =
      DeserializeCentroids(SerializeCentroids(SampleCentroids()));
  ASSERT_TRUE(cent.ok());
  EXPECT_EQ(cent->size(), 2u);
}

TEST(WireFuzzTest, EveryTruncationPrefixFailsCleanly) {
  // Every byte of a serialized model is load-bearing, so each proper prefix
  // must surface an error (never crash, never return a bogus model).
  const std::string blobs[] = {
      SerializeLinearSvm(SampleLinear()),
      SerializeKernelSvm(SampleKernel()),
      SerializeOneVsAll(SampleOneVsAll()),
      SerializeCentroids(SampleCentroids()),
  };
  for (std::size_t len = 0; len < blobs[0].size(); ++len) {
    EXPECT_FALSE(DeserializeLinearSvm(blobs[0].substr(0, len)).ok()) << len;
  }
  for (std::size_t len = 0; len < blobs[1].size(); ++len) {
    EXPECT_FALSE(DeserializeKernelSvm(blobs[1].substr(0, len)).ok()) << len;
  }
  for (std::size_t len = 0; len < blobs[2].size(); ++len) {
    EXPECT_FALSE(DeserializeOneVsAll(blobs[2].substr(0, len)).ok()) << len;
  }
  for (std::size_t len = 0; len < blobs[3].size(); ++len) {
    EXPECT_FALSE(DeserializeCentroids(blobs[3].substr(0, len)).ok()) << len;
  }
}

TEST(WireFuzzTest, RandomBitFlipsNeverCrash) {
  // Deterministic single-bit corruption across the whole buffer: the parse
  // may succeed (a flipped payload double is still a double) or fail with a
  // status, but must never crash, leak or read out of bounds. Successful
  // parses are additionally run through sanitation, mirroring the ingestion
  // pipeline on a hostile network.
  const std::string blob = SerializeOneVsAll(SampleOneVsAll());
  SanitizeOptions sanitize;
  Rng rng(0xF1A9);
  for (int trial = 0; trial < 400; ++trial) {
    std::string corrupt = blob;
    std::size_t pos = rng.NextU64(corrupt.size());
    corrupt[pos] = static_cast<char>(
        static_cast<uint8_t>(corrupt[pos]) ^ (1u << rng.NextU64(8)));
    Result<OneVsAllModel> model = DeserializeOneVsAll(corrupt);
    if (model.ok()) {
      (void)SanitizeOneVsAll(model.value(), 4, sanitize);
    }
  }

  const std::string kblob = SerializeKernelSvm(SampleKernel());
  for (int trial = 0; trial < 400; ++trial) {
    std::string corrupt = kblob;
    std::size_t pos = rng.NextU64(corrupt.size());
    corrupt[pos] = static_cast<char>(
        static_cast<uint8_t>(corrupt[pos]) ^ (1u << rng.NextU64(8)));
    Result<KernelSvmModel> model = DeserializeKernelSvm(corrupt);
    if (model.ok()) {
      (void)SanitizeKernelModel(model.value(), sanitize);
    }
  }
}

TEST(WireFuzzTest, OversizedCountFieldsRejectedBeforeAllocation) {
  // Layout: magic(4) + version(2), then per-format fields. A count field
  // claiming more elements than the remaining bytes could possibly back
  // must be rejected (DataLoss / InvalidArgument) before any reserve().
  auto expect_rejected = [](const Status& s) {
    EXPECT_TRUE(s.code() == StatusCode::kDataLoss ||
                s.code() == StatusCode::kInvalidArgument)
        << s.ToString();
  };

  // Linear: kind byte at 6, sparse-vector nnz at 7.
  std::string lin = WithCount(SerializeLinearSvm(SampleLinear()), 7,
                              0xFFFFFFFFu);
  expect_rejected(DeserializeLinearSvm(lin).status());

  // OneVsAll: per-tag model count at 6.
  std::string ova = WithCount(SerializeOneVsAll(SampleOneVsAll()), 6,
                              0x7FFFFFFFu);
  expect_rejected(DeserializeOneVsAll(ova).status());

  // Kernel: kind(1) + kernel params(21) + bias(8) put the SV count at 36.
  std::string ker = WithCount(SerializeKernelSvm(SampleKernel()), 36,
                              0x00FFFFFFu);
  expect_rejected(DeserializeKernelSvm(ker).status());

  // Centroids: kind byte at 6, centroid count at 7.
  std::string cent = WithCount(SerializeCentroids(SampleCentroids()), 7,
                               0x00FFFFFFu);
  expect_rejected(DeserializeCentroids(cent).status());
}

// ---------------------------------------------------------------------------
// Socket framing: the newest wire surface. Malformed prefixes against the
// live incremental FrameDecoder — same contract as the model blobs: typed
// reject or need-more, never a crash, never an allocation sized from a
// hostile length.

TEST(WireFuzzTest, FramerSurvivesMalformedPrefixes) {
  PredictRequest req;
  req.id = 11;
  req.requester = 2;
  req.doc = SparseVector::FromPairs({{1, 0.5}, {40, -2.0}});
  const std::string valid =
      EncodeFrame(FrameType::kPredictRequest, EncodePredictRequest(req));

  // Every truncation prefix of a valid frame: kNeedMore (header rejects
  // need the full 9 bytes; a short payload is just un-arrived bytes).
  for (std::size_t len = 0; len < valid.size(); ++len) {
    FrameDecoder decoder;
    ASSERT_TRUE(decoder.Feed(valid.data(), len));
    Frame frame;
    EXPECT_EQ(decoder.Poll(frame), FrameDecoder::Next::kNeedMore) << len;
    EXPECT_FALSE(decoder.poisoned()) << len;
  }

  // Deterministic single-byte corruption anywhere in the frame: the poll
  // either yields a typed reject (header corrupted), a frame whose payload
  // then fails its own typed decode, or — when the length field shrank —
  // a valid-looking shorter frame followed by a poisoned remainder. Never
  // a crash; ASan/UBSan builds make that check real.
  Rng rng(0xF8A3E);
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupt = valid;
    const std::size_t pos = rng.NextU64(corrupt.size());
    corrupt[pos] = static_cast<char>(
        static_cast<uint8_t>(corrupt[pos]) ^ (1u << rng.NextU64(8)));
    FrameDecoder decoder;
    if (!decoder.Feed(corrupt.data(), corrupt.size())) continue;
    Frame frame;
    for (int polls = 0; polls < 4; ++polls) {
      const FrameDecoder::Next verdict = decoder.Poll(frame);
      if (verdict == FrameDecoder::Next::kFrame) {
        (void)DecodePredictRequest(frame.payload);  // typed or ok, no crash
        continue;
      }
      if (verdict != FrameDecoder::Next::kNeedMore) {
        EXPECT_TRUE(decoder.poisoned());
        EXPECT_NE(FrameDecoder::RejectToError(verdict),
                  WireError::kInternal);
      }
      break;
    }
  }

  // Pure garbage streams: random bytes must never crash the decoder, and
  // the buffered total stays bounded even when fed past a reject.
  for (int trial = 0; trial < 50; ++trial) {
    FrameDecoder decoder(/*max_payload=*/512);
    for (int chunk = 0; chunk < 8; ++chunk) {
      std::string bytes;
      const int n = 1 + static_cast<int>(rng.UniformInt(0, 99));
      for (int i = 0; i < n; ++i) {
        bytes.push_back(static_cast<char>(rng.UniformInt(0, 255)));
      }
      if (!decoder.Feed(bytes.data(), bytes.size())) break;
      Frame frame;
      while (decoder.Poll(frame) == FrameDecoder::Next::kFrame) {
      }
      EXPECT_LE(decoder.buffered(), kFrameHeaderBytes + 512 + bytes.size());
    }
  }
}

// ---------------------------------------------------------------------------
// Classifier checkpoint restore: the other wire surface an attacker (or a
// corrupt disk) can reach. Same contract: truncations and garbage fail with
// a status, never a crash.

class RestoreFuzzTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kPeers = 6;

  template <typename Algo>
  void FuzzRestore(Algo& algo, NodeId peer) {
    Result<std::string> snap = algo.Snapshot(peer);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    const std::string& blob = snap.value();

    // Every truncation prefix fails cleanly and leaves the peer usable.
    for (std::size_t len = 0; len < blob.size(); ++len) {
      EXPECT_FALSE(algo.Restore(peer, blob.substr(0, len)).ok()) << len;
    }
    // Deterministic bit flips: error or success, never a crash.
    Rng rng(0xB17F115ull);
    for (int trial = 0; trial < 200; ++trial) {
      std::string corrupt = blob;
      std::size_t pos = rng.NextU64(corrupt.size());
      corrupt[pos] = static_cast<char>(
          static_cast<uint8_t>(corrupt[pos]) ^ (1u << rng.NextU64(8)));
      (void)algo.Restore(peer, corrupt);
    }
    // A pristine snapshot still restores after all that abuse.
    EXPECT_TRUE(algo.Restore(peer, blob).ok());
  }

  std::vector<DatasetShard> Partition() {
    CorpusOptions copt;
    copt.num_users = kPeers;
    copt.min_docs_per_user = 15;
    copt.max_docs_per_user = 20;
    copt.num_tags = 4;
    copt.vocabulary_size = 400;
    copt.seed = 99;
    corpus_ = std::move(MakeVectorizedCorpus(copt)).value();
    DataDistributionOptions dopt;
    dopt.cls = ClassDistribution::kIid;
    return std::move(DistributeDataShared(
                         std::make_shared<const MultiLabelDataset>(
                             corpus_.dataset),
                         kPeers, dopt, &corpus_.doc_user))
        .value();
  }

  VectorizedCorpus corpus_;
};

TEST_F(RestoreFuzzTest, PaceRestoreSurvivesHostileBlobs) {
  EnvironmentOptions eo;
  eo.num_peers = kPeers;
  auto env = std::move(Environment::Create(eo)).value();
  Pace pace(env->sim(), env->net(), env->overlay(), {});
  std::vector<DatasetShard> parts = Partition();
  ASSERT_TRUE(
      pace.SetupShards(std::move(parts), corpus_.dataset.num_tags()).ok());
  bool done = false;
  pace.Train([&](Status s) {
    EXPECT_TRUE(s.ok());
    done = true;
  });
  env->RunUntilFlag(done, 3600);
  ASSERT_TRUE(done);
  FuzzRestore(pace, /*peer=*/0);
}

TEST_F(RestoreFuzzTest, CemparRestoreSurvivesHostileBlobs) {
  EnvironmentOptions eo;
  eo.num_peers = kPeers;
  auto env = std::move(Environment::Create(eo)).value();
  CemparOptions opt;
  opt.svm.kernel = Kernel::Linear();
  Cempar cempar(env->sim(), env->net(), *env->chord(), opt);
  std::vector<DatasetShard> parts = Partition();
  ASSERT_TRUE(
      cempar.SetupShards(std::move(parts), corpus_.dataset.num_tags()).ok());
  bool done = false;
  cempar.Train([&](Status s) {
    EXPECT_TRUE(s.ok());
    done = true;
  });
  env->RunUntilFlag(done, 3600);
  ASSERT_TRUE(done);
  FuzzRestore(cempar, /*peer=*/0);
}

TEST_F(RestoreFuzzTest, PaceRestoreClampsCheckpointedAccuracies) {
  // Satellite regression test for the trust-hole fix at the checkpoint
  // ingestion point: NaN / out-of-range self-reported accuracies inside a
  // snapshot are clamped into [0, 1] on restore. We corrupt the accuracy
  // section in a real snapshot, restore it, and verify the re-snapshotted
  // values come back clamped.
  EnvironmentOptions eo;
  eo.num_peers = kPeers;
  auto env = std::move(Environment::Create(eo)).value();
  Pace pace(env->sim(), env->net(), env->overlay(), {});
  std::vector<DatasetShard> parts = Partition();
  ASSERT_TRUE(
      pace.SetupShards(std::move(parts), corpus_.dataset.num_tags()).ok());
  bool done = false;
  pace.Train([&](Status s) { done = s.ok(); });
  env->RunUntilFlag(done, 3600);
  ASSERT_TRUE(done);

  std::string blob = std::move(pace.Snapshot(0)).value();
  // Walk the snapshot to the accuracy array: version(1) + num_tags(4) +
  // num_peers(4) + valid(1), two length-prefixed byte sections (model,
  // centroids), then the u32 accuracy count.
  std::size_t offset = 1 + 4 + 4 + 1;
  ASSERT_TRUE(wire::GetBytes(blob, offset).ok());
  ASSERT_TRUE(wire::GetBytes(blob, offset).ok());
  Result<uint32_t> n_acc = wire::GetU32(blob, offset);
  ASSERT_TRUE(n_acc.ok());
  ASSERT_GE(n_acc.value(), 2u);

  auto patch_double = [&blob](std::size_t at, double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      blob[at + i] = static_cast<char>(bits >> (8 * i));
    }
  };
  patch_double(offset, std::numeric_limits<double>::quiet_NaN());
  patch_double(offset + 8, 3.5);

  ASSERT_TRUE(pace.Restore(0, blob).ok());
  std::string again = std::move(pace.Snapshot(0)).value();
  std::size_t check = offset;
  Result<double> a0 = wire::GetDouble(again, check);
  Result<double> a1 = wire::GetDouble(again, check);
  ASSERT_TRUE(a0.ok() && a1.ok());
  EXPECT_DOUBLE_EQ(a0.value(), 0.0);  // NaN -> 0
  EXPECT_DOUBLE_EQ(a1.value(), 1.0);  // 3.5 -> 1
}

}  // namespace
}  // namespace p2pdt
