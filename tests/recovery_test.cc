#include "p2pdmt/recovery.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "p2pdmt/environment.h"
#include "p2pdmt/evaluation.h"
#include "p2pdmt/recovery_experiment.h"
#include "p2pml/cempar.h"
#include "p2pml/pace.h"
#include "peer_data.h"

namespace p2pdt {
namespace {

namespace fs = std::filesystem;

/// Per-test scratch directory (unique per fixture instance, so `ctest -j`
/// and in-process repetition never collide).
std::string ScratchDir(const void* self) {
  return ::testing::TempDir() + "/p2pdt_recovery_" +
         std::to_string(reinterpret_cast<uintptr_t>(self));
}

struct Fixture {
  std::unique_ptr<Environment> env;
  std::unique_ptr<P2PClassifier> algo;

  Fixture(AlgorithmType type, std::size_t peers,
          ChurnType churn = ChurnType::kNone) {
    EnvironmentOptions eo;
    eo.num_peers = peers;
    eo.churn = churn;
    eo.churn_mean_online_sec = 20.0;
    eo.churn_mean_offline_sec = 5.0;
    env = std::move(Environment::Create(eo)).value();
    if (type == AlgorithmType::kCempar) {
      CemparOptions opt;
      opt.svm.kernel = Kernel::Linear();
      algo = std::make_unique<Cempar>(env->sim(), env->net(), *env->chord(),
                                      opt);
    } else {
      algo = std::make_unique<Pace>(env->sim(), env->net(), env->overlay(),
                                    PaceOptions{});
    }
  }

  Status Train(std::vector<MultiLabelDataset> data) {
    P2PDT_RETURN_IF_ERROR(algo->SetupShards(OwnShards(std::move(data)), 4));
    bool done = false;
    Status status = Status::OK();
    algo->Train([&](Status s) {
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
    algo->Predict(requester, x, [&](P2PPrediction p) {
      out = std::move(p);
      done = true;
    });
    env->RunUntilFlag(done, 3600);
    EXPECT_TRUE(done);
    return out;
  }

  void ResyncSync(NodeId peer) {
    bool done = false;
    algo->ResyncPeer(peer, [&] { done = true; });
    env->RunUntilFlag(done, 3600);
    EXPECT_TRUE(done);
  }
};

// --- Snapshot / Restore round trips ------------------------------------

class SnapshotRestoreTest : public ::testing::TestWithParam<AlgorithmType> {};

TEST_P(SnapshotRestoreTest, RoundTripIsByteExact) {
  Fixture f(GetParam(), 10);
  ASSERT_TRUE(f.Train(MakePeerData(10, 8, 1)).ok());
  ASSERT_TRUE(f.algo->SupportsDurability());

  Result<std::string> blob = f.algo->Snapshot(3);
  ASSERT_TRUE(blob.ok());
  EXPECT_FALSE(blob->empty());

  f.algo->EvictPeer(3);
  ASSERT_TRUE(f.algo->Restore(3, *blob).ok());

  Result<std::string> again = f.algo->Snapshot(3);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *blob);
}

TEST_P(SnapshotRestoreTest, ColdRestartReproducesSnapshotBitwise) {
  // Deterministic training is the keystone of the recovery design: a cold
  // retrain (plus one anti-entropy round to re-fetch replicated state, e.g.
  // PACE's received-bundle row) must land on exactly the state the
  // checkpoint would have restored.
  Fixture f(GetParam(), 10);
  ASSERT_TRUE(f.Train(MakePeerData(10, 8, 2)).ok());

  Result<std::string> before = f.algo->Snapshot(4);
  ASSERT_TRUE(before.ok());

  f.algo->EvictPeer(4);
  std::size_t refit = f.algo->ColdRestart(4);
  EXPECT_GT(refit, 0u);
  f.ResyncSync(4);

  Result<std::string> after = f.algo->Snapshot(4);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *before);
}

TEST_P(SnapshotRestoreTest, RestoreRejectsGarbage) {
  Fixture f(GetParam(), 8);
  ASSERT_TRUE(f.Train(MakePeerData(8, 6, 3)).ok());
  EXPECT_FALSE(f.algo->Restore(2, "").ok());
  EXPECT_FALSE(f.algo->Restore(2, "not a snapshot").ok());
  Result<std::string> blob = f.algo->Snapshot(2);
  ASSERT_TRUE(blob.ok());
  EXPECT_FALSE(f.algo->Restore(2, blob->substr(0, blob->size() / 2)).ok());
  // Rejection leaves the peer restorable from the intact blob.
  ASSERT_TRUE(f.algo->Restore(2, *blob).ok());
}

INSTANTIATE_TEST_SUITE_P(Protocols, SnapshotRestoreTest,
                         ::testing::Values(AlgorithmType::kCempar,
                                           AlgorithmType::kPace),
                         [](const auto& info) {
                           return std::string(
                               AlgorithmTypeToString(info.param));
                         });

// --- PACE-specific observable state -------------------------------------

TEST(PaceRecoveryTest, RestorePreservesPredictionsBitwise) {
  Fixture f(AlgorithmType::kPace, 10);
  ASSERT_TRUE(f.Train(MakePeerData(10, 8, 4)).ok());
  auto* pace = dynamic_cast<Pace*>(f.algo.get());
  ASSERT_NE(pace, nullptr);
  EXPECT_DOUBLE_EQ(pace->ModelCoverage(), 1.0);

  std::vector<P2PPrediction> baseline;
  for (TagId t = 0; t < 4; ++t) baseline.push_back(f.PredictSync(2, TagVector(t)));

  Result<std::string> blob = f.algo->Snapshot(2);
  ASSERT_TRUE(blob.ok());
  f.algo->EvictPeer(2);
  EXPECT_LT(pace->ModelCoverage(), 1.0);  // the evicted row is really gone
  ASSERT_TRUE(f.algo->Restore(2, *blob).ok());
  EXPECT_DOUBLE_EQ(pace->ModelCoverage(), 1.0);

  for (TagId t = 0; t < 4; ++t) {
    P2PPrediction p = f.PredictSync(2, TagVector(t));
    EXPECT_EQ(p.tags, baseline[t].tags) << "tag " << t;
    EXPECT_EQ(p.scores, baseline[t].scores) << "tag " << t;
  }
}

TEST(PaceRecoveryTest, ColdRestartPlusResyncRecoversCoverage) {
  Fixture f(AlgorithmType::kPace, 10);
  ASSERT_TRUE(f.Train(MakePeerData(10, 8, 5)).ok());
  auto* pace = dynamic_cast<Pace*>(f.algo.get());

  std::vector<P2PPrediction> baseline;
  for (TagId t = 0; t < 4; ++t) baseline.push_back(f.PredictSync(6, TagVector(t)));

  f.algo->EvictPeer(6);
  EXPECT_GT(f.algo->ColdRestart(6), 0u);
  // Own bundle back, everyone else's still missing until anti-entropy runs.
  EXPECT_LT(pace->ModelCoverage(), 1.0);
  f.ResyncSync(6);
  EXPECT_DOUBLE_EQ(pace->ModelCoverage(), 1.0);

  for (TagId t = 0; t < 4; ++t) {
    P2PPrediction p = f.PredictSync(6, TagVector(t));
    EXPECT_EQ(p.tags, baseline[t].tags) << "tag " << t;
    EXPECT_EQ(p.scores, baseline[t].scores) << "tag " << t;
  }
}

// --- RecoveryCoordinator under real churn --------------------------------

class CoordinatorTest : public ::testing::Test {
 protected:
  void TearDown() override { fs::remove_all(ScratchDir(this)); }

  /// Trains on a stable network, checkpoints, then lets churn run with the
  /// coordinator attached. Returns the coordinator's stats.
  RecoveryStats RunChurnWindow(RecoveryOptions options,
                               bool corrupt_checkpoints_on_disk = false) {
    Fixture f(AlgorithmType::kPace, 12, ChurnType::kExponential);
    EXPECT_TRUE(f.Train(MakePeerData(12, 8, 6)).ok());

    CheckpointManager checkpoints(ScratchDir(this));
    options.enabled = true;
    RecoveryCoordinator coord(f.env->sim(), f.env->net(), f.env->churn(),
                              *f.algo, checkpoints, options);
    EXPECT_TRUE(coord.CheckpointAll().ok());
    EXPECT_EQ(checkpoints.Keys().size(), 12u);

    if (corrupt_checkpoints_on_disk) {
      for (const std::string& key : checkpoints.Keys()) {
        std::string path = ScratchDir(this) + "/" + key + ".ckpt";
        std::fstream file(path, std::ios::in | std::ios::out |
                                    std::ios::binary);
        file.seekg(0, std::ios::end);
        std::streamoff size = file.tellg();
        file.seekp(size - 1);
        char last = 0;
        file.seekg(size - 1);
        file.get(last);
        file.seekp(size - 1);
        file.put(static_cast<char>(last ^ 0x5A));
      }
    }

    coord.Attach();
    f.env->StartDynamics();
    bool never = false;
    f.env->RunUntilFlag(never, 240.0);

    EXPECT_GT(f.env->churn().num_failures(), 0u) << "churn never bit";
    EXPECT_EQ(f.env->churn().num_warm_rejoins(), coord.stats().warm_rejoins);
    EXPECT_EQ(f.env->churn().num_cold_rejoins(), coord.stats().cold_rejoins);
    return coord.stats();
  }
};

TEST_F(CoordinatorTest, WarmRejoinRestoresWithoutRetraining) {
  RecoveryOptions opt;
  RecoveryStats stats = RunChurnWindow(opt);
  EXPECT_GT(stats.warm_rejoins, 0u);
  EXPECT_EQ(stats.cold_rejoins, 0u);
  EXPECT_EQ(stats.retrain_examples, 0u);
  EXPECT_EQ(stats.corrupt_checkpoints, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_rejoin_latency_sec(),
                   opt.warm_restore_latency_sec);
}

TEST_F(CoordinatorTest, ColdRejoinRetrains) {
  RecoveryOptions opt;
  opt.warm_rejoin = false;
  RecoveryStats stats = RunChurnWindow(opt);
  EXPECT_EQ(stats.warm_rejoins, 0u);
  EXPECT_GT(stats.cold_rejoins, 0u);
  EXPECT_GT(stats.retrain_examples, 0u);
  // Retraining 8 examples at the default per-example cost dwarfs a restore.
  EXPECT_GT(stats.mean_rejoin_latency_sec(), opt.warm_restore_latency_sec);
}

TEST_F(CoordinatorTest, CorruptCheckpointDegradesToColdNeverCrashes) {
  RecoveryOptions opt;
  opt.recheckpoint_after_cold_restart = false;  // keep every rejoin corrupt
  RecoveryStats stats = RunChurnWindow(opt, /*corrupt_checkpoints_on_disk=*/true);
  EXPECT_EQ(stats.warm_rejoins, 0u);
  EXPECT_GT(stats.cold_rejoins, 0u);
  EXPECT_GT(stats.corrupt_checkpoints, 0u);
  EXPECT_GT(stats.retrain_examples, 0u);
}

TEST_F(CoordinatorTest, RecheckpointAfterColdRestartWarmsNextRejoin) {
  RecoveryOptions opt;  // recheckpoint_after_cold_restart defaults to true
  RecoveryStats stats = RunChurnWindow(opt, /*corrupt_checkpoints_on_disk=*/true);
  // First rejoin per peer is cold (corrupt checkpoint), but the re-written
  // checkpoint makes later rejoins warm again.
  EXPECT_GT(stats.cold_rejoins, 0u);
  EXPECT_GT(stats.corrupt_checkpoints, 0u);
  EXPECT_GT(stats.warm_rejoins, 0u);
}

// --- End-to-end: crash-restore equivalence and experiment wiring ---------

const VectorizedCorpus& SmallCorpus() {
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

ExperimentOptions SmallOptions(AlgorithmType algo) {
  ExperimentOptions opt;
  opt.env.num_peers = 12;
  opt.algorithm = algo;
  opt.max_test_documents = 60;
  opt.distribution.cls = ClassDistribution::kByUser;
  return opt;
}

TEST(CrashRestoreTest, PaceBitIdentical) {
  Result<CrashRestoreReport> report = RunCrashRestoreExperiment(
      SmallCorpus(), SmallOptions(AlgorithmType::kPace),
      /*num_crashed_peers=*/4);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->crashed_peers, 4u);
  EXPECT_EQ(report->restored_peers, 4u);
  EXPECT_EQ(report->mismatched_tags, 0u);
  EXPECT_EQ(report->mismatched_scores, 0u);
  EXPECT_EQ(report->resnapshot_mismatches, 0u);
  EXPECT_TRUE(report->bit_identical());
}

TEST(CrashRestoreTest, CemparBitIdentical) {
  Result<CrashRestoreReport> report = RunCrashRestoreExperiment(
      SmallCorpus(), SmallOptions(AlgorithmType::kCempar),
      /*num_crashed_peers=*/4);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->bit_identical());
}

// Both passes predict RunExperiment's evaluation sample: with max_eval_peers
// set, every requester comes from the same deterministic pool.
TEST(CrashRestoreTest, PredictsRunExperimentsEvaluationSample) {
  ExperimentOptions opt = SmallOptions(AlgorithmType::kPace);
  opt.max_eval_peers = 3;
  Result<CrashRestoreReport> report =
      RunCrashRestoreExperiment(SmallCorpus(), opt, /*num_crashed_peers=*/2);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->bit_identical());
  ASSERT_EQ(report->requesters.size(), report->predictions);

  Result<StoodUpNetwork> stood_up = StandUpNetwork(SmallCorpus(), opt);
  ASSERT_TRUE(stood_up.ok()) << stood_up.status().ToString();
  EXPECT_EQ(report->requesters,
            SampleEvaluation(opt, stood_up->test.size(),
                             stood_up->network.env->net())
                .requesters);
  const std::vector<std::size_t> pool = DeterministicSample(
      opt.env.num_peers, opt.max_eval_peers, opt.seed ^ 0x5A3F);
  for (NodeId requester : report->requesters) {
    EXPECT_TRUE(std::find(pool.begin(), pool.end(), requester) != pool.end())
        << "requester " << requester << " outside the evaluation pool";
  }
}

TEST(RecoveryExperimentTest, WarmStrictlyCheaperThanColdAtEqualQuality) {
  ExperimentOptions warm_opt = SmallOptions(AlgorithmType::kPace);
  warm_opt.env.churn = ChurnType::kExponential;
  warm_opt.env.churn_mean_online_sec = 30.0;
  warm_opt.env.churn_mean_offline_sec = 8.0;
  warm_opt.recovery.enabled = true;
  warm_opt.post_train_sim_seconds = 180.0;
  ExperimentOptions cold_opt = warm_opt;
  cold_opt.recovery.warm_rejoin = false;

  Result<ExperimentResult> warm = RunExperiment(SmallCorpus(), warm_opt);
  Result<ExperimentResult> cold = RunExperiment(SmallCorpus(), cold_opt);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // Identical seeds → identical churn schedule and rejoin count.
  ASSERT_GT(warm->churn_rejoins, 0u);
  EXPECT_EQ(warm->churn_rejoins, cold->churn_rejoins);
  EXPECT_GT(warm->warm_rejoins, 0u);
  EXPECT_EQ(warm->cold_rejoins, 0u);
  EXPECT_EQ(cold->warm_rejoins, 0u);
  EXPECT_GT(cold->cold_rejoins, 0u);

  // Strictly cheaper on both recovery-cost axes…
  EXPECT_EQ(warm->retrain_examples, 0u);
  EXPECT_GT(cold->retrain_examples, 0u);
  EXPECT_LT(warm->mean_rejoin_latency_sec, cold->mean_rejoin_latency_sec);
  EXPECT_LT(warm->max_rejoin_latency_sec, cold->max_rejoin_latency_sec);

  // …at equal quality (deterministic retrain reproduces the same models).
  EXPECT_NEAR(warm->metrics.macro_f1, cold->metrics.macro_f1, 0.02);
}

TEST(RecoveryExperimentTest, RecoveryRequiresDurableAlgorithm) {
  ExperimentOptions opt = SmallOptions(AlgorithmType::kLocalOnly);
  opt.recovery.enabled = true;
  EXPECT_EQ(RunExperiment(SmallCorpus(), opt).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(RecoveryExperimentTest, ChurnCountersSurfacedWithoutRecovery) {
  ExperimentOptions opt = SmallOptions(AlgorithmType::kPace);
  opt.env.churn = ChurnType::kExponential;
  opt.env.churn_mean_online_sec = 30.0;
  opt.env.churn_mean_offline_sec = 8.0;
  opt.warmup_sim_seconds = 60.0;
  Result<ExperimentResult> r = RunExperiment(SmallCorpus(), opt);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->churn_failures, 0u);
  // No recovery layer → nothing classifies the rejoins.
  EXPECT_EQ(r->warm_rejoins + r->cold_rejoins, 0u);
}

TEST(ChurnCsvTest, SchemaAndRows) {
  SweepRow row;
  row.result.algorithm = "pace";
  row.result.churn = "exponential";
  row.point.options.recovery.warm_rejoin = true;
  row.result.metrics.macro_f1 = 0.5;
  row.result.churn_rejoins = 3;
  CsvWriter csv = ChurnCsv({row});
  std::string out = csv.ToString();
  EXPECT_NE(out.find("rejoin_mode"), std::string::npos);
  EXPECT_NE(out.find("retrain_examples"), std::string::npos);
  EXPECT_NE(out.find("pace,exponential,warm"), std::string::npos);
}

}  // namespace
}  // namespace p2pdt
