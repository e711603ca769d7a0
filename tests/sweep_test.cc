// Sweep runner: the fault, poisoning, churn, drift and overload grids run
// on a tiny corpus, each pinned to its full CSV text, plus the failure
// accounting every sweep bench relies on to exit non-zero.

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "p2pdmt/byzantine.h"
#include "p2pdmt/drift.h"
#include "p2pdmt/experiment.h"
#include "p2pdmt/overload.h"
#include "p2pdmt/recovery_experiment.h"
#include "p2pdmt/robustness.h"

namespace p2pdt {
namespace {

const VectorizedCorpus& TinyCorpus() {
  static const VectorizedCorpus corpus = [] {
    CorpusOptions opt;
    opt.num_users = 10;
    opt.min_docs_per_user = 30;
    opt.max_docs_per_user = 40;
    opt.num_tags = 5;
    opt.vocabulary_size = 1000;
    opt.seed = 4242;
    return std::move(MakeVectorizedCorpus(opt)).value();
  }();
  return corpus;
}

ExperimentOptions TinyBase() {
  ExperimentOptions opt;
  opt.env.num_peers = 10;
  opt.distribution.cls = ClassDistribution::kByUser;
  opt.max_test_documents = 40;
  return opt;
}

// The expected CSV texts below were produced by the per-sweep loops
// RunSweepLoop replaced; any change to a grid's order, its per-point
// options or a column's derivation shows up as a diff here.
constexpr char kFaultCsv[] = R"csv(algorithm,plan,loss_rate,reliable,micro_f1,macro_f1,prediction_success_rate,failed,degraded,attempted,delivery_rate,retry_overhead,retransmits,give_ups,injected_drops,model_coverage
cempar,none,0,0,0.979167,0.973123,1,0,0,40,1,0,0,0,0,-1
cempar,none,0,1,0.979167,0.973123,1,0,0,40,1,0,0,0,0,-1
cempar,partition,0,0,0.857143,0.821499,1,0,0,40,0.623874,0,0,0,334,-1
cempar,partition,0,1,0.903226,0.892714,1,0,0,40,0.703226,0.0546595,61,0,368,-1
cempar,crash,0,0,0.979167,0.973123,1,0,0,40,1,0,0,0,0,-1
cempar,crash,0,1,0.979167,0.973123,1,0,0,40,1,0,0,0,0,-1
cempar,none,0.2,0,0.4,0.395652,0.95,2,0,40,0.780749,0,0,0,0,-1
cempar,none,0.2,1,0.621359,0.691282,1,0,0,40,0.792072,0.15154,187,0,0,-1
cempar,partition,0.2,0,0.404494,0.402597,0.95,2,0,40,0.495902,0,0,0,357,-1
cempar,partition,0.2,1,0.591837,0.628726,1,0,0,40,0.798382,0.154465,192,0,3,-1
cempar,crash,0.2,0,0.478261,0.494545,0.95,2,0,40,0.77415,0,0,0,0,-1
cempar,crash,0.2,1,0.640777,0.700949,1,0,0,40,0.786827,0.151562,194,0,0,-1
pace,none,0,0,0.692308,0.723419,1,0,0,40,1,0,0,0,0,1
pace,none,0,1,0.692308,0.723419,1,0,0,40,1,0,0,0,0,1
pace,partition,0,0,0.692308,0.723419,1,0,0,40,1,0,0,0,0,1
pace,partition,0,1,0.692308,0.723419,1,0,0,40,1,0,0,0,0,1
pace,crash,0,0,0.692308,0.723419,1,0,0,40,1,0,0,0,0,1
pace,crash,0,1,0.692308,0.723419,1,0,0,40,1,0,0,0,0,1
pace,none,0.2,0,0.657143,0.671822,1,0,0,40,0.806931,0,0,0,0,0.74
pace,none,0.2,1,0.692308,0.723419,1,0,0,40,0.783217,0.141975,23,0,0,1
pace,partition,0.2,0,0.657143,0.671822,1,0,0,40,0.806931,0,0,0,0,0.74
pace,partition,0.2,1,0.692308,0.723419,1,0,0,40,0.778271,0.167665,28,0,4,1
pace,crash,0.2,0,0.652174,0.665734,1,0,0,40,0.806931,0,0,0,0,0.733333
pace,crash,0.2,1,0.692308,0.723419,1,0,0,40,0.615183,0.164706,28,0,0,1
)csv";

constexpr char kByzantineCsv[] = R"csv(algorithm,adversary,malicious_fraction,malicious_peers,defended,micro_f1,macro_f1,prediction_success_rate,attempted,models_rejected,votes_discarded,quarantined_pairs,trust_observations,train_bytes,train_sim_seconds
cempar,none,0,0,1,0.934783,0.908485,1,40,0,0,0,37,200916,1
cempar,label_flip,0.3,3,1,0.911111,0.905744,1,40,9,0,4,37,200916,1
cempar,garbage_model,0.3,3,1,0.923077,0.902033,1,40,12,0,0,26,146604,1
cempar,none,0,0,0,0.934783,0.908485,1,40,0,0,0,0,200916,1
cempar,label_flip,0.3,3,0,0.88172,0.851515,1,40,0,0,0,0,200916,1
cempar,garbage_model,0.3,3,0,0.831461,0.703788,1,40,0,0,0,0,146604,1
pace,none,0,0,1,0.898876,0.848485,1,40,0,0,0,90,1487124,1
pace,label_flip,0.3,3,1,0.898876,0.848485,1,40,27,0,27,93,1487124,1
pace,garbage_model,0.3,3,1,0.898876,0.848485,1,40,30,0,0,63,1073700,1
pace,none,0,0,0,0.898876,0.848485,1,40,0,0,0,0,1487124,1
pace,label_flip,0.3,3,0,0.898876,0.848485,1,40,0,0,0,0,1487124,1
pace,garbage_model,0.3,3,0,0,0,1,40,0,0,0,0,1073700,1
)csv";

constexpr char kChurnCsv[] = R"csv(algorithm,churn,rejoin_mode,micro_f1,macro_f1,failed,attempted,failures,rejoins,warm_rejoins,cold_rejoins,corrupt_checkpoints,retrain_examples,checkpoint_bytes,mean_rejoin_latency_sec,max_rejoin_latency_sec
cempar,none,warm,0.979167,0.973123,0,40,0,0,0,0,0,0,80234,0,0
cempar,none,cold,0.979167,0.973123,0,40,0,0,0,0,0,0,80234,0,0
cempar,exponential,warm,0.968421,0.963636,0,40,11,11,11,0,0,0,80234,0.25,0.25
cempar,exponential,cold,0.968421,0.963636,0,40,11,11,0,11,0,206,80234,0.374545,0.78
cempar,pareto,warm,0.793388,0.881818,0,40,15,14,14,0,0,0,80234,0.25,0.25
cempar,pareto,cold,0.793388,0.881818,0,40,15,14,0,14,0,260,80234,0.371429,0.78
pace,none,warm,0.692308,0.723419,0,40,0,0,0,0,0,0,83926,0,0
pace,none,cold,0.692308,0.723419,0,40,0,0,0,0,0,0,83926,0,0
pace,exponential,warm,0.692308,0.723419,0,40,11,11,11,0,0,0,83926,0.25,0.25
pace,exponential,cold,0.692308,0.723419,0,40,11,11,0,11,0,206,83926,0.374545,0.78
pace,pareto,warm,0.692308,0.723419,0,40,15,14,14,0,0,0,83926,0.25,0.25
pace,pareto,cold,0.692308,0.723419,0,40,15,14,0,14,0,260,83926,0.371429,0.78
)csv";

constexpr char kDriftCsv[] = R"csv(algorithm,scenario,policy,loss_rate,churn,num_epochs,first_drift_epoch,pre_drift_f1,min_post_drift_f1,final_f1,max_dip,recovery_epochs,reconverged,retrains,drift_detections,give_ups,suspected_peers,total_messages,total_bytes,fingerprint
pace,none,frozen,0,0,4,4,0.62619,0.60101,0.62619,0.0251804,0,1,0,1,0,0,140,78148,96190a763b8b6c8c
pace,none,drift,0,0,4,4,0.62619,0.60101,0.62619,0.0251804,0,1,1,1,0,0,147,103068,2ce9f642d258192a
pace,none,frozen,0.2,0,4,4,0.62619,0.60101,0.62619,0.0251804,0,1,0,1,0,0,230,105504,47f4aa32aa96707f
pace,none,drift,0.2,0,4,4,0.62619,0.60101,0.62619,0.0251804,0,1,1,1,0,0,250,151952,9334f14f4e167b40
cempar,none,frozen,0,0,4,4,0.987654,0.943355,0.987654,0.0442992,0,1,0,0,0,0,1400,108640,33ff47316c3acdab
cempar,none,drift,0,0,4,4,0.987654,0.943355,0.987654,0.0442992,0,1,0,0,0,0,1400,108640,33ff47316c3acdab
cempar,none,frozen,0.2,0,4,4,0.799423,0.72764,0.799423,0.0717832,0,1,0,0,0,0,1736,144416,578f56735776f978
cempar,none,drift,0.2,0,4,4,0.799423,0.72764,0.799423,0.0717832,0,1,0,0,0,0,1736,144416,578f56735776f978
pace,sudden_vocab,frozen,0,0,4,2,0.633519,0.519139,0.529762,0.11438,4,0,0,3,0,0,140,78148,369453362ae8d9d3
pace,sudden_vocab,drift,0,0,4,2,0.633519,0.519139,0.529762,0.11438,4,0,3,3,0,0,161,167692,0a3bbb6a8f896a08
pace,sudden_vocab,frozen,0.2,0,4,2,0.633519,0.519139,0.529762,0.11438,4,0,0,3,0,0,230,105504,90dbbd149a51d1fc
pace,sudden_vocab,drift,0.2,0,4,2,0.633519,0.519139,0.529762,0.11438,4,0,3,3,0,0,282,271824,6ff98e795b8f8e45
pace,sudden_vocab,frozen,0.2,1,4,2,0.633519,0.519139,0.529762,0.11438,4,0,0,3,0,0,230,105504,90dbbd149a51d1fc
pace,sudden_vocab,drift,0.2,1,4,2,0.633519,0.519139,0.529762,0.11438,4,0,3,3,0,0,282,271824,6ff98e795b8f8e45
cempar,sudden_vocab,frozen,0,0,4,2,0.943355,0.32265,0.32265,0.620706,4,0,0,8,0,0,1400,108436,f11f3b04906f9f12
cempar,sudden_vocab,drift,0,0,4,2,0.943355,0.362659,0.67265,0.580696,4,0,8,8,0,0,1454,142452,be75fea33988340b
cempar,sudden_vocab,frozen,0.2,0,4,2,0.72764,0.541275,0.541275,0.186365,4,0,0,6,0,0,1752,143940,e81887d24ad25993
cempar,sudden_vocab,drift,0.2,0,4,2,0.72764,0.541275,0.541275,0.186365,4,0,6,6,0,0,1806,177968,00400a0d9d1ec802
cempar,sudden_vocab,frozen,0.2,1,4,2,0.72764,0.541275,0.541275,0.186365,4,0,0,6,0,0,1752,143940,e81887d24ad25993
cempar,sudden_vocab,drift,0.2,1,4,2,0.72764,0.541275,0.541275,0.186365,4,0,6,6,0,0,1806,177968,00400a0d9d1ec802
)csv";

constexpr char kOverloadCsv[] = R"csv(algorithm,arm,burst,arrival_rate,burst_multiplier,offered,completed,ok,degraded,cached,failed,shed,retries,within_slo,goodput_within_slo,shed_rate,cache_hit_rate,p50_s,p95_s,p99_s,slo_s,give_ups,fingerprint
pace,undefended,disarmed,0,1,40,40,40,0,0,0,0,0,0,0,0,0,0,0,0,1,0,a4200700dda3aa4b
pace,defended,disarmed,0,1,40,40,40,0,0,0,0,0,0,0,0,0,0,0,0,1,0,a4200700dda3aa4b
pace,undefended,none,12,1,38,38,38,0,0,0,0,0,38,6.68549,0,0,0.201786,0.429399,0.429399,1,0,0b25dadc89d2f833
pace,defended,none,12,1,38,38,37,0,1,0,0,0,38,6.68549,0,0.0263158,0.2,0.429399,0.429399,1,0,9caa5baa1a1a735d
pace,undefended,flash,12,6,38,38,38,0,0,0,0,0,38,7.27023,0,0,0.235714,0.666667,0.779143,1,0,f05e0ab5c0c5fd1d
pace,defended,flash,12,6,38,38,34,0,4,0,1,1,38,7.27023,0.025641,0.102564,0.2125,0.5,0.774739,1,0,cb1cfbc4283abe3d
cempar,undefended,disarmed,0,1,40,40,40,0,0,0,0,0,0,0,0,0,0,0,0,1,0,299f84e52d603964
cempar,defended,disarmed,0,1,40,40,40,0,0,0,0,0,0,0,0,0,0,0,0,1,0,299f84e52d603964
cempar,undefended,none,12,1,38,38,38,0,0,0,0,0,38,6.71684,0,0,0.411765,0.771762,0.771762,1,0,b794bfa3afc512c4
cempar,defended,none,12,1,38,38,37,0,1,0,0,0,38,6.69318,0,0.0263158,0.396552,0.708428,0.708428,1,0,7613b49eda676425
cempar,undefended,flash,12,6,38,38,38,0,0,0,0,0,35,6.65244,0,0,0.555556,1.11333,1.11333,1,0,b55b560bffbf4544
cempar,defended,flash,12,6,38,38,36,0,2,0,0,0,38,7.19529,0,0.0526316,0.447368,0.883334,0.883334,1,0,602ccb880feb6b67
)csv";

TEST(SweepGoldenTest, FaultGrid) {
  // A 3 s horizon puts every plan's fault window inside training.
  std::vector<NamedFaultPlan> plans = CanonicalFaultPlans(10, 3.0);
  SweepResult sweep =
      RunSweep(TinyCorpus(),
               RobustnessGrid(TinyBase(), {0.0, 0.2},
                              {plans[0], plans[2], plans[4]}),
               nullptr);
  EXPECT_TRUE(sweep.failed.empty());
  EXPECT_EQ(RobustnessCsv(sweep.rows).ToString(), kFaultCsv);
}

TEST(SweepGoldenTest, ByzantineGrid) {
  ExperimentOptions base = TinyBase();
  base.cempar.regions_per_tag = 3;
  base.distribution.cls = ClassDistribution::kIid;
  SweepResult sweep =
      RunSweep(TinyCorpus(),
               ByzantineGrid(base, {0.3}, {AdversaryBehavior::kGarbageModel}),
               nullptr);
  EXPECT_TRUE(sweep.failed.empty());
  EXPECT_EQ(ByzantineCsv(sweep.rows).ToString(), kByzantineCsv);
}

TEST(SweepGoldenTest, ChurnGrid) {
  ExperimentOptions base = TinyBase();
  base.env.churn_mean_online_sec = 450.0;
  base.env.churn_mean_offline_sec = 30.0;
  SweepResult sweep = RunSweep(TinyCorpus(), WarmColdGrid(base), nullptr);
  EXPECT_TRUE(sweep.failed.empty());
  EXPECT_EQ(ChurnCsv(sweep.rows).ToString(), kChurnCsv);
}

// A tiny drifting stream: two scenarios, both protocols, two policies,
// clean and lossy links, plus the churn arm.
StreamOptions TinyStream() {
  StreamOptions stream;
  stream.base.num_users = 8;
  stream.base.num_tags = 3;
  stream.base.vocabulary_size = 300;
  stream.base.topic_words_per_tag = 20;
  stream.base.min_doc_words = 15;
  stream.base.max_doc_words = 40;
  stream.base.seed = 4242;
  stream.num_epochs = 4;
  stream.min_docs_per_user_per_epoch = 3;
  stream.max_docs_per_user_per_epoch = 4;
  return stream;
}

DriftExperimentOptions TinyDriftBase() {
  DriftExperimentOptions base;
  base.experiment.pace.reliable_dissemination = true;
  base.experiment.cempar.reliable_transport = true;
  base.window_documents = 24;
  base.staleness.window = 8;
  base.staleness.min_observations = 6;
  base.staleness.drift_threshold = 0.06;
  base.staleness.stale_after_docs = 16;
  return base;
}

std::vector<DriftPoint> TinyDriftGrid() {
  return DriftGrid(TinyDriftBase(),
                   {AlgorithmType::kPace, AlgorithmType::kCempar},
                   {"none", "sudden_vocab"},
                   {RetrainPolicy::kFrozen, RetrainPolicy::kDriftTriggered},
                   /*loss_rates=*/{0.0, 0.2}, /*churn_arm=*/true);
}

TEST(SweepGoldenTest, DriftGrid) {
  Result<DriftSweep> sweep =
      RunDriftSweep(TinyStream(), TinyDriftGrid(), nullptr);
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  EXPECT_TRUE(sweep->failed.empty());
  EXPECT_EQ(DriftCsv(sweep->rows).ToString(), kDriftCsv);
}

OverloadExperimentOptions TinyOverloadBase() {
  OverloadExperimentOptions base;
  base.experiment.env.num_peers = 10;
  base.experiment.distribution.cls = ClassDistribution::kByUser;
  base.loadgen.sessions = 10;
  base.loadgen.min_docs = 3;
  base.loadgen.max_docs = 5;
  base.loadgen.slo_latency = 1.0;
  base.loadgen.max_retries = 1;
  return base;
}

TEST(SweepGoldenTest, OverloadGrid) {
  OverloadSweep sweep = RunOverloadSweep(
      TinyCorpus(),
      OverloadGrid(TinyOverloadBase(), /*arrival_rates=*/{12.0},
                   /*burst_multiplier=*/6.0),
      nullptr);
  EXPECT_TRUE(sweep.failed.empty());
  EXPECT_EQ(OverloadCsv(sweep.rows).ToString(), kOverloadCsv);
}

TEST(RunSweepTest, FailedDriftPointIsNamedAndFailsTheBench) {
  std::vector<DriftPoint> points = TinyDriftGrid();
  points.resize(2);
  points[0].options.window_documents = 0;  // rejected by the harness
  std::size_t progress = 0;
  Result<DriftSweep> sweep = RunDriftSweep(
      TinyStream(), points, [&](const DriftRow&) { ++progress; });
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  ASSERT_EQ(sweep->failed.size(), 1u);
  EXPECT_NE(sweep->failed[0].find("pace scenario=none policy=frozen"),
            std::string::npos)
      << sweep->failed[0];
  ASSERT_EQ(sweep->rows.size(), 1u);
  EXPECT_EQ(sweep->rows[0].result.policy, "drift");
  EXPECT_EQ(progress, 1u);
  EXPECT_NE(p2pdt_bench::ReportSweepFailures(*sweep), 0);
}

TEST(RunSweepTest, FailedOverloadPointIsNamedAndFailsTheBench) {
  std::vector<OverloadPoint> points =
      OverloadGrid(TinyOverloadBase(), {12.0}, 6.0);
  points.resize(2);
  // CEMPaR needs a DHT, which the unstructured overlay does not provide.
  points[1].options.experiment.algorithm = AlgorithmType::kCempar;
  points[1].options.experiment.env.overlay = OverlayType::kUnstructured;
  OverloadSweep sweep = RunOverloadSweep(TinyCorpus(), points, nullptr);
  ASSERT_EQ(sweep.failed.size(), 1u);
  EXPECT_NE(sweep.failed[0].find("cempar arm=defended burst=disarmed"),
            std::string::npos)
      << sweep.failed[0];
  ASSERT_EQ(sweep.rows.size(), 1u);
  EXPECT_EQ(sweep.rows[0].point.arm, "undefended");
  EXPECT_NE(p2pdt_bench::ReportSweepFailures(sweep), 0);
}

TEST(RunSweepTest, FailedPointIsNamedAndSkipped) {
  SweepPoint ok{TinyBase()};
  SweepPoint bad{TinyBase()};
  bad.plan = "doomed";
  // Recovery needs durable peer state, which local-only training lacks.
  bad.options.algorithm = AlgorithmType::kLocalOnly;
  bad.options.recovery.enabled = true;

  std::size_t progress = 0;
  SweepResult sweep = RunSweep(TinyCorpus(), {bad, ok},
                               [&](const SweepRow&) { ++progress; });
  ASSERT_EQ(sweep.failed.size(), 1u);
  EXPECT_NE(sweep.failed[0].find("local_only plan=doomed"), std::string::npos)
      << sweep.failed[0];
  ASSERT_EQ(sweep.rows.size(), 1u);
  EXPECT_EQ(sweep.rows[0].result.algorithm, "pace");
  EXPECT_EQ(progress, 1u);
  EXPECT_NE(p2pdt_bench::ReportSweepFailures(sweep), 0);
}

}  // namespace
}  // namespace p2pdt
