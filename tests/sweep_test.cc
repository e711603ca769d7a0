// Sweep runner: the fault, poisoning and churn grids run through RunSweep
// on a tiny corpus, each pinned to its full CSV text, plus the failure
// accounting every sweep bench relies on to exit non-zero.

#include <gtest/gtest.h>

#include "p2pdmt/byzantine.h"
#include "p2pdmt/experiment.h"
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

// The expected CSV texts below were produced by the per-sweep harnesses
// RunSweep replaced; any change to a grid's order, its per-point options
// or a column's derivation shows up as a diff here.
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
}

}  // namespace
}  // namespace p2pdt
