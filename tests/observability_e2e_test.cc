// End-to-end checks for the observability layer: a CEMPaR prediction under
// a lossy network with the reliable transport forms ONE connected trace
// (request → DHT lookup hops → retransmits → super-peer vote → response),
// experiments export valid metrics / trace / report JSON, per-phase latency
// histograms cover both classifiers, and turning observability on does not
// change any experimental outcome.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

#include <gtest/gtest.h>

#include "common/json_check.h"
#include "p2pdmt/environment.h"
#include "p2pdmt/experiment.h"
#include "p2pml/cempar.h"
#include "peer_data.h"

namespace p2pdt {
namespace {

// ---------------------------------------------------------------------------
// Protocol-level fixture: CEMPaR on a lossy network with tracing + metrics.
// ---------------------------------------------------------------------------

struct LossyFixture {
  std::unique_ptr<Environment> env;
  std::unique_ptr<Cempar> cempar;

  explicit LossyFixture(double loss_rate) {
    EnvironmentOptions eo;
    eo.num_peers = 12;
    eo.physical.loss_rate = loss_rate;
    eo.observe.metrics = true;
    eo.observe.tracing = true;
    env = std::move(Environment::Create(eo)).value();
    CemparOptions co;
    co.svm.kernel = Kernel::Linear();
    co.reliable_transport = true;
    // Resolve super-peers through the DHT on every prediction (no owner
    // cache), so the trace shows the full request → lookup → vote chain.
    co.cache_super_peer_lookups = false;
    cempar = std::make_unique<Cempar>(env->sim(), env->net(), *env->chord(),
                                      co);
  }

  Status Train() {
    P2PDT_RETURN_IF_ERROR(
        cempar->SetupShards(OwnShards(MakePeerData(12, 8, 17)), 4));
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

TEST(ObservabilityE2ETest, CemparPredictionUnderLossIsOneConnectedTrace) {
  LossyFixture f(/*loss_rate=*/0.2);
  ASSERT_TRUE(f.Train().ok());

  // Forget everything the (traced) training produced, then run exactly one
  // prediction so the tracer holds exactly one end-to-end operation.
  Tracer* tracer = f.env->tracer();
  ASSERT_NE(tracer, nullptr);
  tracer->Clear();
  f.env->net().stats().Reset();

  P2PPrediction p = f.PredictSync(
      3, SparseVector::FromPairs({{3u, 1.0}, {4u, 1.0}}));
  ASSERT_TRUE(p.success);

  ASSERT_GT(tracer->num_spans(), 0u);
  const std::vector<SpanRecord>& spans = tracer->spans();

  // Root: the prediction request itself.
  auto root = std::find_if(spans.begin(), spans.end(), [](const SpanRecord& s) {
    return s.name == "cempar/predict";
  });
  ASSERT_NE(root, spans.end());
  EXPECT_EQ(root->parent_span, 0u);

  // Connected: every span recorded during the prediction — lookup hops,
  // message sends, retransmits, the vote — belongs to the root's trace.
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.trace_id, root->trace_id)
        << "span '" << s.name << "' escaped the prediction trace";
  }

  std::set<std::string> names;
  for (const SpanRecord& s : spans) names.insert(s.name);
  EXPECT_TRUE(names.count("lookup")) << "DHT lookup missing from trace";
  EXPECT_TRUE(names.count("super_peer_vote")) << "vote instant missing";

  // Retries live inside the same trace: every retransmit the transport made
  // appears as an instant, and at 20 % loss a multi-message exchange all but
  // certainly retried at least once.
  uint64_t retransmit_instants = 0;
  for (const SpanRecord& s : spans) {
    if (s.instant && s.name == "retransmit") ++retransmit_instants;
  }
  EXPECT_EQ(retransmit_instants, f.env->net().stats().retransmits());
  EXPECT_GT(retransmit_instants, 0u);

  // The export is valid Chrome trace JSON carrying the same structure.
  std::string json = tracer->ToChromeTraceJson();
  EXPECT_TRUE(CheckJsonSyntax(json).ok());
  EXPECT_TRUE(JsonHasKey(json, "traceEvents"));
  EXPECT_NE(json.find("cempar/predict"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

// A requester that is itself the super-peer of a queried home votes
// locally, without a message; its super_peer_vote instant still lands in
// the prediction's trace.
TEST(ObservabilityE2ETest, LocalSuperPeerVoteJoinsThePredictionTrace) {
  LossyFixture f(/*loss_rate=*/0.0);
  ASSERT_TRUE(f.Train().ok());
  Tracer* tracer = f.env->tracer();
  ASSERT_NE(tracer, nullptr);
  std::size_t local_votes = 0;
  for (NodeId requester = 0; requester < 12; ++requester) {
    tracer->Clear();
    ASSERT_TRUE(f.PredictSync(requester,
                              SparseVector::FromPairs({{3u, 1.0}, {4u, 1.0}}))
                    .success);
    const std::vector<SpanRecord>& spans = tracer->spans();
    auto root =
        std::find_if(spans.begin(), spans.end(), [](const SpanRecord& s) {
          return s.name == "cempar/predict";
        });
    ASSERT_NE(root, spans.end());
    for (const SpanRecord& s : spans) {
      EXPECT_EQ(s.trace_id, root->trace_id)
          << "span '" << s.name << "' escaped the prediction trace";
      if (s.instant && s.name == "super_peer_vote" && s.node == requester) {
        ++local_votes;
      }
    }
  }
  EXPECT_GT(local_votes, 0u);
}

TEST(ObservabilityE2ETest, CemparMetricsCoverLookupsTransportAndPhases) {
  LossyFixture f(/*loss_rate=*/0.2);
  ASSERT_TRUE(f.Train().ok());
  ASSERT_TRUE(
      f.PredictSync(5, SparseVector::FromPairs({{0u, 1.0}, {1u, 1.0}}))
          .success);

  MetricsRegistry* metrics = f.env->metrics();
  ASSERT_NE(metrics, nullptr);
  MetricsSnapshot snap = metrics->Snapshot();

  const MetricsSnapshot::Entry* lookups =
      snap.Find("dht_lookups", {{"success", "true"}});
  ASSERT_NE(lookups, nullptr);
  EXPECT_GT(lookups->value, 0.0);
  const MetricsSnapshot::Entry* hops = snap.Find("dht_lookup_hops");
  ASSERT_NE(hops, nullptr);
  EXPECT_GT(hops->count, 0u);

  const MetricsSnapshot::Entry* ok_preds = snap.Find(
      "predictions", {{"classifier", "cempar"}, {"outcome", "ok"}});
  ASSERT_NE(ok_preds, nullptr);
  EXPECT_GE(ok_preds->value, 1.0);

  // The reliable transport settled at least one logical message by ACK.
  bool saw_acked_settle = false;
  for (const MetricsSnapshot::Entry& e : snap.entries) {
    if (e.name != "transport_settle_seconds") continue;
    for (const auto& [k, v] : e.labels) {
      if (k == "outcome" && v == "acked" && e.count > 0) {
        saw_acked_settle = true;
      }
    }
  }
  EXPECT_TRUE(saw_acked_settle);

  // Per-phase latency histograms with sane quantiles.
  for (const char* phase :
       {"local_train", "sv_upload", "cascade_merge", "vote", "predict"}) {
    const MetricsSnapshot::Entry* e = snap.Find(
        "phase_seconds", {{"classifier", "cempar"}, {"phase", phase}});
    ASSERT_NE(e, nullptr) << "missing cempar phase " << phase;
    EXPECT_GT(e->count, 0u) << phase;
    EXPECT_LE(e->p50, e->p95) << phase;
    EXPECT_LE(e->p95, e->p99) << phase;
    EXPECT_LE(e->p99, e->max + 1e-12) << phase;
  }
}

// ---------------------------------------------------------------------------
// Experiment-level artifact export.
// ---------------------------------------------------------------------------

const VectorizedCorpus& SharedCorpus() {
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

ExperimentOptions BaseOptions(AlgorithmType algo) {
  ExperimentOptions opt;
  opt.env.num_peers = 10;
  opt.algorithm = algo;
  opt.max_test_documents = 40;
  opt.distribution.cls = ClassDistribution::kByUser;
  return opt;
}

std::string ReadAll(const std::string& path) {
  std::ifstream f(path);
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

TEST(ObservabilityE2ETest, ExperimentWritesValidArtifacts) {
  ExperimentOptions opt = BaseOptions(AlgorithmType::kCempar);
  opt.env.observe.metrics = true;
  opt.env.observe.tracing = true;
  std::string dir = ::testing::TempDir();
  opt.report_path = dir + "/p2pdt_report.json";
  opt.metrics_path = dir + "/p2pdt_metrics.json";
  opt.trace_path = dir + "/p2pdt_trace.json";

  Result<ExperimentResult> r = RunExperiment(SharedCorpus(), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  std::string report = ReadAll(opt.report_path);
  ASSERT_FALSE(report.empty());
  EXPECT_TRUE(CheckJsonSyntax(report).ok());
  for (const char* key : {"run", "quality", "cost", "timing", "phases",
                          "macro_f1", "retransmits", "p99"}) {
    EXPECT_TRUE(JsonHasKey(report, key)) << "report lacks " << key;
  }
  EXPECT_NE(report.find("cempar"), std::string::npos);

  std::string metrics = ReadAll(opt.metrics_path);
  ASSERT_FALSE(metrics.empty());
  EXPECT_TRUE(CheckJsonSyntax(metrics).ok());
  EXPECT_TRUE(JsonHasKey(metrics, "metrics"));
  EXPECT_NE(metrics.find("phase_seconds"), std::string::npos);

  std::string trace = ReadAll(opt.trace_path);
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(CheckJsonSyntax(trace).ok());
  EXPECT_TRUE(JsonHasKey(trace, "traceEvents"));
  EXPECT_NE(trace.find("cempar/predict"), std::string::npos);

  // The in-memory snapshot mirrors the export.
  EXPECT_FALSE(r->observability.empty());
  EXPECT_NE(r->observability.Find(
                "phase_seconds",
                {{"classifier", "cempar"}, {"phase", "local_train"}}),
            nullptr);

  std::remove(opt.report_path.c_str());
  std::remove(opt.metrics_path.c_str());
  std::remove(opt.trace_path.c_str());
}

TEST(ObservabilityE2ETest, PaceExperimentRecordsPhaseHistograms) {
  ExperimentOptions opt = BaseOptions(AlgorithmType::kPace);
  opt.env.observe.metrics = true;
  Result<ExperimentResult> r = RunExperiment(SharedCorpus(), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const char* phase : {"local_train", "lsh_index", "model_broadcast",
                            "top_k_retrieve", "vote"}) {
    const MetricsSnapshot::Entry* e = r->observability.Find(
        "phase_seconds", {{"classifier", "pace"}, {"phase", phase}});
    ASSERT_NE(e, nullptr) << "missing pace phase " << phase;
    EXPECT_GT(e->count, 0u) << phase;
  }
}

TEST(ObservabilityE2ETest, ArtifactPathWithoutSubsystemIsError) {
  ExperimentOptions opt = BaseOptions(AlgorithmType::kLocalOnly);
  opt.metrics_path = ::testing::TempDir() + "/p2pdt_unwritable_metrics.json";
  Result<ExperimentResult> r = RunExperiment(SharedCorpus(), opt);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  ExperimentOptions opt2 = BaseOptions(AlgorithmType::kLocalOnly);
  opt2.trace_path = ::testing::TempDir() + "/p2pdt_unwritable_trace.json";
  Result<ExperimentResult> r2 = RunExperiment(SharedCorpus(), opt2);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
}

TEST(ObservabilityE2ETest, ObservabilityDoesNotChangeResults) {
  ExperimentOptions plain = BaseOptions(AlgorithmType::kCempar);
  ExperimentOptions observed = BaseOptions(AlgorithmType::kCempar);
  observed.env.observe.metrics = true;
  observed.env.observe.tracing = true;

  Result<ExperimentResult> a = RunExperiment(SharedCorpus(), plain);
  Result<ExperimentResult> b = RunExperiment(SharedCorpus(), observed);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->metrics.micro_f1, b->metrics.micro_f1);
  EXPECT_DOUBLE_EQ(a->metrics.macro_f1, b->metrics.macro_f1);
  EXPECT_EQ(a->train_messages, b->train_messages);
  EXPECT_EQ(a->train_bytes, b->train_bytes);
  EXPECT_EQ(a->predict_messages, b->predict_messages);
  EXPECT_EQ(a->predict_bytes, b->predict_bytes);
  EXPECT_DOUBLE_EQ(a->train_sim_seconds, b->train_sim_seconds);
  EXPECT_DOUBLE_EQ(a->predict_sim_seconds, b->predict_sim_seconds);
}

}  // namespace
}  // namespace p2pdt
