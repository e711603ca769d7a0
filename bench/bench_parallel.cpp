// PERF — training-time scaling of the parallel local-training engine.
//
// Sweeps the thread-pool size over 1/2/4/8 threads and times the three
// parallelized training paths: pooled one-vs-all linear SVM (the
// centralized baseline's trainer), CEMPaR's (peer × tag) kernel-SVM grid,
// and PACE's per-peer local phase (linear SVMs + accuracy + k-means). Also
// verifies the engine's determinism contract end to end: every thread
// count must reproduce the 1-thread prediction scores bit for bit.
//
// Results land in bench_results/parallel.csv. Speedup is relative to the
// 1-thread run of the same engine and is bounded by the physical cores of
// the host (hardware_concurrency is printed with the results).

#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "ml/linear_svm.h"
#include "p2pdmt/data_distribution.h"
#include "p2pdmt/environment.h"
#include "p2pml/cempar.h"
#include "p2pml/pace.h"

using namespace p2pdt_bench;

namespace {

constexpr std::size_t kNumPeers = 64;

std::vector<DatasetShard> PeerPartition(const VectorizedCorpus& corpus) {
  DataDistributionOptions opt;
  opt.cls = ClassDistribution::kByUser;
  Result<std::vector<DatasetShard>> r = DistributeDataShared(
      std::make_shared<const MultiLabelDataset>(corpus.dataset), kNumPeers,
      opt, &corpus.doc_user);
  if (!r.ok()) {
    std::fprintf(stderr, "distribution failed: %s\n",
                 r.status().ToString().c_str());
    std::abort();
  }
  return std::move(r).value();
}

std::vector<SparseVector> Probes(const VectorizedCorpus& corpus,
                                 std::size_t n) {
  std::vector<SparseVector> probes;
  const auto& examples = corpus.dataset.examples();
  for (std::size_t i = 0; i < examples.size() && probes.size() < n;
       i += examples.size() / n + 1) {
    probes.push_back(examples[i].x);
  }
  return probes;
}

struct EngineRun {
  double seconds = 0.0;
  std::vector<double> checksum;  // concatenated prediction scores
};

EngineRun RunOneVsAll(const VectorizedCorpus& corpus) {
  EngineRun out;
  Stopwatch timer;
  Result<OneVsAllModel> model = TrainOneVsAll(
      corpus.dataset,
      [](const std::vector<Example>& examples, TagId tag)
          -> Result<std::unique_ptr<BinaryClassifier>> {
        LinearSvmOptions opt;
        opt.seed = DeriveSeed(1, 0, tag);
        Result<LinearSvmModel> m = TrainLinearSvm(examples, opt);
        if (!m.ok()) return m.status();
        return std::unique_ptr<BinaryClassifier>(
            std::make_unique<LinearSvmModel>(std::move(m).value()));
      });
  out.seconds = timer.ElapsedSeconds();
  if (!model.ok()) std::abort();
  for (const SparseVector& x : Probes(corpus, 20)) {
    std::vector<double> scores = model->Scores(x);
    out.checksum.insert(out.checksum.end(), scores.begin(), scores.end());
  }
  return out;
}

template <typename MakeClassifier>
EngineRun RunP2P(const VectorizedCorpus& corpus,
                 const MakeClassifier& make_classifier) {
  EnvironmentOptions eo;
  eo.num_peers = kNumPeers;
  auto env = std::move(Environment::Create(eo)).value();
  auto classifier = make_classifier(*env);
  Status setup = classifier->SetupShards(PeerPartition(corpus),
                                         corpus.dataset.num_tags());
  if (!setup.ok()) std::abort();

  EngineRun out;
  Stopwatch timer;
  bool done = false;
  classifier->Train([&](Status s) {
    if (!s.ok()) std::abort();
    done = true;
  });
  env->RunUntilFlag(done, 36000);
  out.seconds = timer.ElapsedSeconds();

  for (const SparseVector& x : Probes(corpus, 10)) {
    bool pdone = false;
    classifier->Predict(1, x, [&](P2PPrediction p) {
      out.checksum.insert(out.checksum.end(), p.scores.begin(),
                          p.scores.end());
      pdone = true;
    });
    env->RunUntilFlag(pdone, 36000);
  }
  return out;
}

}  // namespace

int main() {
  std::printf("=== PERF: parallel local training (thread sweep) ===\n\n");
  std::printf("hardware_concurrency: %u\n\n",
              std::thread::hardware_concurrency());

  CorpusOptions copt;
  copt.num_users = kNumPeers;
  copt.min_docs_per_user = 20;
  copt.max_docs_per_user = 35;
  copt.num_tags = 12;
  copt.vocabulary_size = 2000;
  copt.seed = 20100913;
  Result<VectorizedCorpus> corpus_r = MakeVectorizedCorpus(copt);
  if (!corpus_r.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 corpus_r.status().ToString().c_str());
    return 1;
  }
  const VectorizedCorpus& corpus = corpus_r.value();
  std::printf("corpus: %zu documents, %u tags, %zu peers\n\n",
              corpus.dataset.size(), corpus.dataset.num_tags(), kNumPeers);

  struct Engine {
    const char* name;
    std::function<EngineRun()> run;
  };
  std::vector<Engine> engines = {
      {"onevsall_linear", [&] { return RunOneVsAll(corpus); }},
      {"cempar_kernel_grid",
       [&] {
         return RunP2P(corpus, [](Environment& env) {
           CemparOptions opt;
           opt.svm.kernel = Kernel::Linear();
           return std::make_unique<Cempar>(env.sim(), env.net(),
                                           *env.chord(), opt);
         });
       }},
      {"pace_local",
       [&] {
         return RunP2P(corpus, [](Environment& env) {
           return std::make_unique<Pace>(env.sim(), env.net(), env.overlay(),
                                         PaceOptions{});
         });
       }},
  };

  CsvWriter csv({"engine", "threads", "seconds", "speedup_vs_1",
                 "identical_to_1thread"});
  std::printf("%-20s %8s %10s %10s %10s\n", "engine", "threads", "seconds",
              "speedup", "identical");
  for (const Engine& engine : engines) {
    std::vector<double> reference;
    double t1 = 0.0;
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      ThreadPool::SetGlobalConcurrency(threads);
      EngineRun run = engine.run();
      if (threads == 1) {
        reference = run.checksum;
        t1 = run.seconds;
      }
      const bool identical = run.checksum == reference;  // exact doubles
      const double speedup = run.seconds > 0.0 ? t1 / run.seconds : 0.0;
      std::printf("%-20s %8zu %10.3f %10.2f %10s\n", engine.name, threads,
                  run.seconds, speedup, identical ? "yes" : "NO");
      csv.AddRow({engine.name, std::to_string(threads),
                  std::to_string(run.seconds), std::to_string(speedup),
                  identical ? "yes" : "no"});
      if (!identical) {
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION: %s at %zu threads diverged "
                     "from the serial run\n",
                     engine.name, threads);
        return 1;
      }
    }
  }
  ThreadPool::SetGlobalConcurrency(0);

  WriteResults(csv, "parallel.csv");
  return 0;
}
