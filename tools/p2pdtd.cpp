// p2pdtd — the real-socket service daemon. Trains the chosen protocol on
// the deterministic demo corpus, then serves tag predictions over TCP with
// the length-prefixed frame codec. Single process, single thread: the epoll
// loop is also the simulator driver thread.
//
// Graceful shutdown: SIGTERM / SIGINT request a drain — stop accepting,
// finish every request already received, flush, exit 0. A second signal
// while draining is ignored (the drain deadline force-closes stragglers).
//
// Run example (see README "Service mode"):
//   p2pdtd --port 7421 --algo pace &
//   p2pdt_client --port 7421 --sessions 16 --rate 40

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "corpus/vectorize.h"
#include "net/daemon.h"
#include "p2pdmt/service_harness.h"

using namespace p2pdt;

namespace {

ServiceDaemon* g_daemon = nullptr;

void HandleSignal(int) {
  // Async-signal-safe: RequestDrain only writes one byte to the loop's
  // self-pipe.
  if (g_daemon != nullptr) g_daemon->RequestDrain();
}

struct Flags {
  uint16_t port = 0;
  std::string bind = "127.0.0.1";
  std::string algo = "pace";
  std::size_t peers = 24;
  std::size_t users = 24;
  std::size_t tags = 6;
  std::size_t max_connections = 256;
  double idle_timeout = 30.0;
  double drain_timeout = 10.0;
  bool admission = false;
  double service_rate = 200.0;
  std::size_t max_depth = 32;
  std::size_t max_docs = 256;
  uint64_t seed = 20100913;
};

void Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [--port N] [--bind ADDR] [--algo pace|cempar] [--peers N]\n"
      "          [--users N] [--tags N] [--max-connections N]\n"
      "          [--idle-timeout SEC] [--drain-timeout SEC]\n"
      "          [--admission] [--service-rate R] [--max-depth N]\n"
      "          [--max-docs N] [--seed N]\n",
      prog);
}

bool ParseFlags(int argc, char** argv, Flags& flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--admission") {
      flags.admission = true;
    } else if (arg == "--port" && (v = next())) {
      flags.port = static_cast<uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--bind" && (v = next())) {
      flags.bind = v;
    } else if (arg == "--algo" && (v = next())) {
      flags.algo = v;
    } else if (arg == "--peers" && (v = next())) {
      flags.peers = std::strtoull(v, nullptr, 10);
    } else if (arg == "--users" && (v = next())) {
      flags.users = std::strtoull(v, nullptr, 10);
    } else if (arg == "--tags" && (v = next())) {
      flags.tags = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-connections" && (v = next())) {
      flags.max_connections = std::strtoull(v, nullptr, 10);
    } else if (arg == "--idle-timeout" && (v = next())) {
      flags.idle_timeout = std::strtod(v, nullptr);
    } else if (arg == "--drain-timeout" && (v = next())) {
      flags.drain_timeout = std::strtod(v, nullptr);
    } else if (arg == "--service-rate" && (v = next())) {
      flags.service_rate = std::strtod(v, nullptr);
    } else if (arg == "--max-depth" && (v = next())) {
      flags.max_depth = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-docs" && (v = next())) {
      flags.max_docs = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seed" && (v = next())) {
      flags.seed = std::strtoull(v, nullptr, 10);
    } else {
      Usage(argv[0]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, flags)) return 2;

  CorpusOptions corpus_options;
  corpus_options.num_users = flags.users;
  corpus_options.min_docs_per_user = 50;
  corpus_options.max_docs_per_user = 80;
  corpus_options.num_tags = flags.tags;
  corpus_options.vocabulary_size = 3000;
  corpus_options.seed = flags.seed;
  Result<VectorizedCorpus> corpus = MakeVectorizedCorpus(corpus_options);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 corpus.status().ToString().c_str());
    return 1;
  }

  ExperimentOptions harness;
  harness.algorithm =
      flags.algo == "cempar" ? AlgorithmType::kCempar : AlgorithmType::kPace;
  harness.env.num_peers = flags.peers;
  harness.seed = flags.seed;
  std::fprintf(stderr, "p2pdtd: training %s on %zu peers...\n",
               flags.algo.c_str(), flags.peers);
  Result<std::unique_ptr<TrainedService>> service =
      BuildTrainedService(*corpus, harness, flags.max_docs);
  if (!service.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  TrainedService& trained = **service;

  DaemonOptions options;
  options.bind_address = flags.bind;
  options.port = flags.port;
  options.max_connections = flags.max_connections;
  options.idle_timeout = flags.idle_timeout;
  options.drain_timeout = flags.drain_timeout;
  options.serve.enabled = flags.admission;
  options.serve.admission_control = flags.admission;
  options.serve.service_rate = flags.service_rate;
  options.serve.max_depth = flags.max_depth;
  options.metrics = trained.env->metrics();

  ServiceDaemon daemon(options, [&trained](NodeId requester,
                                           const SparseVector& x) {
    return trained.Serve(requester, x);
  });
  Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start: %s\n", started.ToString().c_str());
    return 1;
  }

  g_daemon = &daemon;
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  // Scripts parse this line for the ephemeral port; keep the format stable.
  std::printf("p2pdtd listening on %s:%u (algo=%s catalog=%zu)\n",
              flags.bind.c_str(), daemon.port(), flags.algo.c_str(),
              trained.catalog.size());
  std::fflush(stdout);

  daemon.Run();
  g_daemon = nullptr;

  const DaemonStats& stats = daemon.stats();
  std::printf(
      "p2pdtd exiting: accepted=%llu requests=%llu ok=%llu degraded=%llu "
      "failed=%llu shed=%llu malformed=%llu oversized=%llu reaped=%llu "
      "drain_completed=%d\n",
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.served_ok),
      static_cast<unsigned long long>(stats.served_degraded),
      static_cast<unsigned long long>(stats.served_failed),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.malformed_frames +
                                      stats.malformed_payloads),
      static_cast<unsigned long long>(stats.oversized_frames),
      static_cast<unsigned long long>(stats.reaped_idle),
      stats.drain_completed ? 1 : 0);
  return 0;
}
