// SVC1 — real-socket service robustness: train CEMPaR and PACE, stand the
// epoll daemon up on an ephemeral loopback port, and replay the PR 8
// session schedule over real TCP connections. Two arms per algorithm:
//
//   clean    the replay alone — the latency/goodput baseline
//   faulted  the same replay with the SocketFaultInjector running
//            concurrently (abrupt RSTs, slowloris stalls, one-byte frame
//            drip, the malformed-bytes set)
//
// The robustness claim: the faulted arm loses nothing. Same request count
// served, zero replay failures, zero lost connections, and a per-answer
// fingerprint identical to the clean arm's — socket-level abuse changes no
// prediction. Each arm gets a freshly trained service (same seed), so the
// fingerprints are comparable by construction. Every arm ends with a
// graceful drain that must complete inside the deadline.
//
// `--smoke` runs a small grid and writes the same CSV schema for CI.

#include <cstdio>
#include <cstring>
#include <thread>

#include "bench/bench_util.h"
#include "net/daemon.h"
#include "net/socket_fault.h"
#include "p2pdmt/service_harness.h"
#include "p2pdmt/service_loadgen.h"

using namespace p2pdt_bench;

namespace {

struct ServiceRow {
  std::string algorithm;
  std::string arm;
  ServiceLoadResult replay;
  SocketFaultReport faults;  // zero-initialised on the clean arm
  DaemonStats daemon;
  double train_wall_s = 0.0;
};

struct ServiceBenchOptions {
  std::size_t num_peers = 24;
  std::size_t num_tags = 6;
  std::size_t sessions = 16;
  std::size_t min_docs = 10;
  std::size_t max_docs = 20;
  double arrival_rate = 200.0;
  std::size_t catalog_cap = 256;
  double idle_timeout = 2.0;
  double max_wall_seconds = 300.0;
};

void PrintHeader() {
  std::printf("%-8s %-8s %8s %8s %7s %7s %7s %8s %8s %7s %6s %6s\n", "algo",
              "arm", "offered", "ok", "failed", "shed", "io_err", "p95_s",
              "rate/s", "reaped", "drain", "alive");
}

void PrintRow(const ServiceRow& row) {
  std::printf(
      "%-8s %-8s %8llu %8llu %7llu %7llu %7llu %8.4f %8.1f %7llu %6d %6d\n",
      row.algorithm.c_str(), row.arm.c_str(),
      static_cast<unsigned long long>(row.replay.load.offered),
      static_cast<unsigned long long>(row.replay.load.ok),
      static_cast<unsigned long long>(row.replay.load.failed),
      static_cast<unsigned long long>(row.replay.load.shed),
      static_cast<unsigned long long>(row.replay.io_errors),
      row.replay.load.p95_latency, row.replay.achieved_rate,
      static_cast<unsigned long long>(row.daemon.reaped_idle),
      row.daemon.drain_completed ? 1 : 0, row.faults.liveness_ok ? 1 : 0);
}

/// One trained daemon, one replay, optional concurrent fault script, then a
/// graceful drain. The daemon runs on its own thread; it is fully
/// constructed before the thread starts (that construction is the
/// happens-before edge handing the classifier to the loop thread), and
/// after Run() returns only this thread reads the stats.
Result<ServiceRow> RunArm(const VectorizedCorpus& corpus,
                          AlgorithmType algorithm, bool faulted,
                          const ServiceBenchOptions& bench) {
  ServiceRow row;
  row.algorithm = algorithm == AlgorithmType::kCempar ? "cempar" : "pace";
  row.arm = faulted ? "faulted" : "clean";

  ExperimentOptions harness;
  harness.algorithm = algorithm;
  harness.env.num_peers = bench.num_peers;
  harness.seed = 20100913;
  const double t0 = MonotonicSeconds();
  Result<std::unique_ptr<TrainedService>> service =
      BuildTrainedService(corpus, harness, bench.catalog_cap);
  P2PDT_RETURN_IF_ERROR(service.status());
  row.train_wall_s = MonotonicSeconds() - t0;
  TrainedService& trained = **service;

  DaemonOptions options;
  options.port = 0;  // ephemeral — no collisions across arms
  options.idle_timeout = bench.idle_timeout;
  ServiceDaemon daemon(options,
                      [&trained](NodeId requester, const SparseVector& x) {
                        return trained.Serve(requester, x);
                      });
  P2PDT_RETURN_IF_ERROR(daemon.Start());
  std::thread loop([&daemon] { daemon.Run(); });

  SocketFaultReport faults;
  Status fault_status = Status::OK();
  std::thread abuse;
  if (faulted) {
    SocketFaultOptions fo;
    fo.port = daemon.port();
    fo.io_timeout = bench.idle_timeout + 5.0;
    if (!trained.catalog.empty()) fo.doc = trained.catalog[0];
    abuse = std::thread([fo, &faults, &fault_status] {
      Result<SocketFaultReport> r = RunSocketFaults(fo);
      if (r.ok()) {
        faults = *r;
      } else {
        fault_status = r.status();
      }
    });
  }

  ServiceLoadOptions load;
  load.port = daemon.port();
  load.max_wall_seconds = bench.max_wall_seconds;
  load.schedule.sessions = bench.sessions;
  load.schedule.min_docs = bench.min_docs;
  load.schedule.max_docs = bench.max_docs;
  load.schedule.arrival_rate = bench.arrival_rate;
  load.schedule.seed = 20100913;
  Result<ServiceLoadResult> replay = RunServiceLoad(load, trained.catalog);

  if (abuse.joinable()) abuse.join();
  daemon.RequestDrain();
  loop.join();

  P2PDT_RETURN_IF_ERROR(replay.status());
  P2PDT_RETURN_IF_ERROR(fault_status);
  row.replay = *replay;
  row.faults = faults;
  row.daemon = daemon.stats();
  return row;
}

CsvWriter ServiceCsv(const std::vector<ServiceRow>& rows) {
  CsvWriter csv({"algorithm", "arm", "offered", "completed", "ok", "degraded",
                 "cached", "failed", "shed", "retries", "within_slo",
                 "io_errors", "p50_s", "p95_s", "p99_s", "achieved_rate",
                 "wall_s", "train_wall_s", "fingerprint", "daemon_accepted",
                 "daemon_requests", "daemon_malformed", "daemon_oversized",
                 "daemon_reaped_idle", "daemon_read_errors",
                 "daemon_slow_consumer_closed", "drain_completed",
                 "fault_resets", "fault_stalls_reaped", "fault_typed_errors",
                 "fault_predicts_ok", "fault_liveness_ok"});
  for (const ServiceRow& row : rows) {
    const LoadGenResult& r = row.replay.load;
    const DaemonStats& d = row.daemon;
    csv.AddRow({row.algorithm, row.arm, std::to_string(r.offered),
                std::to_string(r.completed), std::to_string(r.ok),
                std::to_string(r.degraded), std::to_string(r.cached),
                std::to_string(r.failed), std::to_string(r.shed),
                std::to_string(r.retries), std::to_string(r.within_slo),
                std::to_string(row.replay.io_errors), CsvNumber(r.p50_latency),
                CsvNumber(r.p95_latency), CsvNumber(r.p99_latency),
                CsvNumber(row.replay.achieved_rate),
                CsvNumber(row.replay.wall_seconds),
                CsvNumber(row.train_wall_s), CsvHex(r.fingerprint),
                std::to_string(d.accepted), std::to_string(d.requests),
                std::to_string(d.malformed_frames + d.malformed_payloads),
                std::to_string(d.oversized_frames),
                std::to_string(d.reaped_idle), std::to_string(d.read_errors),
                std::to_string(d.slow_consumer_closed),
                std::to_string(d.drain_completed ? 1 : 0),
                std::to_string(row.faults.resets_done),
                std::to_string(row.faults.stalls_reaped),
                std::to_string(row.faults.typed_errors_received),
                std::to_string(row.faults.predicts_ok),
                std::to_string(row.faults.liveness_ok ? 1 : 0)});
  }
  return csv;
}

int RunGrid(const ServiceBenchOptions& bench) {
  const VectorizedCorpus& corpus =
      SharedCorpus(bench.num_peers, bench.num_tags);
  PrintHeader();
  std::vector<ServiceRow> rows;
  for (AlgorithmType algorithm :
       {AlgorithmType::kPace, AlgorithmType::kCempar}) {
    for (bool faulted : {false, true}) {
      Result<ServiceRow> row = RunArm(corpus, algorithm, faulted, bench);
      if (!row.ok()) {
        std::fprintf(stderr, "arm failed: %s\n",
                     row.status().ToString().c_str());
        return 1;
      }
      PrintRow(*row);
      rows.push_back(std::move(*row));
    }
  }
  WriteResults(ServiceCsv(rows), "service.csv");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) {
    std::printf("=== SVC1 smoke: socket replay, clean vs faulted ===\n");
    ServiceBenchOptions bench;
    bench.num_peers = 12;
    bench.num_tags = 4;
    bench.sessions = 8;
    bench.min_docs = 5;
    bench.max_docs = 10;
    bench.catalog_cap = 64;
    return RunGrid(bench);
  }

  // Full mode: >= 10k requests per arm under concurrent fault injection —
  // the ISSUE acceptance bar.
  std::printf("=== SVC1: socket replay, clean vs faulted, 10k+ requests ===\n\n");
  ServiceBenchOptions bench;
  bench.num_peers = 24;
  bench.num_tags = 6;
  bench.sessions = 160;
  bench.min_docs = 55;
  bench.max_docs = 75;
  bench.arrival_rate = 400.0;
  bench.catalog_cap = 512;
  // Sessions idle between Poisson arrivals; at this rate a 2 s reaper
  // would close ~2.5% of legitimate gaps mid-session. Keep the deadline
  // far above any plausible gap so only injected stalls get reaped.
  bench.idle_timeout = 20.0;
  bench.max_wall_seconds = 600.0;
  return RunGrid(bench);
}
