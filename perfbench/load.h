#ifndef P2PDT_PERFBENCH_LOAD_H_
#define P2PDT_PERFBENCH_LOAD_H_

// Client side of the serving phase: drives a running p2pdtd through
// ServiceClient from one thread over at most a handful of connections, in
// closed loop (each connection keeps one request outstanding) or open loop
// (requests sent at precomputed Poisson due times whatever the daemon is
// doing). Every request is timed from its due time, so a stall charges
// the wait it imposes on the requests queued behind it.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sparse_vector.h"
#include "common/status.h"
#include "net/client.h"

namespace perfbench {

/// One request of a phase, as sent and as answered.
struct RequestRecord {
  uint64_t id = 0;
  std::size_t doc = 0;  // index into the catalog
  double due = 0.0;     // monotonic seconds
  double sent = 0.0;
  double answered = 0.0;
  enum class Outcome : uint8_t { kPending, kOk, kFailed, kShed, kIoError };
  Outcome outcome = Outcome::kPending;
  /// FNV-1a digest of the answer's tags and scores (0 unless kOk).
  uint64_t answer = 0;
};

struct PhaseResult {
  std::vector<RequestRecord> requests;
  double start = 0.0;
  double end = 0.0;  // last answer (or give-up)
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t io_errors = 0;
};

/// Open-loop arrival: offset from the phase start plus the request content.
struct Arrival {
  double offset = 0.0;
  std::size_t doc = 0;
};

/// `count` Poisson arrivals at one per second, documents drawn from a Zipf
/// popularity over `catalog_size` (index 0 most popular). A pure function
/// of its arguments; AtRate turns it into the schedule of a given rate.
std::vector<Arrival> PoissonSchedule(std::size_t count,
                                     std::size_t catalog_size, double zipf_s,
                                     uint64_t seed);

/// The arrivals of a unit-rate schedule that fall within `seconds` once
/// its offsets are divided by `rate`.
std::vector<Arrival> AtRate(const std::vector<Arrival>& unit, double rate,
                            double seconds);

/// Zipf document sequence for the closed loop (no due times).
std::vector<std::size_t> ZipfDocs(std::size_t n, std::size_t catalog_size,
                                  double zipf_s, uint64_t seed);

/// FNV-1a over an answer's tags and scores (bit patterns of the doubles).
uint64_t AnswerDigest(const std::vector<uint32_t>& tags,
                      const std::vector<double>& scores);

class LoadDriver {
 public:
  /// `catalog` and `requesters` must outlive the driver. Request ids are
  /// encoded into the wire requester field as id * num_peers + peer, so
  /// the dispatch side can match its timing to the client's.
  LoadDriver(const std::vector<p2pdt::SparseVector>& catalog,
             const std::vector<std::size_t>& requesters,
             std::size_t num_peers);

  p2pdt::Status Connect(uint16_t port, std::size_t connections);
  void Close();

  /// Each connection keeps one request outstanding for `seconds`, drawing
  /// documents from `docs` in order (cycling).
  PhaseResult ClosedLoop(double seconds, const std::vector<std::size_t>& docs);

  /// Sends each arrival at its due time, round-robin over the connections.
  PhaseResult OpenLoop(const std::vector<Arrival>& schedule);

  /// Requester peer the catalog document is always asked from.
  std::size_t RequesterFor(std::size_t doc) const {
    return requesters_[doc % requesters_.size()];
  }
  /// Inverse of the wire requester encoding (used by the dispatch side).
  static uint64_t IdOf(uint64_t wire_requester, std::size_t num_peers) {
    return wire_requester / num_peers;
  }

 private:
  /// Sends request `index` of `result` on connection `conn`.
  void Send(std::size_t conn, std::size_t index, PhaseResult& result);
  /// Reads every connection that has data within `timeout` seconds and
  /// settles the answered requests, appending each settled request's
  /// connection to `settled_conns` when given. Returns the number settled.
  std::size_t Receive(double timeout, PhaseResult& result,
                      std::vector<std::size_t>* settled_conns);
  /// Fails every outstanding request of a stalled phase.
  void Abandon(PhaseResult& result);

  const std::vector<p2pdt::SparseVector>& catalog_;
  const std::vector<std::size_t>& requesters_;
  std::size_t num_peers_;
  std::vector<p2pdt::ServiceClient> conns_;
  /// Outstanding request id -> (index in the phase's requests, connection).
  std::unordered_map<uint64_t, std::pair<std::size_t, std::size_t>> pending_;
  uint64_t next_id_ = 1;
};

}  // namespace perfbench

#endif  // P2PDT_PERFBENCH_LOAD_H_
