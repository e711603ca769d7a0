#include "load.h"

#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>

#include "common/rng.h"
#include "net/event_loop.h"
#include "net/frame.h"

namespace perfbench {

using p2pdt::Frame;
using p2pdt::FrameType;
using p2pdt::MonotonicSeconds;
using p2pdt::Rng;
using p2pdt::Status;

namespace {

/// A phase whose answers stop arriving for this long is abandoned: the
/// outstanding requests count as failed instead of hanging the run.
constexpr double kStallSeconds = 30.0;
/// How long before a due time the open loop stops sleeping.
constexpr double kSpinSeconds = 0.0005;

struct Fnv64 {
  uint64_t state = 0xcbf29ce484222325ull;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      state ^= (v >> (8 * i)) & 0xffu;
      state *= 0x100000001b3ull;
    }
  }
};

}  // namespace

std::vector<Arrival> PoissonSchedule(std::size_t count,
                                     std::size_t catalog_size, double zipf_s,
                                     uint64_t seed) {
  Rng gaps(p2pdt::DeriveSeed(seed, 1));
  Rng picks(p2pdt::DeriveSeed(seed, 2));
  p2pdt::ZipfSampler zipf(catalog_size, zipf_s);
  std::vector<Arrival> out(count);
  double t = 0.0;
  for (Arrival& a : out) {
    t += gaps.Exponential(1.0);
    a = Arrival{t, static_cast<std::size_t>(zipf.Sample(picks))};
  }
  return out;
}

std::vector<Arrival> AtRate(const std::vector<Arrival>& unit, double rate,
                            double seconds) {
  std::vector<Arrival> out;
  for (const Arrival& a : unit) {
    if (a.offset / rate >= seconds) break;
    out.push_back(Arrival{a.offset / rate, a.doc});
  }
  return out;
}

std::vector<std::size_t> ZipfDocs(std::size_t n, std::size_t catalog_size,
                                  double zipf_s, uint64_t seed) {
  Rng picks(p2pdt::DeriveSeed(seed, 3));
  p2pdt::ZipfSampler zipf(catalog_size, zipf_s);
  std::vector<std::size_t> out(n);
  for (std::size_t& d : out) d = static_cast<std::size_t>(zipf.Sample(picks));
  return out;
}

uint64_t AnswerDigest(const std::vector<uint32_t>& tags,
                      const std::vector<double>& scores) {
  Fnv64 h;
  h.Mix(tags.size());
  for (uint32_t t : tags) h.Mix(t);
  for (double s : scores) {
    uint64_t bits = 0;
    std::memcpy(&bits, &s, sizeof(bits));
    h.Mix(bits);
  }
  return h.state;
}

LoadDriver::LoadDriver(const std::vector<p2pdt::SparseVector>& catalog,
                       const std::vector<std::size_t>& requesters,
                       std::size_t num_peers)
    : catalog_(catalog), requesters_(requesters), num_peers_(num_peers) {}

Status LoadDriver::Connect(uint16_t port, std::size_t connections) {
  Close();
  conns_.resize(connections);
  for (p2pdt::ServiceClient& c : conns_) {
    Status st = c.Connect("127.0.0.1", port);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

void LoadDriver::Close() {
  for (p2pdt::ServiceClient& c : conns_) c.Close();
  conns_.clear();
  pending_.clear();
}

void LoadDriver::Send(std::size_t conn, std::size_t index,
                      PhaseResult& result) {
  RequestRecord& rec = result.requests[index];
  rec.id = next_id_++;
  p2pdt::PredictRequest request;
  request.id = rec.id;
  request.requester = rec.id * num_peers_ + RequesterFor(rec.doc);
  request.doc = catalog_[rec.doc];
  const std::string payload = p2pdt::EncodePredictRequest(request);
  rec.sent = MonotonicSeconds();
  if (!conns_[conn].connected() ||
      !conns_[conn].SendFrame(FrameType::kPredictRequest, payload).ok()) {
    rec.outcome = RequestRecord::Outcome::kIoError;
    rec.answered = rec.sent;
    ++result.io_errors;
    return;
  }
  pending_[rec.id] = {index, conn};
}

std::size_t LoadDriver::Receive(double timeout, PhaseResult& result,
                                std::vector<std::size_t>* settled_conns) {
  std::vector<struct pollfd> pfds(conns_.size());
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    pfds[i].fd = conns_[i].fd();
    pfds[i].events = POLLIN;
    pfds[i].revents = 0;
  }
  timeout = std::max(timeout, 0.0);
  struct timespec ts;
  ts.tv_sec = static_cast<time_t>(timeout);
  ts.tv_nsec = static_cast<long>((timeout - std::floor(timeout)) * 1e9);
  if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) return 0;

  std::size_t settled = 0;
  auto settle = [&](uint64_t id, RequestRecord::Outcome outcome,
                    uint64_t answer, double now) {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    RequestRecord& rec = result.requests[it->second.first];
    rec.outcome = outcome;
    rec.answer = answer;
    rec.answered = now;
    result.end = std::max(result.end, now);
    if (outcome == RequestRecord::Outcome::kFailed) ++result.failed;
    if (outcome == RequestRecord::Outcome::kShed) ++result.shed;
    if (outcome == RequestRecord::Outcome::kIoError) ++result.io_errors;
    if (settled_conns != nullptr) settled_conns->push_back(it->second.second);
    pending_.erase(it);
    ++settled;
  };

  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (pfds[i].revents == 0) continue;
    p2pdt::ServiceClient& conn = conns_[i];
    const Status read = conn.ReadAvailable();
    const double now = MonotonicSeconds();
    Frame frame;
    while (conn.PollFrame(frame)) {
      if (frame.type == FrameType::kPredictResponse) {
        auto resp = p2pdt::DecodePredictResponse(frame.payload);
        if (!resp.ok()) continue;
        settle(resp->id,
               resp->success ? RequestRecord::Outcome::kOk
                             : RequestRecord::Outcome::kFailed,
               resp->success ? AnswerDigest(resp->tags, resp->scores) : 0,
               now);
      } else if (frame.type == FrameType::kOverload) {
        auto rej = p2pdt::DecodeOverloadReject(frame.payload);
        if (rej.ok()) settle(rej->id, RequestRecord::Outcome::kShed, 0, now);
      } else if (frame.type == FrameType::kError) {
        auto rej = p2pdt::DecodeErrorReject(frame.payload);
        if (rej.ok()) settle(rej->id, RequestRecord::Outcome::kFailed, 0, now);
      }
    }
    if (!read.ok() || conn.eof()) {
      // The connection is gone: everything still outstanding on it is an
      // I/O error, and it takes no more requests.
      std::vector<uint64_t> lost;
      for (const auto& [id, where] : pending_) {
        if (where.second == i) lost.push_back(id);
      }
      for (uint64_t id : lost) {
        settle(id, RequestRecord::Outcome::kIoError, 0, now);
      }
      conn.Close();
    }
  }
  return settled;
}

void LoadDriver::Abandon(PhaseResult& result) {
  const double now = MonotonicSeconds();
  for (const auto& [id, where] : pending_) {
    RequestRecord& rec = result.requests[where.first];
    rec.outcome = RequestRecord::Outcome::kFailed;
    rec.answered = now;
    ++result.failed;
  }
  pending_.clear();
  result.end = std::max(result.end, now);
}

PhaseResult LoadDriver::ClosedLoop(double seconds,
                                   const std::vector<std::size_t>& docs) {
  PhaseResult result;
  result.start = MonotonicSeconds();
  result.end = result.start;
  const double stop = result.start + seconds;
  std::size_t next = 0;
  auto issue = [&](std::size_t conn) {
    RequestRecord rec;
    rec.doc = docs[next++ % docs.size()];
    rec.due = MonotonicSeconds();
    result.requests.push_back(rec);
    Send(conn, result.requests.size() - 1, result);
  };
  for (std::size_t c = 0; c < conns_.size(); ++c) issue(c);
  double last_progress = MonotonicSeconds();
  std::vector<std::size_t> settled;
  while (!pending_.empty()) {
    settled.clear();
    if (Receive(0.05, result, &settled) > 0) {
      last_progress = MonotonicSeconds();
    } else if (MonotonicSeconds() - last_progress > kStallSeconds) {
      Abandon(result);
      break;
    }
    if (MonotonicSeconds() < stop) {
      for (std::size_t c : settled) {
        if (conns_[c].connected()) issue(c);
      }
    }
  }
  return result;
}

PhaseResult LoadDriver::OpenLoop(const std::vector<Arrival>& schedule) {
  PhaseResult result;
  result.start = MonotonicSeconds();
  result.end = result.start;
  result.requests.resize(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    result.requests[i].doc = schedule[i].doc;
    result.requests[i].due = result.start + schedule[i].offset;
  }
  std::size_t next = 0;
  double last_progress = result.start;
  while (next < schedule.size() || !pending_.empty()) {
    double now = MonotonicSeconds();
    while (next < schedule.size() && result.requests[next].due <= now) {
      Send(next % conns_.size(), next, result);
      ++next;
      now = MonotonicSeconds();
    }
    // Sleep until shortly before the next due time, then poll without
    // sleeping: a wakeup from a timed sleep can land late, and that lag
    // would be charged to the daemon.
    double wait =
        next < schedule.size() ? result.requests[next].due - now : 0.05;
    wait = wait > kSpinSeconds ? wait - kSpinSeconds : 0.0;
    if (Receive(wait, result, nullptr) > 0 || next < schedule.size()) {
      last_progress = MonotonicSeconds();
    } else if (MonotonicSeconds() - last_progress > kStallSeconds) {
      Abandon(result);
      break;
    }
  }
  return result;
}

}  // namespace perfbench
