// serve-dna: the screening daemon as its users reach it.
//
// An in-process service::ScreenServer (persistent PipelineEngine, the
// linear DNA scheme screen_serve uses, journal in the run directory)
// serves a generator thread that speaks the frame/protocol codec over
// three persistent UNIX-socket connections. Phases:
//   set-up    restart-to-ready, repeated: ScreenServer::create replaying a
//             journal pre-filled through RequestJournal, plus the first
//             answered ping; the median is setup_s.
//   warmup    a short open loop, untimed.
//   nominal   open loop, Poisson arrivals at kNominalRps, each request
//             timed from its due time; slo_met_frac is the share answered
//             correctly within kLimitMs.
//   capacity  closed loop holding kCapacityDepth requests outstanding, so
//             the daemon stays saturated and no backlog can grow; the
//             latency percentiles, capacity_rps (requests answered per
//             second) and gcups (cells answered per second, the daemon
//             being busy throughout) come from it.
// Latency percentiles come from the saturated phase because there the
// daemon is bound by compute: a host stall of a few ms slows it in
// proportion. At the nominal rate latency is a few ms of linger and poll
// wake-ups, and the same stall doubled p99 in some runs and not others
// (p99 6.0-13.4 ms over ten seeds).
// The traced run (--trace 1) replaces the capacity phase with a second,
// traced nominal phase on a server with a telemetry session, and joins
// the benchmark's client spans with the server's admit / queue.wait /
// screen / engine-stage spans per request.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "encoding/batch.hpp"
#include "encoding/random.hpp"
#include "ledger.hpp"
#include "service/batch.hpp"
#include "service/client.hpp"
#include "service/frame.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sw/lane.hpp"
#include "sw/scalar.hpp"
#include "sw/striped.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cancel.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace ledger {
namespace {

namespace sw = swbpbc::sw;
namespace svc = swbpbc::service;
namespace enc = swbpbc::encoding;
namespace util = swbpbc::util;
namespace tel = swbpbc::telemetry;

constexpr sw::ScoreParams kParams{2, 1, 1};  // screen_serve's scheme
constexpr sw::LaneWidth kWidth = sw::LaneWidth::k64;
constexpr std::size_t kLaneGroup = 64;

// The request mix. Requests of one class share (pairs, m, n), so
// plan_batch can pack them into one lane group.
struct Class {
  const char* name;
  std::size_t pairs, m, n;
  std::size_t per_hundred;  // arrivals per 100, exact in every block
  std::size_t tenants;
  std::size_t templates;    // distinct request bodies
};
constexpr Class kClasses[] = {
    {"small", 4, 32, 128, 80, 8, 48},    // many tenants, under-fill a group
    {"medium", 16, 64, 128, 17, 2, 12},
    {"large", 64, 32, 512, 3, 1, 4},     // rare, full-lane, long n
};
constexpr std::size_t kNumClasses = std::size(kClasses);

// Nominal open-loop rate, far below the saturated rate of the capacity
// phase: thin traffic leaves lane groups mostly empty, so a batch costs
// nearly full price, and higher rates put the nominal percentiles on the
// steep part of the queueing curve, where host noise dominates.
constexpr double kNominalRps = 300.0;
// Latency limit for slo_met_frac: above the nominal p99 (6-14 ms over ten
// seeds on a 4-vCPU VM).
constexpr double kLimitMs = 30.0;
constexpr double kNominalShare = 0.4;  // of --seconds; rest is capacity
// Requests kept outstanding in the capacity phase: enough that every
// class fills its lane groups, so batches are cut by size, not by the
// linger timer, and the phase is bound by compute.
constexpr std::size_t kCapacityDepth = 64;
// Window of the saturated phase's rates.
constexpr std::uint64_t kRateWindowUs = 250'000;
constexpr double kWarmupSeconds = 0.5;
constexpr int kSetupRepeats = 9;
constexpr std::size_t kJournalRecords = 6000;  // pre-filled, replayed
constexpr std::size_t kConnections = 3;
constexpr std::size_t kScalarSample = 64;
// A traced run's layer self times must cover the client wall time to
// within this share (the attribution sum check).
constexpr double kAttributionTolerance = 0.05;

struct Template {
  std::size_t cls = 0;
  svc::ScreenRequest request;  // id/tenant/trace filled per send
  std::vector<std::uint32_t> expected;
};

struct Mix {
  std::vector<Template> templates;
  std::vector<std::size_t> first;  // first template index per class
};

enc::GenericSequence to_codes(const enc::Sequence& s) {
  enc::GenericSequence g(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) g[i] = enc::code(s[i]);
  return g;
}

// Request bodies, with reference scores from the striped engine (the
// daemon scores on the BPBC PipelineEngine), spot-checked against
// scalar Gotoh.
Mix make_mix(std::uint64_t seed) {
  Mix mix;
  util::Xoshiro256 rng(seed ^ 0x5e17eull);
  const sw::ScoringScheme scheme = sw::ScoringScheme::from_params(kParams);
  sw::StripedProfileCache cache(8);
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    mix.first.push_back(mix.templates.size());
    for (std::size_t t = 0; t < kClasses[c].templates; ++t) {
      Template tpl;
      tpl.cls = c;
      // One query per request, broadcast over its targets (the screening
      // front ends' shape).
      const enc::Sequence query = enc::random_sequence(rng, kClasses[c].m);
      tpl.request.xs.assign(kClasses[c].pairs, query);
      tpl.request.ys =
          enc::random_sequences(rng, kClasses[c].pairs, kClasses[c].n);
      std::vector<enc::GenericSequence> gx, gy;
      for (std::size_t k = 0; k < kClasses[c].pairs; ++k) {
        gx.push_back(to_codes(tpl.request.xs[k]));
        gy.push_back(to_codes(tpl.request.ys[k]));
      }
      auto scores = sw::try_striped_max_scores(
          gx, gy, scheme, swbpbc::bulk::Mode::kSerial, &cache);
      if (!scores.has_value())
        throw std::runtime_error("reference: " +
                                 scores.status().to_string());
      tpl.expected = std::move(scores).value();
      mix.templates.push_back(std::move(tpl));
    }
  }
  util::Xoshiro256 pick(seed ^ 0x90705ull);
  for (std::size_t i = 0; i < kScalarSample; ++i) {
    const Template& tpl = mix.templates[static_cast<std::size_t>(
        pick.below(mix.templates.size()))];
    const auto k = static_cast<std::size_t>(pick.below(tpl.expected.size()));
    if (sw::scheme_max_score(tpl.request.xs[k], tpl.request.ys[k], scheme) !=
        tpl.expected[k])
      throw std::runtime_error(
          "striped reference disagrees with scalar Gotoh");
  }
  return mix;
}

// One arrival of the schedule.
struct Arrival {
  std::uint64_t due_us = 0;  // offset from the phase start
  std::size_t tpl = 0;
  std::size_t tenant = 0;    // global tenant index
};

std::size_t tenant_base(std::size_t cls) {
  std::size_t base = 0;
  for (std::size_t c = 0; c < cls; ++c) base += kClasses[c].tenants;
  return base;
}

std::string tenant_name(std::size_t tenant) {
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const std::size_t base = tenant_base(c);
    if (tenant < base + kClasses[c].tenants)
      return std::string(kClasses[c].name) + std::to_string(tenant - base);
  }
  return "t" + std::to_string(tenant);
}

// Requests in blocks of 100 with the exact class shares, shuffled; the
// seed picks order, bodies and tenants. rate_rps > 0 adds Poisson due
// times, 0 leaves them for a closed loop.
std::vector<Arrival> make_schedule(const Mix& mix, std::uint64_t seed,
                                   std::size_t count, double rate_rps) {
  util::Xoshiro256 rng(seed);
  std::vector<Arrival> out;
  std::vector<std::size_t> block;
  double t_us = 0.0;
  while (out.size() < count) {
    block.clear();
    for (std::size_t c = 0; c < kNumClasses; ++c)
      block.insert(block.end(), kClasses[c].per_hundred, c);
    for (std::size_t i = block.size(); i > 1; --i)
      std::swap(block[i - 1], block[static_cast<std::size_t>(rng.below(i))]);
    for (const std::size_t c : block) {
      Arrival a;
      a.tpl = mix.first[c] + static_cast<std::size_t>(
                                 rng.below(kClasses[c].templates));
      a.tenant = tenant_base(c) +
                 static_cast<std::size_t>(rng.below(kClasses[c].tenants));
      if (rate_rps > 0.0) {
        const double u =
            (static_cast<double>(rng.next() >> 11) + 0.5) * 0x1.0p-53;
        t_us += -std::log(u) * 1e6 / rate_rps;
        a.due_us = static_cast<std::uint64_t>(t_us);
      }
      out.push_back(a);
    }
  }
  out.resize(count);
  return out;
}

// Per-request client-side timestamps (util::monotonic_us).
struct Sample {
  std::size_t tpl = 0;
  std::uint64_t due = 0;      // open loop: schedule; closed: send time
  std::uint64_t send = 0;     // encode start
  std::uint64_t encoded = 0;  // frame bytes ready
  std::uint64_t read = 0;     // response bytes read
  std::uint64_t decoded = 0;  // response decoded and checked
  std::uint64_t trace_id = 0;
  bool done = false;
  bool ok = false;
  [[nodiscard]] double latency_ms() const {
    return static_cast<double>(decoded - due) / 1e3;
  }
};

// CPU placement. The generator spins on one CPU of its own; the daemon
// and every thread it starts (poll loop, engine streams, pool workers)
// inherit the remaining CPUs. Without the split the scheduler places a
// woken daemon thread next to the spinning generator, and it waits out
// the generator's time slice: milliseconds of latency that belong to
// neither. With fewer than two CPUs nothing is pinned.
class CpuSplit {
 public:
  CpuSplit() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (::sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 2)
      return;
    rest_ = all;
    for (std::size_t c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all)) {
        CPU_ZERO(&generator_);
        CPU_SET(c, &generator_);
        CPU_CLR(c, &rest_);
        active_ = true;
        break;
      }
    }
  }
  /// The calling thread (and threads it starts later) avoid the
  /// generator's CPU.
  void daemon_side() const {
    if (active_) ::sched_setaffinity(0, sizeof rest_, &rest_);
  }
  /// The calling thread runs on the generator's CPU only.
  void generator_side() const {
    if (active_) ::sched_setaffinity(0, sizeof generator_, &generator_);
  }

 private:
  bool active_ = false;
  cpu_set_t generator_{};
  cpu_set_t rest_{};
};

// The generator: one thread, kConnections persistent non-blocking
// connections, requests routed by tenant.
class Generator {
 public:
  Generator(const Mix& mix, const std::string& socket_path, std::uint64_t run,
            const CpuSplit& cpus)
      : mix_(mix), run_(run), cpus_(cpus) {
    cpus_.generator_side();
    for (const Template& t : mix.templates) bodies_.push_back(t.request);
    for (std::size_t i = 0; i < kConnections; ++i) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) throw std::runtime_error("socket()");
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof addr) != 0) {
        ::close(fd);
        throw std::runtime_error("connect(" + socket_path +
                                 "): " + std::strerror(errno));
      }
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      conns_.push_back(Conn{fd, {}, {}, 0});
    }
  }
  ~Generator() {
    for (Conn& c : conns_) ::close(c.fd);
    cpus_.daemon_side();
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Open loop: sends each arrival at start + due_us regardless of
  /// replies, then waits (bounded) for the stragglers.
  std::vector<Sample> open_loop(const std::vector<Arrival>& schedule,
                                tel::Tracer* tracer) {
    tracer_ = tracer;
    begin_phase(schedule.size());
    const std::uint64_t start = util::monotonic_us() + 1000;
    std::size_t next = 0;
    while (next < schedule.size() || outstanding_ > 0) {
      const std::uint64_t now = util::monotonic_us();
      while (next < schedule.size() && start + schedule[next].due_us <= now) {
        send(next, schedule[next], start + schedule[next].due_us);
        ++next;
      }
      if (!pump()) break;
    }
    return std::move(samples_);
  }

  /// Closed loop: keeps `outstanding` requests in flight for `seconds`.
  std::vector<Sample> closed_loop(const std::vector<Arrival>& sequence,
                                  std::size_t outstanding, double seconds) {
    tracer_ = nullptr;
    begin_phase(sequence.size());
    const std::uint64_t end =
        util::monotonic_us() + static_cast<std::uint64_t>(seconds * 1e6);
    std::size_t next = 0;
    while (true) {
      const std::uint64_t now = util::monotonic_us();
      while (now < end && outstanding_ < outstanding &&
             next < sequence.size()) {
        send(next, sequence[next], util::monotonic_us());
        ++next;
      }
      if (outstanding_ == 0) break;
      if (!pump()) break;
    }
    samples_.resize(next);
    return std::move(samples_);
  }

 private:
  struct Conn {
    int fd;
    svc::FrameDecoder decoder;
    std::vector<std::uint8_t> out;
    std::size_t out_off;
  };

  [[nodiscard]] std::string id_prefix() const {
    return "p" + std::to_string(run_) + "." + std::to_string(phase_) + ".";
  }

  void begin_phase(std::size_t count) {
    samples_.assign(count, Sample{});
    outstanding_ = 0;
    // Request ids must never repeat within a run: the daemon answers a
    // known id from its response cache.
    static std::uint64_t phases = 0;
    phase_ = ++phases;
    stalled_since_ = 0;
  }

  void send(std::size_t index, const Arrival& a, std::uint64_t due) {
    Sample& s = samples_[index];
    s.tpl = a.tpl;
    s.due = due;
    s.send = util::monotonic_us();
    svc::ScreenRequest& req = bodies_[a.tpl];
    req.id = id_prefix() + std::to_string(index);
    req.tenant = tenant_name(a.tenant);
    req.trace_id =
        tracer_ != nullptr ? (run_ << 40) + (phase_ << 32) + index + 1 : 0;
    s.trace_id = req.trace_id;
    const std::vector<std::uint8_t> payload = svc::encode_request(req);
    const std::vector<std::uint8_t> frame =
        svc::encode_frame(svc::FrameType::kScreenRequest, payload);
    s.encoded = util::monotonic_us();
    bench_span(tracer_, "client.encode", s.send, s.encoded, s.trace_id);
    Conn& c = conns_[a.tenant % conns_.size()];
    c.out.insert(c.out.end(), frame.begin(), frame.end());
    flush(c);
    ++outstanding_;
  }

  void flush(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      throw std::runtime_error(std::string("send(): ") + std::strerror(errno));
    }
    c.out.clear();
    c.out_off = 0;
  }

  // Handles whatever socket readiness there is, without sleeping: the
  // generator spins on its own core, because a thread woken from a timed
  // sleep on this class of shared VM runs up to several ms late, which
  // would show as generator lag and skew every open-loop latency. False
  // when the daemon stopped answering (nothing completed for 20 s).
  bool pump() {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      short events = POLLIN;
      if (c.out_off < c.out.size()) events |= POLLOUT;
      fds.push_back({c.fd, events, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(), 0);
    if (ready < 0 && errno != EINTR)
      throw std::runtime_error(std::string("poll(): ") +
                               std::strerror(errno));
    const std::size_t before = outstanding_;
    for (std::size_t i = 0; i < fds.size() && ready > 0; ++i) {
      if (fds[i].revents & POLLOUT) flush(conns_[i]);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read(conns_[i]);
    }
    const std::uint64_t now = util::monotonic_us();
    if (outstanding_ < before || outstanding_ == 0) {
      stalled_since_ = 0;
    } else if (stalled_since_ == 0) {
      stalled_since_ = now;
    } else if (now - stalled_since_ > 20'000'000) {
      std::fprintf(stderr, "serve-dna: daemon stopped answering\n");
      return false;
    }
    return true;
  }

  void read(Conn& c) {
    std::uint8_t buf[1 << 16];
    while (true) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0)
        throw std::runtime_error("daemon closed a connection");
      c.decoder.feed(std::span<const std::uint8_t>(
          buf, static_cast<std::size_t>(n)));
    }
    std::uint64_t read_at = util::monotonic_us();
    while (true) {
      auto frame = c.decoder.next();
      if (!frame.has_value())
        throw std::runtime_error("response stream: " +
                                 frame.status().to_string());
      if (!frame->has_value()) break;
      auto response = svc::decode_response((*frame)->payload);
      if (!response.has_value())
        throw std::runtime_error("response payload: " +
                                 response.status().to_string());
      complete(*response, read_at);
      read_at = util::monotonic_us();
    }
  }

  void complete(const svc::ScreenResponse& response, std::uint64_t read_at) {
    const std::string prefix = id_prefix();
    const std::size_t index =
        response.id.compare(0, prefix.size(), prefix) == 0
            ? std::strtoull(response.id.c_str() + prefix.size(), nullptr, 10)
            : samples_.size();
    if (index >= samples_.size() || samples_[index].done)
      throw std::runtime_error("unexpected response id " + response.id);
    Sample& s = samples_[index];
    s.ok = response.code == swbpbc::util::ErrorCode::kOk &&
           response.scores == mix_.templates[s.tpl].expected;
    if (!s.ok && failures_++ == 0)
      std::fprintf(stderr, "serve-dna: request %s failed: %s %s\n",
                   response.id.c_str(),
                   swbpbc::util::error_code_name(response.code),
                   response.message.c_str());
    s.read = read_at;
    s.decoded = util::monotonic_us();
    s.done = true;
    bench_span(tracer_, "client.decode", s.read, s.decoded, s.trace_id);
    bench_span(tracer_, "client.request", s.due, s.decoded, s.trace_id);
    --outstanding_;
  }

  const Mix& mix_;
  std::uint64_t run_;
  const CpuSplit& cpus_;
  std::uint64_t phase_ = 0;
  std::vector<Conn> conns_;
  std::vector<Sample> samples_;
  std::size_t outstanding_ = 0;
  std::uint64_t stalled_since_ = 0;
  std::uint64_t failures_ = 0;
  std::vector<svc::ScreenRequest> bodies_;  // per template; id set per send
  tel::Tracer* tracer_ = nullptr;
};

// A daemon on its own thread; stop() drains it and joins.
class Daemon {
 public:
  Daemon(svc::ScreenServer server, util::CancellationToken& stop)
      : server_(std::move(server)), stop_(stop) {
    thread_ = std::thread([this] { status_ = server_.run(); });
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    stop_.cancel();
    thread_.join();
    if (!status_.ok())
      std::fprintf(stderr, "serve-dna: daemon: %s\n",
                   status_.to_string().c_str());
  }
  // Only after stop(): the server's state belongs to its thread.
  [[nodiscard]] const svc::ScreenServer& server() const { return server_; }

 private:
  svc::ScreenServer server_;
  util::CancellationToken& stop_;
  util::Status status_;
  std::thread thread_;
};

struct Paths {
  std::string socket, journal;
};

std::uint64_t journal_fingerprint() {
  // The daemon keys its journal to (lane width, scheme); a pre-filled
  // journal must carry the same key or create() refuses it.
  return util::fnv1a_value(
      static_cast<std::uint64_t>(
          sw::lane_width_bits(sw::resolve_lane_width(kWidth))),
      sw::fingerprint_scheme(sw::ScoringScheme::from_params(kParams)));
}

// Untimed: kJournalRecords admitted+completed requests, as a daemon that
// served them before a restart would have left them.
void prefill_journal(const Mix& mix, const std::string& path) {
  std::filesystem::remove(path);
  auto journal = svc::RequestJournal::open(path, journal_fingerprint());
  if (!journal.has_value())
    throw std::runtime_error("journal: " + journal.status().to_string());
  for (std::size_t i = 0; i < kJournalRecords; ++i) {
    const Template& tpl = mix.templates[i % mix.templates.size()];
    svc::ScreenRequest req = tpl.request;
    req.id = "journal." + std::to_string(i);
    req.tenant = "replayed";
    svc::ScreenResponse resp;
    resp.id = req.id;
    resp.scores = tpl.expected;
    if (util::Status s = journal->record_admitted(req); !s.ok())
      throw std::runtime_error("journal: " + s.to_string());
    if (util::Status s = journal->record_completed(resp); !s.ok())
      throw std::runtime_error("journal: " + s.to_string());
  }
}

svc::ServerConfig server_config(const Paths& paths,
                                util::CancellationToken& stop,
                                tel::Telemetry* telemetry) {
  svc::ServerConfig config;
  config.socket_path = paths.socket;
  config.journal_path = paths.journal;
  config.params = kParams;
  config.width = kWidth;
  config.lane_group = kLaneGroup;
  config.use_engine = true;
  config.linger_ms = 2.0;
  // Admission never sheds in this workload: a request that waits long
  // shows as latency, not as a rejection the correctness gate would count.
  config.admission.max_queued_requests = 1 << 16;
  config.admission.max_queued_pairs = 1 << 22;
  config.admission.tenant_quota_pairs = 1 << 22;
  config.stop = &stop;
  config.telemetry = telemetry;
  return config;
}

// Restart-to-ready: create() (journal replay) + serving thread + the
// first answered ping. Returns the running daemon and the seconds taken.
std::unique_ptr<Daemon> restart(const Paths& paths,
                                util::CancellationToken& stop,
                                tel::Telemetry* telemetry, double* seconds) {
  util::WallTimer timer;
  auto server =
      svc::ScreenServer::create(server_config(paths, stop, telemetry));
  if (!server.has_value())
    throw std::runtime_error("ScreenServer::create: " +
                             server.status().to_string());
  auto daemon = std::make_unique<Daemon>(std::move(server).value(), stop);
  svc::ClientConfig cc;
  cc.socket_path = paths.socket;
  svc::ScreenClient probe(cc);
  if (util::Status s = probe.wait_ready(); !s.ok())
    throw std::runtime_error("ping: " + s.to_string());
  *seconds = timer.elapsed_s();
  return daemon;
}

// Requests and GCUPS answered per second of the saturated phase, per
// window of kRateWindowUs from its first answer; the 1 - kSlowerState
// quantile across windows (see ledger.hpp). The daemon is busy for the
// whole phase, so answered cells per second are cells per busy second.
std::pair<double, double> saturated_rates(const Mix& mix,
                                          const std::vector<Sample>& samples) {
  std::uint64_t first = ~std::uint64_t{0}, last = 0;
  for (const Sample& s : samples) {
    if (!s.done || !s.ok) continue;
    first = std::min(first, s.decoded);
    last = std::max(last, s.decoded);
  }
  if (last <= first) return {0.0, 0.0};
  const std::size_t windows =
      std::max<std::uint64_t>(1, (last - first) / kRateWindowUs);
  std::vector<double> requests(windows, 0.0), cells(windows, 0.0);
  for (const Sample& s : samples) {
    if (!s.done || !s.ok) continue;
    const std::uint64_t w = (s.decoded - first) / kRateWindowUs;
    if (w >= windows) continue;
    const Class& c = kClasses[mix.templates[s.tpl].cls];
    requests[w] += 1.0;
    cells[w] += static_cast<double>(c.pairs * c.m * c.n);
  }
  const double window_s = static_cast<double>(kRateWindowUs) / 1e6;
  for (std::size_t w = 0; w < windows; ++w) {
    requests[w] /= window_s;
    cells[w] /= window_s * 1e9;
  }
  return {quantile(requests, 1.0 - kSlowerState),
          quantile(cells, 1.0 - kSlowerState)};
}

Phase count_phase(const char* name, const std::vector<Sample>& samples) {
  Phase p{name, 0, 0, 0};
  for (const Sample& s : samples) {
    if (s.send == 0) continue;
    ++p.sent;
    ++(s.done && s.ok ? p.succeeded : p.failed);
  }
  return p;
}

std::vector<double> latencies(const std::vector<Sample>& samples) {
  std::vector<double> out;
  for (const Sample& s : samples)
    if (s.done && s.ok) out.push_back(s.latency_ms());
  return out;
}

std::uint64_t fnv_of(const Mix& mix, const std::vector<Sample>& samples,
                     std::uint64_t h) {
  for (const Sample& s : samples)
    if (s.done && s.ok) h = util::fnv1a_span<std::uint32_t>(mix.templates[s.tpl].expected, h);
  return h;
}

std::size_t count_for(double seconds, double rate) {
  return static_cast<std::size_t>(std::max(1.0, seconds * rate));
}

// ---- traced run: per-request attribution ------------------------------

struct ServerSpans {
  std::map<std::uint64_t, tel::TraceEvent> admit, queue;  // by trace id
  std::vector<tel::TraceEvent> screens;                   // by start time
  std::map<std::string, std::vector<double>> stage_ms;    // engine stages
};

ServerSpans index_spans(const std::vector<tel::TraceEvent>& events) {
  ServerSpans out;
  for (const tel::TraceEvent& e : events) {
    const std::string name = e.name;
    if (name == "admit" && e.trace_id != 0) out.admit[e.trace_id] = e;
    if (name == "queue.wait" && e.trace_id != 0) out.queue[e.trace_id] = e;
    if (name == "screen") out.screens.push_back(e);
    if (std::string(e.cat) == "device")
      out.stage_ms[name].push_back(static_cast<double>(e.dur_us) / 1e3);
  }
  std::sort(out.screens.begin(), out.screens.end(),
            [](const auto& a, const auto& b) { return a.ts_us < b.ts_us; });
  return out;
}

// Layer intervals of one request, in timeline order. Each layer's self
// time is its interval minus what earlier layers already cover.
constexpr const char* kLayerNames[] = {
    "bench.sched_lag", "service.codec.encode", "service.recv_wait",
    "service.admit",   "service.queue_wait",   "service.compute",
    "service.response", "service.codec.decode"};
constexpr std::size_t kNumLayers = std::size(kLayerNames);

struct Attribution {
  std::size_t joined = 0;
  std::size_t unjoined = 0;
  double wall_us = 0.0;
  double self_us[kNumLayers] = {};
  std::vector<double> recv_wait_us, response_us;
};

Attribution attribute(const std::vector<Sample>& samples,
                      const ServerSpans& spans, tel::Tracer* tracer) {
  Attribution a;
  for (const Sample& s : samples) {
    if (!s.done || !s.ok) continue;
    const auto admit = spans.admit.find(s.trace_id);
    const auto queue = spans.queue.find(s.trace_id);
    if (admit == spans.admit.end() || queue == spans.queue.end()) {
      ++a.unjoined;
      continue;
    }
    const std::uint64_t cut = queue->second.ts_us + queue->second.dur_us;
    // The batch holding this request is the first screen span after its
    // cut (the daemon's loop is single-threaded, batches never overlap).
    const auto screen = std::lower_bound(
        spans.screens.begin(), spans.screens.end(), cut,
        [](const tel::TraceEvent& e, std::uint64_t t) { return e.ts_us < t; });
    if (screen == spans.screens.end() || screen->ts_us - cut > 5000) {
      ++a.unjoined;
      continue;
    }
    const std::uint64_t compute_end = screen->ts_us + screen->dur_us;
    const std::uint64_t admit_start = admit->second.ts_us;
    const std::uint64_t admit_end = admit_start + admit->second.dur_us;
    const std::uint64_t bounds[kNumLayers][2] = {
        {s.due, s.send},           {s.send, s.encoded},
        {s.encoded, admit_start},  {admit_start, admit_end},
        {queue->second.ts_us, cut}, {cut, compute_end},
        {compute_end, s.read},     {s.read, s.decoded}};
    // Self time: the part of each interval past everything before it.
    std::uint64_t covered_to = s.due;
    for (std::size_t l = 0; l < kNumLayers; ++l) {
      const std::uint64_t lo = std::max(bounds[l][0], covered_to);
      const std::uint64_t hi = std::min(bounds[l][1], s.decoded);
      if (hi > lo) {
        a.self_us[l] += static_cast<double>(hi - lo);
        covered_to = hi;
      }
    }
    a.wall_us += static_cast<double>(s.decoded - s.due);
    a.recv_wait_us.push_back(
        static_cast<double>(admit_start > s.encoded ? admit_start - s.encoded
                                                    : 0));
    a.response_us.push_back(static_cast<double>(
        s.decoded > compute_end ? s.decoded - compute_end : 0));
    bench_span(tracer, "client.recv_wait", s.encoded, admit_start, s.trace_id);
    bench_span(tracer, "client.response", compute_end, s.read, s.trace_id);
    ++a.joined;
  }
  return a;
}

double plan_batch_us(const Mix& mix) {
  // Queue snapshots drawn from the mix: 24 queued requests, oldest
  // waiting 1 ms, planned with and without a flush.
  std::deque<svc::PendingRequest> queue;
  const auto schedule = make_schedule(mix, 7, 24, 0.0);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    svc::PendingRequest p;
    p.request = mix.templates[schedule[i].tpl].request;
    p.request.id = "plan." + std::to_string(i);
    p.request.tenant = tenant_name(schedule[i].tenant);
    p.enqueued_ms = static_cast<double>(i) * 0.04;
    queue.push_back(std::move(p));
  }
  std::vector<double> per_call;
  std::size_t sink = 0;
  for (int rep = 0; rep < 15; ++rep) {
    util::WallTimer timer;
    for (int i = 0; i < 200; ++i)
      sink += svc::plan_batch(queue, 1.0, kLaneGroup, (i & 1) != 0).pairs;
    per_call.push_back(timer.elapsed_ms() * 1e3 / 200.0);
  }
  if (sink == 0) throw std::runtime_error("plan_batch planned nothing");
  return quantile(per_call, 0.5);
}

// The W2B shape of one full small-request lane group: 64 texts.
std::vector<enc::Sequence> lane_group_texts(const Mix& mix) {
  std::vector<enc::Sequence> ys;
  for (std::size_t t = 0; ys.size() < kLaneGroup; ++t) {
    const auto& body = mix.templates[t].request.ys;
    ys.insert(ys.end(), body.begin(), body.end());
  }
  ys.resize(kLaneGroup);
  return ys;
}

}  // namespace

Result run_serve_dna(const Args& args) {
  Result result;
  std::filesystem::create_directories(args.dir);
  const Paths paths{args.dir + "/serve.sock", args.dir + "/journal.ckpt"};
  const CpuSplit cpus;
  cpus.daemon_side();
  Mix mix = make_mix(args.seed);
  if (args.corrupt_expected)
    for (Template& t : mix.templates) t.expected[0] ^= 1u;
  prefill_journal(mix, paths.journal);

  std::vector<double> replay_ms;
  if (args.trace) {
    for (int r = 0; r < kSetupRepeats; ++r) {
      util::WallTimer timer;
      auto journal =
          svc::RequestJournal::open(paths.journal, journal_fingerprint());
      if (!journal.has_value())
        throw std::runtime_error(journal.status().to_string());
      replay_ms.push_back(timer.elapsed_ms());
    }
  }

  // Set-up: restart-to-ready, repeated; the last daemon serves.
  std::vector<double> setup_s;
  std::optional<util::CancellationToken> stop;  // outlives the daemon
  std::unique_ptr<Daemon> daemon;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (daemon) daemon->stop();
    daemon.reset();
    stop.emplace();
    double s = 0.0;
    daemon = restart(paths, *stop, nullptr, &s);
    setup_s.push_back(s);
  }

  std::vector<Phase> phases;
  std::uint64_t fnv = util::kFnvOffset;
  const double nominal_s =
      args.seconds * (args.trace ? 0.4 : kNominalShare);
  std::vector<Sample> nominal;
  {
    Generator gen(mix, paths.socket, args.seed, cpus);
    auto warm = gen.open_loop(
        make_schedule(mix, args.seed ^ 1, count_for(kWarmupSeconds,
                                                    kNominalRps),
                      kNominalRps),
        nullptr);
    phases.push_back(count_phase("warmup", warm));
    nominal = gen.open_loop(make_schedule(mix, args.seed ^ 2,
                                          count_for(nominal_s, kNominalRps),
                                          kNominalRps),
                            nullptr);
    phases.push_back(count_phase("nominal", nominal));
    fnv = fnv_of(mix, nominal, fnv);
  }
  const std::vector<double> lat = latencies(nominal);
  std::vector<double> nominal_lag;
  for (const Sample& s : nominal)
    nominal_lag.push_back(static_cast<double>(s.send - s.due) / 1e3);
  std::printf("nominal: %.0f rps offered, %zu samples, p50 %.3f ms, "
              "generator lag p50 %.3f p99 %.3f ms\n",
              kNominalRps, lat.size(), quantile(lat, 0.5),
              quantile(nominal_lag, 0.5), quantile(nominal_lag, 0.99));

  if (!args.trace) {
    // Capacity: the daemon held saturated by a closed loop.
    const double capacity_s = args.seconds * (1.0 - kNominalShare);
    std::pair<double, double> rates;  // requests/s, GCUPS
    std::vector<double> cap_lat;
    {
      Generator gen(mix, paths.socket, args.seed, cpus);
      auto samples = gen.closed_loop(
          make_schedule(mix, args.seed ^ 16, count_for(capacity_s, 10000.0),
                        0.0),
          kCapacityDepth, capacity_s);
      const Phase p = count_phase("capacity", samples);
      phases.push_back(p);
      fnv = fnv_of(mix, samples, fnv);
      cap_lat = latencies(samples);
      rates = saturated_rates(mix, samples);
      std::printf("capacity: %zu outstanding, %.1f rps, p50 %.3f ms, "
                  "p99 %.3f ms\n",
                  kCapacityDepth, rates.first, quantile(cap_lat, 0.5),
                  quantile(cap_lat, 0.99));
    }
    daemon->stop();
    report_phases(phases, result);
    result.correct = result.failed == 0;
    std::printf("scores_fnv %016llx\n", static_cast<unsigned long long>(fnv));

    const Phase& nom = phases[1];
    std::uint64_t within = 0;
    for (const Sample& s : nominal)
      if (s.done && s.ok && s.latency_ms() <= kLimitMs) ++within;
    result.set("setup_s", quantile(setup_s, 0.5), "s");
    result.set("latency_p50_ms", windowed_quantile(cap_lat, 0.5), "ms");
    result.set("latency_p90_ms", windowed_quantile(cap_lat, 0.9), "ms");
    result.set("latency_p99_ms", windowed_quantile(cap_lat, 0.99), "ms");
    result.set("slo_met_frac",
               static_cast<double>(within) /
                   static_cast<double>(std::max<std::uint64_t>(nom.sent, 1)),
               "ratio");
    result.set("capacity_rps", rates.first, "1/s");
    result.set("gcups", rates.second, "GCUPS");
    result.set("peak_rss_mb", peak_rss_mb(), "MiB");
    std::filesystem::remove(paths.journal);
    return result;
  }

  // Traced run: the same nominal load on a daemon with a telemetry
  // session; the untraced phase above is the overhead baseline.
  daemon->stop();
  daemon.reset();
  tel::TelemetryConfig tcfg;
  tcfg.enabled = true;
  tcfg.trace_capacity = kTraceCapacity;
  tel::Telemetry session(tcfg);
  tel::Tracer* tracer = session.tracer();
  tracer->set_track_name(kTrackBench, "bench");
  stop.emplace();
  double traced_setup = 0.0;
  daemon = restart(paths, *stop, session.sink(), &traced_setup);
  std::vector<Sample> traced;
  {
    Generator gen(mix, paths.socket, args.seed + 1, cpus);
    auto warm = gen.open_loop(
        make_schedule(mix, args.seed ^ 3,
                      count_for(kWarmupSeconds, kNominalRps), kNominalRps),
        nullptr);
    phases.push_back(count_phase("traced.warmup", warm));
    traced = gen.open_loop(
        make_schedule(mix, args.seed ^ 4,
                      count_for(args.seconds * 0.5, kNominalRps), kNominalRps),
        tracer);
    phases.push_back(count_phase("traced", traced));
    fnv = fnv_of(mix, traced, fnv);
  }
  daemon->stop();
  const svc::ServerStats stats = daemon->server().stats();
  report_phases(phases, result);
  result.correct = result.failed == 0;
  std::printf("scores_fnv %016llx\n", static_cast<unsigned long long>(fnv));

  declare_per_layer(result);
  const ServerSpans spans = index_spans(tracer->events());
  const Attribution attr = attribute(traced, spans, tracer);
  std::printf("attribution: %zu requests joined, %zu unjoined, mean wall "
              "%.1f us\n",
              attr.joined, attr.unjoined,
              attr.wall_us / static_cast<double>(std::max<std::size_t>(
                                 attr.joined, 1)));
  double self_sum = 0.0;
  for (std::size_t l = 0; l < kNumLayers; ++l) {
    self_sum += attr.self_us[l];
    std::printf("  self %-22s %9.1f us/request\n", kLayerNames[l],
                attr.self_us[l] /
                    static_cast<double>(std::max<std::size_t>(attr.joined, 1)));
  }
  const double unattributed =
      attr.wall_us > 0.0 ? 1.0 - self_sum / attr.wall_us : 1.0;
  const bool sum_ok = attr.joined > 0 && attr.unjoined == 0 &&
                      std::fabs(unattributed) <= kAttributionTolerance;
  std::printf("attribution sum check: unattributed %.4f (tolerance %.2f): "
              "%s\n",
              unattributed, kAttributionTolerance, sum_ok ? "pass" : "FAIL");

  std::vector<double> sched_lag, encode_us, decode_us, admit_us, queue_ms;
  for (const Sample& s : traced) {
    if (!s.done || !s.ok) continue;
    sched_lag.push_back(static_cast<double>(s.send - s.due) / 1e3);
    encode_us.push_back(static_cast<double>(s.encoded - s.send));
    decode_us.push_back(static_cast<double>(s.decoded - s.read));
    if (auto it = spans.admit.find(s.trace_id); it != spans.admit.end())
      admit_us.push_back(static_cast<double>(it->second.dur_us));
    if (auto it = spans.queue.find(s.trace_id); it != spans.queue.end())
      queue_ms.push_back(static_cast<double>(it->second.dur_us) / 1e3);
  }
  std::vector<double> compute_ms;
  for (const tel::TraceEvent& e : spans.screens)
    compute_ms.push_back(static_cast<double>(e.dur_us) / 1e3);
  const auto stage = [&](const char* name) {
    const auto it = spans.stage_ms.find(name);
    return it == spans.stage_ms.end() ? 0.0 : quantile(it->second, 0.5);
  };
  const double batches = static_cast<double>(std::max<std::uint64_t>(
      stats.batches, 1));
  const std::vector<double> traced_lat = latencies(traced);

  result.set("bench.sched_lag_p99_ms", quantile(sched_lag, 0.99), "ms");
  result.set("bench.unattributed_frac", unattributed, "ratio");
  result.set("service.codec.encode_us", quantile(encode_us, 0.5), "us");
  result.set("service.codec.decode_us", quantile(decode_us, 0.5), "us");
  result.set("service.recv_wait_us", quantile(attr.recv_wait_us, 0.5), "us");
  result.set("service.admit_us", quantile(admit_us, 0.5), "us");
  result.set("service.queue_wait_ms.p50", quantile(queue_ms, 0.5), "ms");
  result.set("service.queue_wait_ms.p99", quantile(queue_ms, 0.99), "ms");
  result.set("service.plan_batch_us", plan_batch_us(mix), "us");
  result.set("service.batch_pairs",
             static_cast<double>(stats.pairs_scored) / batches, "count");
  result.set("service.lane_fill",
             static_cast<double>(stats.pairs_scored) /
                 (batches * static_cast<double>(kLaneGroup)),
             "ratio");
  result.set("service.compute_ms", quantile(compute_ms, 0.5), "ms");
  result.set("service.response_us", quantile(attr.response_us, 0.5), "us");
  result.set("service.reject_frac",
             static_cast<double>(stats.rejected_overload +
                                 stats.rejected_quota + stats.shed_deadline) /
                 static_cast<double>(std::max<std::uint64_t>(stats.requests,
                                                             1)),
             "ratio");
  result.set("service.journal.replay_ms", quantile(replay_ms, 0.5), "ms");
  result.set("device.h2g_ms", stage("H2G"), "ms");
  result.set("device.w2b_ms", stage("W2B"), "ms");
  result.set("device.swa_ms", stage("SWA"), "ms");
  result.set("device.b2w_ms", stage("B2W"), "ms");
  result.set("device.g2h_ms", stage("G2H"), "ms");
  result.set("encoding.w2b_ns_per_pair", dna_w2b_ns_per_pair(lane_group_texts(mix)), "ns");
  result.set("telemetry.overhead_frac",
             quantile(traced_lat, 0.5) / quantile(lat, 0.5) - 1.0, "ratio");
  result.set("telemetry.trace_dropped",
             static_cast<double>(tracer->dropped()), "count");
  if (!sum_ok || tracer->dropped() != 0) result.correct = false;
  if (util::Status s = tracer->write_chrome_trace(args.dir + "/trace.json");
      !s.ok())
    std::fprintf(stderr, "serve-dna: %s\n", s.to_string().c_str());
  std::filesystem::remove(paths.journal);
  return result;
}

}  // namespace ledger
