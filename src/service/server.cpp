#include "service/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "device/engine.hpp"
#include "service/batch.hpp"
#include "service/frame.hpp"
#include "service/journal.hpp"
#include "sw/pipeline.hpp"
#include "telemetry/trace.hpp"
#include "util/io.hpp"
#include "util/timer.hpp"

namespace swbpbc::service {

namespace {

util::Status errno_status(const std::string& what) {
  return util::Status::internal(what + ": " + std::strerror(errno));
}

util::Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    return errno_status("fcntl(O_NONBLOCK)");
  return {};
}

/// Per-tenant compute attribution for the serving report.
struct TenantServe {
  std::uint64_t pairs = 0;
  double cells = 0.0;  // pairs * m * n, accumulated
  double ms = 0.0;     // share of batch compute wall time
};

}  // namespace

struct ScreenServer::Impl {
  explicit Impl(ServerConfig cfg)
      : config(std::move(cfg)),
        admission(config.admission),
        faults(config.faults),
        slo(config.slo),
        start(std::chrono::steady_clock::now()) {}

  ~Impl() {
    if (config.flight_recorder != nullptr) {
      if (telemetry::Tracer* tr = tracer(); tr != nullptr)
        tr->set_flight_recorder(nullptr);
    }
    if (!config.socket_path.empty()) ::unlink(config.socket_path.c_str());
  }

  struct Connection {
    util::UniqueFd fd;
    FrameDecoder decoder;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    bool close_after_flush = false;
  };

  [[nodiscard]] double now_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  }

  util::Status setup();
  util::Status run();
  void accept_ready();
  void read_ready(int fd);
  void flush(int fd);
  void close_connection(int fd);
  void handle_frame(int fd, const Frame& frame);
  void handle_request(int fd, const Frame& frame);
  void send_frame(int fd, FrameType type,
                  std::span<const std::uint8_t> payload, bool faultable);
  void respond(int fd, const ScreenResponse& response);
  void complete(const PendingRequest& pending, ScreenResponse response,
                bool journal_it);
  void dispatch(bool flush_all);
  void run_batch(const BatchPlan& plan);
  [[nodiscard]] telemetry::RunReport build_report() const;
  [[nodiscard]] TraceDump build_trace_dump() const;

  /// The session tracer, or null when telemetry is off (every recording
  /// site costs one pointer test, the PR 3 contract).
  [[nodiscard]] telemetry::Tracer* tracer() const {
    return config.telemetry != nullptr ? config.telemetry->tracer() : nullptr;
  }

  /// Per-tenant trace track, assigned on first sight and named in the
  /// export ("tenant:<name>").
  std::uint32_t tenant_track(const std::string& name);

  /// Flight-recorder lifecycle mark; no-op without a recorder.
  void fr_note(const char* name, std::int64_t a = 0, std::int64_t b = 0) {
    if (config.flight_recorder != nullptr)
      config.flight_recorder->note(name, telemetry::FlightRecorder::kMark, 0,
                                   a, b);
  }

  ServerConfig config;
  AdmissionController admission;
  FaultInjector faults;
  SloTracker slo;
  std::chrono::steady_clock::time_point start;

  util::UniqueFd listen_fd;
  std::optional<RequestJournal> journal;
  std::unique_ptr<device::PipelineEngine> engine;
  std::uint64_t journal_fingerprint = 0;
  double journal_replay_ms = 0.0;  // RequestJournal::open at setup()
  sw::ScoringScheme scheme;     // the serving scheme, resolved at setup()
  std::uint64_t scheme_fp = 0;  // fingerprint_scheme of the serving scheme
  std::uint64_t campaign = 0;
  std::uint64_t frame_index = 0;
  std::size_t lane_group = 0;

  std::map<int, Connection> connections;
  std::deque<PendingRequest> queue;
  std::map<std::string, ScreenResponse> completed;
  ServerStats stats;
  std::map<std::string, TenantServe> serve;
  std::map<std::string, std::uint32_t> tenant_tracks;
};

std::uint32_t ScreenServer::Impl::tenant_track(const std::string& name) {
  auto it = tenant_tracks.find(name);
  if (it == tenant_tracks.end()) {
    const auto track = static_cast<std::uint32_t>(
        telemetry::kTrackTenantBase + tenant_tracks.size());
    it = tenant_tracks.emplace(name, track).first;
    if (telemetry::Tracer* tr = tracer(); tr != nullptr)
      tr->set_track_name(track, "tenant:" + name);
  }
  return it->second;
}

util::Status ScreenServer::Impl::setup() {
  lane_group = config.lane_group != 0
                   ? config.lane_group
                   : sw::lane_width_bits(sw::resolve_lane_width(config.width));
  campaign = faults.begin_run();

  // The scheme the daemon scores with, resolved and checked once: the
  // configured one, or the params lifted losslessly. Every layer below —
  // the engine, each batch's screen, the journal — takes only this
  // scheme. Matrix schemes cannot even ride the wire (the codec
  // transports 2-bit DNA codes), so refuse to serve.
  auto resolved = sw::resolve_scheme(config.params, config.scheme);
  if (!resolved.has_value()) return resolved.status();
  scheme = std::move(resolved).value();
  if (scheme.matrix != nullptr)
    return util::Status::invalid_input(
        "config.scheme.matrix scores an epsilon-bit protein alphabet; the "
        "daemon's wire codec transports 2-bit DNA — screen protein "
        "batches in-process through sw::try_screen");
  scheme_fp = sw::fingerprint_scheme(scheme);

  if (config.use_engine) {
    device::EngineOptions engine_options;
    engine_options.scheme = scheme;
    engine_options.width = config.width;
    engine_options.telemetry = config.telemetry;
    engine = std::make_unique<device::PipelineEngine>(engine_options);
  }
  if (config.flight_recorder != nullptr) {
    if (telemetry::Tracer* tr = tracer(); tr != nullptr)
      tr->set_flight_recorder(config.flight_recorder);
    fr_note("serve.start");
  }

  // The journal is keyed to the scoring configuration: scheme + lane
  // width. A restart under different rules refuses to serve old scores.
  // fingerprint_scheme hashes params-expressible configs with the bytes
  // the params triple always hashed to, so pre-scheme journals still
  // replay.
  journal_fingerprint = util::fnv1a_value(
      static_cast<std::uint64_t>(
          sw::lane_width_bits(sw::resolve_lane_width(config.width))),
      scheme_fp);
  if (!config.journal_path.empty()) {
    telemetry::Span replay_span(tracer(), "journal.replay", "service");
    const util::WallTimer replay_timer;
    auto opened = RequestJournal::open(config.journal_path,
                                       journal_fingerprint);
    if (!opened.has_value()) return opened.status();
    journal_replay_ms = replay_timer.elapsed_ms();
    journal.emplace(std::move(opened).value());
    replay_span.arg("records",
                    static_cast<std::int64_t>(journal->replayed()));
    replay_span.arg("bytes",
                    static_cast<std::int64_t>(journal->replayed_bytes()));
    replay_span.finish();
    completed = journal->take_completed();
    stats.recovered_completed = completed.size();
    for (ScreenRequest& request : journal->take_pending()) {
      PendingRequest pending;
      pending.request = std::move(request);
      pending.enqueued_ms = now_ms();
      pending.enqueued_us = util::monotonic_us();
      pending.connection = -1;
      pending.recovered = true;
      queue.push_back(std::move(pending));
      ++stats.recovered_pending;
    }
  }

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config.socket_path.empty() ||
      config.socket_path.size() >= sizeof(addr.sun_path))
    return util::Status::invalid_input("socket path '" + config.socket_path +
                                       "' is empty or longer than sun_path");
  std::memcpy(addr.sun_path, config.socket_path.c_str(),
              config.socket_path.size() + 1);
  ::unlink(config.socket_path.c_str());  // a stale socket from a crash
  listen_fd = util::UniqueFd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!listen_fd.valid()) return errno_status("socket()");
  if (::bind(listen_fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0)
    return errno_status("bind('" + config.socket_path + "')");
  if (::listen(listen_fd.get(), 64) != 0) return errno_status("listen()");
  return set_nonblocking(listen_fd.get());
}

void ScreenServer::Impl::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: try next round
    }
    connections[fd].fd = util::UniqueFd(fd);
  }
}

void ScreenServer::Impl::close_connection(int fd) {
  // Its queued requests survive (journaled, deterministic): they finish
  // into the response cache for the retry that will come.
  for (PendingRequest& pending : queue)
    if (pending.connection == fd) pending.connection = -1;
  connections.erase(fd);
}

void ScreenServer::Impl::read_ready(int fd) {
  auto it = connections.find(fd);
  if (it == connections.end()) return;
  std::uint8_t buf[65536];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      it->second.decoder.feed(std::span<const std::uint8_t>(
          buf, static_cast<std::size_t>(n)));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    close_connection(fd);  // EOF or a hard error
    return;
  }
  while (true) {
    auto frame = it->second.decoder.next();
    if (!frame.has_value()) {
      ++stats.protocol_errors;
      close_connection(fd);  // stream desynchronized, boundaries lost
      return;
    }
    if (!frame->has_value()) break;
    handle_frame(fd, **frame);
    it = connections.find(fd);  // handle_frame may have closed it
    if (it == connections.end()) return;
  }
}

void ScreenServer::Impl::send_frame(int fd, FrameType type,
                                    std::span<const std::uint8_t> payload,
                                    bool faultable) {
  auto it = connections.find(fd);
  if (it == connections.end()) return;
  Connection& conn = it->second;
  std::vector<std::uint8_t> bytes = encode_frame(type, payload);
  if (faultable) {
    const FrameFault fault =
        faults.frame_fault(campaign, frame_index++, bytes.size());
    if (fault.stall)
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(fault.stall_ms));
    if (fault.disconnect) {
      conn.close_after_flush = true;  // drop without writing this frame
      if (conn.out.size() == conn.out_off) close_connection(fd);
      return;
    }
    if (fault.tear) {
      bytes.resize(fault.keep_bytes);
      conn.out.insert(conn.out.end(), bytes.begin(), bytes.end());
      conn.close_after_flush = true;
      flush(fd);
      return;
    }
    if (fault.flip) bytes[fault.flip_offset] ^= (1u << fault.flip_bit);
  }
  conn.out.insert(conn.out.end(), bytes.begin(), bytes.end());
  flush(fd);
}

void ScreenServer::Impl::flush(int fd) {
  auto it = connections.find(fd);
  if (it == connections.end()) return;
  Connection& conn = it->second;
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::write(fd, conn.out.data() + conn.out_off,
                              conn.out.size() - conn.out_off);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    close_connection(fd);  // peer gone mid-write
    return;
  }
  conn.out.clear();
  conn.out_off = 0;
  if (conn.close_after_flush) close_connection(fd);
}

void ScreenServer::Impl::respond(int fd, const ScreenResponse& response) {
  if (fd < 0) return;  // owner died; the cache holds the response
  send_frame(fd, FrameType::kScreenResponse, encode_response(response),
             /*faultable=*/true);
}

void ScreenServer::Impl::complete(const PendingRequest& pending,
                                  ScreenResponse response, bool journal_it) {
  if (journal_it && journal.has_value()) {
    // A failed journal write must not hand out a response the journal
    // cannot reproduce: degrade to a retriable internal error instead.
    if (util::Status s = journal->record_completed(response); !s.ok()) {
      response.code = util::ErrorCode::kInternal;
      response.message = "journal append failed: " + s.message();
      response.scores.clear();
      journal_it = false;
    }
  }
  if (journal_it || !journal.has_value())
    completed[response.id] = response;
  if (!pending.recovered)
    admission.release(pending.request.tenant, pending.request.pair_count());
  respond(pending.connection, response);
}

void ScreenServer::Impl::handle_frame(int fd, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kPing:
      send_frame(fd, FrameType::kPong, {}, /*faultable=*/false);
      return;
    case FrameType::kScreenRequest:
      handle_request(fd, frame);
      return;
    case FrameType::kStatRequest: {
      // Stats scrapes bypass admission (an overloaded daemon is exactly
      // when the operator needs them) and the fault injector (a torn
      // scrape would teach the dashboard to distrust the daemon).
      ++stats.stat_scrapes;
      const std::string json = build_report().to_json();
      send_frame(fd, FrameType::kStatResponse,
                 std::span<const std::uint8_t>(
                     reinterpret_cast<const std::uint8_t*>(json.data()),
                     json.size()),
                 /*faultable=*/false);
      return;
    }
    case FrameType::kTraceRequest: {
      ++stats.trace_scrapes;
      const auto payload = encode_trace_dump(build_trace_dump());
      send_frame(fd, FrameType::kTraceResponse, payload, /*faultable=*/false);
      return;
    }
    case FrameType::kPong:
    case FrameType::kScreenResponse:
    case FrameType::kStatResponse:
    case FrameType::kTraceResponse:
      ++stats.protocol_errors;  // a client has no business sending these
      close_connection(fd);
      return;
  }
}

void ScreenServer::Impl::handle_request(int fd, const Frame& frame) {
  auto decoded = decode_request(frame.payload);
  if (!decoded.has_value()) {
    ++stats.protocol_errors;
    ScreenResponse response;
    response.code = decoded.status().code();
    response.message = decoded.status().message();
    respond(fd, response);
    return;
  }
  ScreenRequest request = std::move(decoded).value();
  ++stats.requests;

  // Request-scoped trace correlation: every span recorded while this
  // request is being admitted carries its client-chosen trace id, so a
  // merged client+server export lines up by one grep. 0 (an untraced
  // client) installs the null context — spans stay un-stamped.
  telemetry::ScopedTraceContext trace_ctx(request.trace_id);
  telemetry::Span admit_span(tracer(), "admit", "service",
                             tenant_track(request.tenant));
  admit_span.arg("pairs", static_cast<std::int64_t>(request.pair_count()));

  // A client that pinned its scoring scheme gets a typed refusal when the
  // daemon scores under a different one — wrong-model scores would be
  // bit-perfect garbage from the client's point of view. Unpinned (0)
  // requests trust the daemon, exactly the pre-scheme behaviour.
  if (request.scheme_fingerprint != 0 &&
      request.scheme_fingerprint != scheme_fp) {
    ++stats.rejected_scheme;
    ScreenResponse response;
    response.id = request.id;
    response.code = util::ErrorCode::kInvalidInput;
    response.message =
        "request pins scoring-scheme fingerprint " +
        std::to_string(request.scheme_fingerprint) +
        " but this daemon scores with fingerprint " +
        std::to_string(scheme_fp) +
        "; re-point the client or restart the daemon with that scheme";
    respond(fd, response);
    return;
  }

  // Idempotency: a retried id is served the journaled response —
  // bit-identical bytes, no recompute.
  if (auto hit = completed.find(request.id); hit != completed.end()) {
    ++stats.cache_hits;
    respond(fd, hit->second);
    return;
  }
  // A retry racing its original: re-home the pending entry to the new
  // connection; the original's was torn away by a fault.
  for (PendingRequest& pending : queue) {
    if (pending.request.id == request.id) {
      pending.connection = fd;
      return;
    }
  }

  const AdmissionDecision decision =
      admission.admit(request.tenant, request.pair_count());
  if (!decision.status.ok()) {
    if (decision.status.code() == util::ErrorCode::kQuotaExceeded)
      ++stats.rejected_quota;
    else
      ++stats.rejected_overload;
    ScreenResponse response;
    response.id = request.id;
    response.code = decision.status.code();
    response.message = decision.status.message();
    response.retry_after_ms = decision.retry_after_ms;
    respond(fd, response);
    return;
  }
  if (journal.has_value()) {
    if (util::Status s = journal->record_admitted(request); !s.ok()) {
      admission.release(request.tenant, request.pair_count());
      ScreenResponse response;
      response.id = request.id;
      response.code = util::ErrorCode::kInternal;
      response.message = "journal append failed: " + s.message();
      respond(fd, response);
      return;
    }
  }
  ++stats.admitted;
  PendingRequest pending;
  pending.request = std::move(request);
  pending.enqueued_ms = now_ms();
  pending.enqueued_us = util::monotonic_us();
  pending.connection = fd;
  queue.push_back(std::move(pending));
}

void ScreenServer::Impl::run_batch(const BatchPlan& plan) {
  if (config.crash_after_batches != 0 &&
      stats.batches + 1 == config.crash_after_batches)
    std::_Exit(137);  // CI crash drill: admitted journaled, none completed
  if (config.abort_after_batches != 0 &&
      stats.batches + 1 == config.abort_after_batches) {
    fr_note("abort.drill");
    std::abort();  // flight-recorder drill: SIGABRT -> crash handler dump
  }

  std::vector<encoding::Sequence> xs, ys;
  xs.reserve(plan.pairs);
  ys.reserve(plan.pairs);
  for (const std::size_t i : plan.take) {
    const ScreenRequest& r = queue[i].request;
    xs.insert(xs.end(), r.xs.begin(), r.xs.end());
    ys.insert(ys.end(), r.ys.begin(), r.ys.end());
  }

  // The batch cut ends every taken request's queue wait: record it as a
  // backdated span on the tenant's track, stamped with the request's own
  // trace id (batches mix tenants and traces freely).
  const std::uint64_t cut_us = util::monotonic_us();
  if (telemetry::Tracer* tr = tracer(); tr != nullptr) {
    for (const std::size_t i : plan.take) {
      const PendingRequest& pending = queue[i];
      if (pending.enqueued_us == 0 || pending.enqueued_us > cut_us) continue;
      telemetry::TraceEvent e;
      e.name = "queue.wait";
      e.cat = "service";
      e.ts_us = pending.enqueued_us;
      e.dur_us = cut_us - pending.enqueued_us;
      e.track = tenant_track(pending.request.tenant);
      e.trace_id = pending.request.trace_id;
      e.arg_names[0] = "pairs";
      e.arg_values[0] =
          static_cast<std::int64_t>(pending.request.pair_count());
      tr->record(e);
    }
  }

  // Compute spans (screen loop, engine stages) can only carry one trace
  // context: install it when the batch holds exactly one distinct traced
  // request — the common case for a `screen_client --trace` run against a
  // live daemon — and stay neutral on genuinely mixed batches.
  std::uint64_t batch_trace = 0;
  for (const std::size_t i : plan.take) {
    const std::uint64_t id = queue[i].request.trace_id;
    if (id == 0 || id == batch_trace) continue;
    if (batch_trace != 0) {
      batch_trace = 0;  // two distinct traced requests: no single owner
      break;
    }
    batch_trace = id;
  }
  telemetry::ScopedTraceContext trace_ctx(batch_trace);

  // Host-engine hint, same single-owner rule as the trace context: when
  // every hinted request in the batch agrees, the batch follows the hint
  // (decoded values are 1 + sw::BackendChoice); mixed or unhinted batches
  // run the server's configured choice. Advisory either way — the
  // engines score bit-identically and every engine serves the daemon's
  // scheme, so a hint never fails a co-batched tenant's request.
  std::uint8_t batch_hint = 0;
  for (const std::size_t i : plan.take) {
    const std::uint8_t hint = queue[i].request.backend_hint;
    if (hint == 0 || hint == batch_hint) continue;
    if (batch_hint != 0) {
      batch_hint = 0;  // two distinct hints: no single owner
      break;
    }
    batch_hint = hint;
  }

  sw::ScreenConfig screen_config;
  screen_config.scheme = scheme;
  screen_config.width = config.width;
  screen_config.backend_choice =
      batch_hint != 0 ? static_cast<sw::BackendChoice>(batch_hint - 1)
                      : config.backend;
  screen_config.traceback = false;
  // No hit re-alignment in the serving path: clients asked for scores.
  screen_config.threshold = ~std::uint32_t{0};
  screen_config.telemetry = config.telemetry;
  if (engine != nullptr) {
    // Persistent engine backend: each batch runs the engine's five
    // stages synchronously, with H2G..G2H stage spans. Scores are bit-identical to the host
    // path (the identity gates), so this is purely an observability and
    // throughput choice.
    screen_config.backend = engine.get();
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto report = sw::try_screen(xs, ys, screen_config);
  const double batch_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

  ++stats.batches;
  fr_note("batch", static_cast<std::int64_t>(plan.pairs),
          static_cast<std::int64_t>(plan.take.size()));
  if (!report.has_value()) {
    fr_note("batch.fail",
            static_cast<std::int64_t>(report.status().code()));
    // A fatal batch is the flight recorder's moment: persist the recent
    // event window before degrading the requests to retriable errors.
    if (config.flight_recorder != nullptr &&
        !config.flight_record_path.empty())
      (void)config.flight_recorder->dump(config.flight_record_path.c_str(),
                                         "batch compute failure");
  }
  const double m = static_cast<double>(xs.front().size());
  const double n = static_cast<double>(ys.front().size());
  const std::uint64_t done_us = util::monotonic_us();
  const std::uint64_t slo_now_ms = static_cast<std::uint64_t>(now_ms());
  std::size_t offset = 0;
  for (const std::size_t i : plan.take) {
    const PendingRequest& pending = queue[i];
    const std::size_t pairs = pending.request.pair_count();
    ScreenResponse response;
    response.id = pending.request.id;
    if (report.has_value()) {
      response.scores.assign(
          report->scores.begin() + static_cast<std::ptrdiff_t>(offset),
          report->scores.begin() +
              static_cast<std::ptrdiff_t>(offset + pairs));
      stats.pairs_scored += pairs;
      TenantServe& t = serve[pending.request.tenant];
      t.pairs += pairs;
      t.cells += static_cast<double>(pairs) * m * n;
      t.ms += batch_ms * static_cast<double>(pairs) /
              static_cast<double>(plan.pairs);
      ++stats.completed;

      // SLO bookkeeping: split the lifetime at the batch cut and the
      // compute return (see SloTracker::Latency for the taxonomy).
      SloTracker::Latency latency;
      latency.queue_ms =
          pending.enqueued_us != 0 && cut_us >= pending.enqueued_us
              ? static_cast<double>(cut_us - pending.enqueued_us) / 1e3
              : 0.0;
      latency.batch_ms = static_cast<double>(done_us - cut_us) / 1e3;
      latency.compute_ms = batch_ms;
      latency.total_ms = latency.queue_ms + latency.batch_ms;
      if (slo.observe(pending.request.tenant, pending.request.id,
                      pending.request.trace_id, latency, slo_now_ms)) {
        ++stats.slow_requests;
        char hex[24];
        std::snprintf(hex, sizeof hex, "0x%016llx",
                      static_cast<unsigned long long>(
                          pending.request.trace_id));
        std::fprintf(stderr,
                     "[screen_serve] slow request id=%s tenant=%s "
                     "queue=%.2fms batch=%.2fms compute=%.2fms "
                     "total=%.2fms trace=%s\n",
                     pending.request.id.c_str(),
                     pending.request.tenant.c_str(), latency.queue_ms,
                     latency.batch_ms, latency.compute_ms, latency.total_ms,
                     hex);
        fr_note("request.slow",
                static_cast<std::int64_t>(latency.total_ms * 1e3),
                static_cast<std::int64_t>(pending.request.trace_id));
      }
      complete(pending, std::move(response), /*journal_it=*/true);
    } else {
      // A compute failure is NOT journaled as completed: a restart gets
      // to retry what this process could not do.
      response.code = util::ErrorCode::kInternal;
      response.message = "batch compute failed: " +
                         report.status().to_string();
      complete(pending, std::move(response), /*journal_it=*/false);
    }
    offset += pairs;
  }
}

void ScreenServer::Impl::dispatch(bool flush_all) {
  while (!queue.empty()) {
    const double now = now_ms();
    bool flush_batch = flush_all || admission.draining();
    if (!flush_batch) {
      // Linger expired on the oldest request -> cut a partial batch.
      for (const PendingRequest& pending : queue) {
        if (now - pending.enqueued_ms >= config.linger_ms) {
          flush_batch = true;
          break;
        }
      }
    }
    const BatchPlan plan = plan_batch(queue, now, lane_group, flush_batch);
    if (plan.take.empty() && plan.shed.empty()) break;
    for (const std::size_t i : plan.shed) {
      const PendingRequest& pending = queue[i];
      ++stats.shed_deadline;
      slo.deadline_miss(pending.request.tenant);
      if (telemetry::Tracer* tr = tracer(); tr != nullptr) {
        // The shed closes the request's queue wait too — backdated like
        // queue.wait, but named for what actually happened.
        const std::uint64_t shed_us = util::monotonic_us();
        if (pending.enqueued_us != 0 && pending.enqueued_us <= shed_us) {
          telemetry::TraceEvent e;
          e.name = "queue.shed";
          e.cat = "service";
          e.ts_us = pending.enqueued_us;
          e.dur_us = shed_us - pending.enqueued_us;
          e.track = tenant_track(pending.request.tenant);
          e.trace_id = pending.request.trace_id;
          e.arg_names[0] = "pairs";
          e.arg_values[0] =
              static_cast<std::int64_t>(pending.request.pair_count());
          tr->record(e);
        }
      }
      ScreenResponse response;
      response.id = pending.request.id;
      response.code = util::ErrorCode::kDeadlineExceeded;
      response.message =
          "deadline budget of " +
          std::to_string(pending.request.deadline_budget_ms) +
          " ms ran out while queued";
      // Journaled: a shed decision is terminal, a restart must not
      // resurrect the request and score it even later.
      complete(pending, std::move(response), /*journal_it=*/true);
    }
    if (!plan.take.empty()) run_batch(plan);
    // Drop the settled entries, highest index first.
    std::vector<std::size_t> settled;
    settled.reserve(plan.take.size() + plan.shed.size());
    settled.insert(settled.end(), plan.take.begin(), plan.take.end());
    settled.insert(settled.end(), plan.shed.begin(), plan.shed.end());
    std::sort(settled.rbegin(), settled.rend());
    for (const std::size_t i : settled)
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

util::Status ScreenServer::Impl::run() {
  while (true) {
    const bool stopping = config.stop != nullptr && config.stop->cancelled();
    if (stopping && !admission.draining()) admission.set_draining();
    dispatch(/*flush_all=*/stopping);
    if (stopping && queue.empty()) {
      bool output_pending = false;
      for (const auto& [fd, conn] : connections)
        if (conn.out_off < conn.out.size()) output_pending = true;
      if (!output_pending) break;
    }

    std::vector<pollfd> fds;
    fds.push_back({listen_fd.get(), POLLIN, 0});
    for (const auto& [fd, conn] : connections) {
      short events = POLLIN;
      if (conn.out_off < conn.out.size()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }
    const int timeout_ms = queue.empty() && !stopping ? 50 : 1;
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;  // a signal: loop re-checks the token
      return errno_status("poll()");
    }
    if (fds.front().revents & POLLIN) accept_ready();
    for (std::size_t i = 1; i < fds.size(); ++i) {
      const pollfd& p = fds[i];
      if (p.revents == 0) continue;
      if (p.revents & (POLLHUP | POLLERR | POLLNVAL)) {
        // Let a pending read drain first; POLLIN handles the final bytes.
        if (!(p.revents & POLLIN)) {
          close_connection(p.fd);
          continue;
        }
      }
      if (p.revents & POLLOUT) flush(p.fd);
      if (p.revents & POLLIN) read_ready(p.fd);
    }
  }
  connections.clear();
  return {};
}

telemetry::RunReport ScreenServer::Impl::build_report() const {
  telemetry::RunReport report;
  report.tool = "screen_serve";
  report.config_fingerprint = journal_fingerprint;
  report.config["socket_path"] = config.socket_path;
  report.config["lane_group"] = std::to_string(lane_group);
  report.config["linger_ms"] = std::to_string(config.linger_ms);
  report.config["max_queued_requests"] =
      std::to_string(admission.config().max_queued_requests);
  report.config["max_queued_pairs"] =
      std::to_string(admission.config().max_queued_pairs);
  report.config["tenant_quota_pairs"] =
      std::to_string(admission.config().tenant_quota_pairs);
  report.config["journal"] = config.journal_path.empty() ? "off" : "on";

  for (const auto& [tenant, admitted] : admission.tenants()) {
    telemetry::RunReportRow row;
    row.impl = "tenant:" + tenant;
    const auto it = serve.find(tenant);
    if (it != serve.end()) {
      row.pairs = it->second.pairs;
      row.stages_ms["SRV"] = it->second.ms;
      row.total_ms = it->second.ms;
      if (it->second.ms > 0.0)
        row.gcups = it->second.cells / (it->second.ms * 1e6);
    }
    row.stage_metrics["SRV"] = {
        {"admitted", admitted.admitted},
        {"rejected_overload", admitted.rejected_overload},
        {"rejected_quota", admitted.rejected_quota},
        {"pairs_admitted", admitted.pairs_admitted},
    };
    report.rows.push_back(std::move(row));
  }

  // Service counters travel in a registry snapshot so the validator can
  // cross-check them against the rows.
  telemetry::MetricsRegistry registry;
  registry.counter("service.requests").add(stats.requests);
  registry.counter("service.protocol_errors").add(stats.protocol_errors);
  registry.counter("service.admitted").add(stats.admitted);
  registry.counter("service.rejected_overload").add(stats.rejected_overload);
  registry.counter("service.rejected_quota").add(stats.rejected_quota);
  registry.counter("service.shed_deadline").add(stats.shed_deadline);
  registry.counter("service.rejected_scheme").add(stats.rejected_scheme);
  registry.counter("service.completed").add(stats.completed);
  registry.counter("service.cache_hits").add(stats.cache_hits);
  registry.counter("service.recovered_pending").add(stats.recovered_pending);
  registry.counter("service.recovered_completed")
      .add(stats.recovered_completed);
  registry.counter("service.batches").add(stats.batches);
  registry.counter("service.pairs_scored").add(stats.pairs_scored);
  registry.counter("service.stat_scrapes").add(stats.stat_scrapes);
  registry.counter("service.trace_scrapes").add(stats.trace_scrapes);
  registry.counter("service.slow_requests").add(stats.slow_requests);
  if (journal.has_value()) {
    registry.counter("service.journal.appended").add(journal->appended());
    registry.counter("service.journal.replayed").add(journal->replayed());
    registry.counter("service.journal.replayed_bytes")
        .add(journal->replayed_bytes());
    registry.gauge("service.journal.replay_ms").set(journal_replay_ms);
  }
  const FaultLog log = faults.log();
  registry.counter("service.faults.tears").add(log.tears);
  registry.counter("service.faults.flips").add(log.flips);
  registry.counter("service.faults.disconnects").add(log.disconnects);
  registry.counter("service.faults.stalls").add(log.stalls);

  // Live occupancy and efficiency gauges — the part of a scrape that
  // cannot be reconstructed from counters after the fact.
  registry.gauge("service.uptime_ms").set(now_ms());
  registry.gauge("service.queue.requests")
      .set(static_cast<double>(admission.queued_requests()));
  registry.gauge("service.queue.pairs")
      .set(static_cast<double>(admission.queued_pairs()));
  const AdmissionConfig& ac = admission.config();
  if (ac.max_queued_requests != 0)
    registry.gauge("service.occupancy.requests")
        .set(static_cast<double>(admission.queued_requests()) /
             static_cast<double>(ac.max_queued_requests));
  if (ac.max_queued_pairs != 0)
    registry.gauge("service.occupancy.pairs")
        .set(static_cast<double>(admission.queued_pairs()) /
             static_cast<double>(ac.max_queued_pairs));
  // Batch fill: pairs actually scored per lane-group slot dispatched.
  // 1.0 means every batch went out full; thin traffic + linger pushes it
  // down — the packing/latency trade made visible.
  if (stats.batches != 0 && lane_group != 0)
    registry.gauge("service.batch.fill_ratio")
        .set(static_cast<double>(stats.pairs_scored) /
             static_cast<double>(stats.batches * lane_group));
  for (const auto& [tenant, t] : admission.tenants()) {
    const std::uint64_t seen =
        t.admitted + t.rejected_overload + t.rejected_quota;
    if (seen != 0)
      registry.gauge("service.tenant." + tenant + ".shed_rate")
          .set(static_cast<double>(t.rejected_overload + t.rejected_quota) /
               static_cast<double>(seen));
  }

  telemetry::MetricsRegistry::Snapshot snap = registry.snapshot();
  // Per-tenant SLO windows (rolling latency histograms, deadline misses,
  // slow counts) under slo.<tenant>.*.
  slo.fill(snap, static_cast<std::uint64_t>(now_ms()));
  // Fold in the session registry (screen./device./telemetry.* names, no
  // collision with service.*): trace-drop counters, absorb-cache stats,
  // and engine stage histograms all ride the same scrape.
  if (config.telemetry != nullptr && config.telemetry->enabled()) {
    telemetry::MetricsRegistry::Snapshot session =
        config.telemetry->snapshot();
    snap.counters.merge(session.counters);
    snap.gauges.merge(session.gauges);
    snap.histograms.merge(session.histograms);
  }
  report.metrics = std::move(snap);
  return report;
}

TraceDump ScreenServer::Impl::build_trace_dump() const {
  TraceDump dump;
  telemetry::Tracer* tr = tracer();
  if (tr == nullptr) return dump;  // telemetry off: an empty, valid dump
  dump.tracks = tr->track_names();
  dump.dropped = tr->dropped();
  const std::vector<telemetry::TraceEvent> events = tr->events();
  dump.events.reserve(events.size());
  for (const telemetry::TraceEvent& e : events) {
    TraceDump::Event out;
    out.name = e.name;
    out.cat = e.cat;
    out.ts_us = e.ts_us;
    out.dur_us = e.dur_us;
    out.track = e.track;
    out.trace_id = e.trace_id;
    for (std::size_t i = 0; i < telemetry::kSpanArgSlots; ++i)
      if (e.arg_names[i] != nullptr)
        out.args.emplace_back(e.arg_names[i], e.arg_values[i]);
    dump.events.push_back(std::move(out));
  }
  return dump;
}

ScreenServer::ScreenServer(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
ScreenServer::ScreenServer(ScreenServer&&) noexcept = default;
ScreenServer& ScreenServer::operator=(ScreenServer&&) noexcept = default;
ScreenServer::~ScreenServer() = default;

util::Expected<ScreenServer> ScreenServer::create(ServerConfig config) {
  auto impl = std::make_unique<Impl>(std::move(config));
  if (util::Status s = impl->setup(); !s.ok()) return s;
  return ScreenServer(std::move(impl));
}

util::Status ScreenServer::run() { return impl_->run(); }

const ServerStats& ScreenServer::stats() const {
  impl_->stats.faults = impl_->faults.log();
  return impl_->stats;
}

const std::map<std::string, TenantStats>& ScreenServer::tenants() const {
  return impl_->admission.tenants();
}

telemetry::RunReport ScreenServer::report() const {
  return impl_->build_report();
}

const SloTracker& ScreenServer::slo() const { return impl_->slo; }

}  // namespace swbpbc::service
