// Client for the screening daemon (screen_serve): generates a
// deterministic workload, submits it, and verifies the daemon's scores
// bit-for-bit against a direct in-process sw::screen of the same pairs.
//
//   ./screen_client --socket=/tmp/sw.sock --requests=8 --pairs=16
//   ./screen_client --socket=... --verify           # bit-identity check
//   ./screen_client --socket=... --flood            # overload drill
//   ./screen_client --socket=... --trace=run.json   # merged trace export
//   ./screen_client --socket=... --requests=0 --stats-out=report.json
//
// Observability: --trace enables a client-side telemetry session, stamps
// every request with one deterministic trace id (propagated to the
// daemon in the request frame), fetches the daemon's span ring after the
// workload, and writes ONE Chrome/Perfetto trace holding both sides —
// the client.screen/client.exchange spans and the server's admission /
// queue-wait / compute / engine-stage spans, all carrying the same
// "trace_id" arg. --stats-out scrapes the daemon's live RunReport JSON
// (a kStatRequest frame) to a file; with --requests=0 that is the whole
// run, so a collector can scrape a busy daemon from the side.
//
// Two modes:
//   * sequential (default) — each request runs the full ScreenClient
//     reliability loop: jittered-backoff retries through torn frames,
//     daemon crashes/restarts, and kOverloaded/kQuotaExceeded rejections
//     (honoring the server's retry-after hint), always with the same
//     idempotency id so a recovered daemon serves the journaled scores.
//   * --flood — all requests are written before any response is read
//     (one connection each, no retries), so the daemon's admission queue
//     actually fills: the tail is shed with typed rejections. The tally
//     line reports what came back.

#include <sys/socket.h>
#include <sys/un.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "encoding/random.hpp"
#include "service/client.hpp"
#include "service/frame.hpp"
#include "sw/pipeline.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"
#include "util/io.hpp"
#include "util/options.hpp"
#include "util/signal.hpp"

using namespace swbpbc;

namespace {

// The daemon's scoring rules; must match screen_serve's.
constexpr sw::ScoreParams kParams{2, 1, 1};

service::ScreenRequest make_request(const std::string& prefix,
                                    const std::string& tenant,
                                    std::size_t index, std::uint64_t seed,
                                    std::size_t pairs, std::size_t m,
                                    std::size_t n, double budget_ms,
                                    std::uint64_t trace_id,
                                    std::uint8_t backend_hint) {
  service::ScreenRequest request;
  request.id = prefix + "-" + std::to_string(index);
  request.tenant = tenant;
  request.deadline_budget_ms = budget_ms;
  request.trace_id = trace_id;
  request.backend_hint = backend_hint;
  // Per-request stream: the workload is a pure function of (seed, index),
  // independent of how many requests came before.
  util::Xoshiro256 rng(seed + index * 0x9e3779b97f4a7c15ULL);
  request.xs = encoding::random_sequences(rng, pairs, m);
  request.ys = encoding::random_sequences(rng, pairs, n);
  return request;
}

/// Direct in-process reference: what the daemon should have answered.
std::vector<std::uint32_t> reference_scores(
    const service::ScreenRequest& request) {
  sw::ScreenConfig config;
  config.params = kParams;
  config.width = sw::LaneWidth::k64;
  config.traceback = false;
  config.threshold = ~std::uint32_t{0};
  return sw::screen(request.xs, request.ys, config).scores;
}

util::Expected<util::UniqueFd> connect_uds(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    return util::Status::invalid_input("bad socket path '" + path + "'");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  util::UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid())
    return util::Status::internal(std::string("socket(): ") +
                                  std::strerror(errno));
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0)
    return util::Status::internal(std::string("connect(): ") +
                                  std::strerror(errno));
  return fd;
}

struct Tally {
  unsigned ok = 0, overloaded = 0, quota = 0, deadline = 0, other = 0;

  void count(util::ErrorCode code) {
    switch (code) {
      case util::ErrorCode::kOk: ++ok; break;
      case util::ErrorCode::kOverloaded: ++overloaded; break;
      case util::ErrorCode::kQuotaExceeded: ++quota; break;
      case util::ErrorCode::kDeadlineExceeded: ++deadline; break;
      default: ++other; break;
    }
  }

  void print() const {
    std::printf("codes: ok=%u overloaded=%u quota=%u deadline=%u other=%u\n",
                ok, overloaded, quota, deadline, other);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const util::Options opt = util::Options::parse_or_exit(
      argc, argv,
      {"backend", "deadline-budget-ms", "flood", "id-prefix", "m", "n", "pairs",
       "requests", "retry-initial-ms", "retry-max-attempts", "retry-max-ms",
       "seed", "socket", "stats-out", "tenant", "trace", "verify"});
  const std::string socket_path = opt.get("socket", "screen_serve.sock");
  const std::string tenant = opt.get("tenant", "default");
  const std::string prefix = opt.get("id-prefix", tenant);
  const auto requests = static_cast<std::size_t>(opt.get_int("requests", 8));
  const auto pairs = static_cast<std::size_t>(opt.get_int("pairs", 16));
  const auto m = static_cast<std::size_t>(opt.get_int("m", 16));
  const auto n = static_cast<std::size_t>(opt.get_int("n", 48));
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 7));
  const double budget_ms = opt.get_double("deadline-budget-ms", 0.0);
  const bool verify = opt.get_bool("verify", false);
  const bool flood = opt.get_bool("flood", false);
  const std::string trace_path = opt.get("trace", "");
  const std::string stats_out = opt.get("stats-out", "");
  // Advisory host-engine hint carried in the request trailer (tag 3):
  // empty = unhinted, the daemon decides. Scores are bit-identical
  // whichever engine the daemon runs, so --verify stays valid.
  const std::string backend_name = opt.get("backend", "");
  std::uint8_t backend_hint = 0;
  if (!backend_name.empty()) {
    const auto choice = sw::parse_backend_choice(backend_name);
    if (!choice.has_value()) {
      std::fprintf(stderr,
                   "screen_client: unknown --backend=%s (expected "
                   "bpbc|striped|auto)\n",
                   backend_name.c_str());
      return 2;
    }
    backend_hint = static_cast<std::uint8_t>(static_cast<int>(*choice) + 1);
  }

  util::CancellationToken cancel;
  if (util::Status s = util::install_cancel_on_signals(cancel); !s.ok()) {
    std::fprintf(stderr, "screen_client: %s\n", s.to_string().c_str());
    return 1;
  }

  // One deterministic trace id for the whole run (a pure function of the
  // seed, nonzero by construction): every request carries it to the
  // daemon, so the merged export reads as one request lifecycle even
  // across retries and batches.
  const std::uint64_t trace_id =
      trace_path.empty()
          ? 0
          : (seed * 0x9e3779b97f4a7c15ULL) | 0x1ULL;

  telemetry::TelemetryConfig telemetry_config;
  telemetry_config.enabled = !trace_path.empty();
  telemetry::Telemetry session(telemetry_config);
  if (session.enabled())
    session.tracer()->set_track_name(telemetry::kTrackClient, "client");

  Tally tally;
  bool verified = true;
  unsigned transport_errors = 0;

  if (flood) {
    // Write everything first so the admission queue genuinely fills.
    std::vector<service::ScreenRequest> sent;
    std::vector<util::UniqueFd> fds;
    for (std::size_t k = 0; k < requests; ++k) {
      service::ScreenRequest request = make_request(
          prefix, tenant, k, seed, pairs, m, n, budget_ms, trace_id,
          backend_hint);
      auto fd = connect_uds(socket_path);
      if (!fd.has_value()) {
        std::fprintf(stderr, "screen_client: %s\n",
                     fd.status().to_string().c_str());
        return 1;
      }
      const auto payload = service::encode_request(request);
      if (util::Status s = service::write_frame(
              fd->get(), service::FrameType::kScreenRequest, payload);
          !s.ok()) {
        std::fprintf(stderr, "screen_client: %s\n", s.to_string().c_str());
        return 1;
      }
      sent.push_back(std::move(request));
      fds.push_back(std::move(fd).value());
    }
    for (std::size_t k = 0; k < requests; ++k) {
      auto frame = service::read_frame(fds[k].get());
      if (!frame.has_value() || !frame->has_value()) {
        ++transport_errors;
        continue;
      }
      auto response = service::decode_response((*frame)->payload);
      if (!response.has_value()) {
        ++transport_errors;
        continue;
      }
      tally.count(response->code);
      if (verify && response->code == util::ErrorCode::kOk &&
          response->scores != reference_scores(sent[k]))
        verified = false;
    }
  } else {
    service::ClientConfig client_config;
    client_config.socket_path = socket_path;
    client_config.backoff.initial_ms = opt.get_double("retry-initial-ms", 5.0);
    client_config.backoff.max_ms = opt.get_double("retry-max-ms", 500.0);
    client_config.backoff.max_attempts =
        static_cast<unsigned>(opt.get_int("retry-max-attempts", 10));
    client_config.backoff_seed = seed ^ 0xc1ee47ULL;
    client_config.cancel = &cancel;
    client_config.telemetry = session.sink();
    service::ScreenClient client(client_config);
    if (util::Status s = client.wait_ready(); !s.ok()) {
      std::fprintf(stderr, "screen_client: %s\n", s.to_string().c_str());
      return 1;
    }
    for (std::size_t k = 0; k < requests; ++k) {
      const service::ScreenRequest request = make_request(
          prefix, tenant, k, seed, pairs, m, n, budget_ms, trace_id,
          backend_hint);
      auto response = client.screen(request);
      if (!response.has_value()) {
        std::fprintf(stderr, "screen_client: request %s failed: %s\n",
                     request.id.c_str(),
                     response.status().to_string().c_str());
        if (response.status().code() == util::ErrorCode::kCancelled) return 130;
        ++transport_errors;
        continue;
      }
      tally.count(response->code);
      if (verify && response->code == util::ErrorCode::kOk &&
          response->scores != reference_scores(request))
        verified = false;
    }
    const service::ClientCounters& counters = client.counters();
    std::printf("retries: attempts=%llu transport=%llu overload=%llu "
                "quota=%llu sleeps=%llu\n",
                static_cast<unsigned long long>(counters.attempts),
                static_cast<unsigned long long>(counters.transport_faults),
                static_cast<unsigned long long>(counters.overload_rejections),
                static_cast<unsigned long long>(counters.quota_rejections),
                static_cast<unsigned long long>(counters.backoff_sleeps));
  }

  if (!stats_out.empty() || !trace_path.empty()) {
    service::ClientConfig scrape_config;
    scrape_config.socket_path = socket_path;
    scrape_config.backoff_seed = seed ^ 0x5c4a9eULL;
    scrape_config.cancel = &cancel;
    service::ScreenClient scraper(scrape_config);
    if (util::Status s = scraper.wait_ready(); !s.ok()) {
      std::fprintf(stderr, "screen_client: %s\n", s.to_string().c_str());
      return 1;
    }
    if (!stats_out.empty()) {
      auto report = scraper.stats();
      if (!report.has_value()) {
        std::fprintf(stderr, "screen_client: stats scrape failed: %s\n",
                     report.status().to_string().c_str());
        return 1;
      }
      std::ofstream out(stats_out, std::ios::binary | std::ios::trunc);
      out << *report;
      out.flush();
      if (!out) {
        std::fprintf(stderr, "screen_client: cannot write %s\n",
                     stats_out.c_str());
        return 1;
      }
      std::printf("stats: written to %s (%zu bytes)\n", stats_out.c_str(),
                  report->size());
    }
    if (!trace_path.empty()) {
      // Merge the daemon's span ring into the client session and export
      // one trace. The dump owns its strings; the tracer's ring borrows
      // them, so the dump must stay alive until the write below is done.
      auto dump = scraper.fetch_trace();
      if (!dump.has_value()) {
        std::fprintf(stderr, "screen_client: trace scrape failed: %s\n",
                     dump.status().to_string().c_str());
        return 1;
      }
      telemetry::Tracer* tracer = session.tracer();
      for (const auto& [track, name] : dump->tracks)
        tracer->set_track_name(track, name);
      for (const service::TraceDump::Event& e : dump->events) {
        telemetry::TraceEvent ev;
        ev.name = e.name.c_str();
        ev.cat = e.cat.c_str();
        ev.ts_us = e.ts_us;
        ev.dur_us = e.dur_us;
        ev.track = e.track;
        ev.trace_id = e.trace_id;
        for (std::size_t i = 0;
             i < e.args.size() && i < telemetry::kSpanArgSlots; ++i) {
          ev.arg_names[i] = e.args[i].first.c_str();
          ev.arg_values[i] = e.args[i].second;
        }
        tracer->record(ev);
      }
      if (util::Status s = tracer->write_chrome_trace(trace_path); !s.ok()) {
        std::fprintf(stderr, "screen_client: %s\n", s.to_string().c_str());
        return 1;
      }
      std::printf("trace: written to %s (client + %zu server events, "
                  "trace_id 0x%016llx)\n",
                  trace_path.c_str(), dump->events.size(),
                  static_cast<unsigned long long>(trace_id));
      if (dump->dropped != 0)
        std::printf("trace: server ring dropped %llu events\n",
                    static_cast<unsigned long long>(dump->dropped));
    }
  }

  tally.print();
  if (verify)
    std::printf("verify: %s\n", verified ? "OK" : "MISMATCH");
  if (transport_errors != 0)
    std::printf("transport_errors: %u\n", transport_errors);
  if (!verified) return 1;
  if (!flood && (tally.other != 0 || transport_errors != 0)) return 1;
  return 0;
}
