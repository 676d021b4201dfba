// The screening daemon: serves multi-tenant score requests over a
// UNIX-domain socket with admission control, lane-group batching, a
// crash-safe request journal, and optional transport fault injection.
//
//   ./screen_serve --socket=/tmp/sw.sock --journal=/tmp/sw.journal
//   ./screen_serve --socket=... --tear-prob=0.2 --flip-prob=0.2
//   ./screen_serve --socket=... --crash-after-batches=2   # CI crash drill
//   ./screen_serve --socket=... --telemetry --engine
//       --stats-dump=stats.prom --flight-recorder=crash.fr
//
// Observability: --telemetry enables the span tracer + metrics registry
// (live kStatRequest/kTraceRequest scrapes answer with them); --engine
// scores batches on a persistent device::PipelineEngine so per-batch
// H2G..G2H stage spans land in the trace; --flight-recorder installs a
// crash handler that dumps the recent event ring to PATH on
// SIGSEGV/SIGABRT; --stats-dump writes a Prometheus text-exposition
// snapshot at drain.
//
// SIGTERM/SIGINT drains: in-flight batches finish, the queue flushes,
// new work is rejected kOverloaded, the per-tenant RunReport is written,
// and the process exits 0. A second signal exits immediately.

#include <cstdio>
#include <fstream>
#include <string>

#include "service/server.hpp"
#include "sw/lane.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/flight_recorder.hpp"
#include "util/options.hpp"
#include "util/signal.hpp"

using namespace swbpbc;

int main(int argc, char** argv) {
  const util::Options opt = util::Options::parse_or_exit(
      argc, argv,
      {"abort-after-batches", "backend", "crash-after-batches",
       "disconnect-prob", "engine", "fault-seed", "flight-capacity",
       "flight-recorder", "flip-prob", "journal", "lane-group", "linger-ms",
       "max-queued-pairs", "max-queued-requests", "report", "retry-hint-ms",
       "slow-ms", "socket", "stall-ms", "stall-prob", "stats-dump", "tear-prob",
       "telemetry", "tenant-quota-pairs", "trace", "width"});
  service::ServerConfig config;
  config.socket_path = opt.get("socket", "screen_serve.sock");
  config.journal_path = opt.get("journal", "");
  config.params = {2, 1, 1};
  const std::string width_name = opt.get("width", "64");
  const auto width = sw::try_parse_lane_width(width_name, "--width");
  if (!width.has_value()) {
    std::fprintf(stderr, "screen_serve: %s\n",
                 width.status().to_string().c_str());
    return 2;
  }
  config.width = *width;
  const std::string backend_name = opt.get("backend", "auto");
  const auto backend = sw::parse_backend_choice(backend_name);
  if (!backend.has_value()) {
    std::fprintf(stderr,
                 "screen_serve: unknown --backend=%s (expected "
                 "bpbc|striped|auto)\n",
                 backend_name.c_str());
    return 2;
  }
  config.backend = *backend;
  config.lane_group =
      static_cast<std::size_t>(opt.get_int("lane-group", 0));
  config.linger_ms = opt.get_double("linger-ms", 2.0);
  config.admission.max_queued_requests =
      static_cast<std::size_t>(opt.get_int("max-queued-requests", 64));
  config.admission.max_queued_pairs =
      static_cast<std::size_t>(opt.get_int("max-queued-pairs", 1 << 14));
  config.admission.tenant_quota_pairs =
      static_cast<std::size_t>(opt.get_int("tenant-quota-pairs", 1 << 13));
  config.admission.retry_hint_base_ms = opt.get_double("retry-hint-ms", 10.0);
  config.faults.seed = static_cast<std::uint64_t>(opt.get_int("fault-seed", 1));
  config.faults.tear_probability = opt.get_double("tear-prob", 0.0);
  config.faults.flip_probability = opt.get_double("flip-prob", 0.0);
  config.faults.disconnect_probability = opt.get_double("disconnect-prob", 0.0);
  config.faults.stall_probability = opt.get_double("stall-prob", 0.0);
  config.faults.stall_ms = opt.get_double("stall-ms", 5.0);
  config.crash_after_batches =
      static_cast<std::uint64_t>(opt.get_int("crash-after-batches", 0));
  config.abort_after_batches =
      static_cast<std::uint64_t>(opt.get_int("abort-after-batches", 0));
  config.use_engine = opt.get_bool("engine", false);
  config.slo.slow_request_ms = opt.get_double("slow-ms", 1000.0);
  const std::string report_path = opt.get("report", "");
  const std::string stats_dump_path = opt.get("stats-dump", "");
  const std::string flight_path = opt.get("flight-recorder", "");
  const std::string trace_path = opt.get("trace", "");

  // Telemetry session (spans + metrics). Off by default: the serving hot
  // path then carries only null-pointer tests, the PR 3 contract.
  telemetry::TelemetryConfig telemetry_config;
  telemetry_config.enabled = opt.get_bool("telemetry", false) ||
                             !trace_path.empty() || !stats_dump_path.empty();
  telemetry::Telemetry session(telemetry_config);
  config.telemetry = session.sink();

  // Flight recorder + crash handler: the ring lives for the whole
  // process; the handler dumps it to the path on SIGSEGV/SIGABRT/....
  telemetry::FlightRecorder recorder(
      static_cast<std::size_t>(opt.get_int("flight-capacity", 4096)));
  if (!flight_path.empty()) {
    config.flight_recorder = &recorder;
    config.flight_record_path = flight_path;
    if (util::Status s = telemetry::FlightRecorder::install_crash_handler(
            &recorder, flight_path);
        !s.ok()) {
      std::fprintf(stderr, "screen_serve: %s\n", s.to_string().c_str());
      return 1;
    }
  }

  // SIGTERM/SIGINT -> cancel -> drain. The token must outlive run().
  util::CancellationToken stop;
  if (util::Status s = util::install_cancel_on_signals(stop); !s.ok()) {
    std::fprintf(stderr, "screen_serve: %s\n", s.to_string().c_str());
    return 1;
  }
  config.stop = &stop;

  auto server = service::ScreenServer::create(std::move(config));
  if (!server.has_value()) {
    std::fprintf(stderr, "screen_serve: %s\n",
                 server.status().to_string().c_str());
    return 1;
  }
  std::printf("screen_serve: listening (journal %s)\n",
              opt.get("journal", "").empty() ? "off" : "on");
  std::fflush(stdout);

  const util::Status run_status = server->run();
  const service::ServerStats& stats = server->stats();
  std::printf(
      "screen_serve: drained. requests=%llu admitted=%llu completed=%llu "
      "cache_hits=%llu shed_deadline=%llu rejected_overload=%llu "
      "rejected_quota=%llu recovered_pending=%llu recovered_completed=%llu "
      "batches=%llu pairs_scored=%llu faults=%llu\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.shed_deadline),
      static_cast<unsigned long long>(stats.rejected_overload),
      static_cast<unsigned long long>(stats.rejected_quota),
      static_cast<unsigned long long>(stats.recovered_pending),
      static_cast<unsigned long long>(stats.recovered_completed),
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.pairs_scored),
      static_cast<unsigned long long>(stats.faults.total()));
  if (!report_path.empty()) {
    if (util::Status s =
            telemetry::write_run_report(server->report(), report_path);
        !s.ok()) {
      std::fprintf(stderr, "screen_serve: report write failed: %s\n",
                   s.to_string().c_str());
      return 1;
    }
    std::printf("screen_serve: report written to %s\n", report_path.c_str());
  }
  if (!stats_dump_path.empty()) {
    // Prometheus text exposition of the final scrape — what a pull-based
    // collector would have seen the moment before drain.
    const telemetry::RunReport final_report = server->report();
    std::ofstream out(stats_dump_path, std::ios::binary | std::ios::trunc);
    out << telemetry::prometheus_text(final_report.metrics);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "screen_serve: stats dump write failed: %s\n",
                   stats_dump_path.c_str());
      return 1;
    }
    std::printf("screen_serve: stats dump written to %s\n",
                stats_dump_path.c_str());
  }
  if (!trace_path.empty() && session.enabled()) {
    if (util::Status s = session.tracer()->write_chrome_trace(trace_path);
        !s.ok()) {
      std::fprintf(stderr, "screen_serve: trace write failed: %s\n",
                   s.to_string().c_str());
      return 1;
    }
    std::printf("screen_serve: trace written to %s\n", trace_path.c_str());
  }
  if (!run_status.ok()) {
    std::fprintf(stderr, "screen_serve: %s\n", run_status.to_string().c_str());
    return 1;
  }
  return 0;
}
