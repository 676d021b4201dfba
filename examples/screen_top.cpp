// Live dashboard for the screening daemon: scrapes the kStatRequest
// endpoint on an interval and renders occupancy, throughput, batch fill,
// and the per-tenant SLO windows as a refreshing terminal view.
//
//   ./screen_top --socket=/tmp/sw.sock                # refresh loop
//   ./screen_top --socket=... --once                  # one snapshot
//   ./screen_top --socket=... --interval-ms=500
//
// Every frame is one whole scrape — the daemon builds the RunReport
// atomically inside its poll loop, so the numbers in one frame are
// mutually consistent. Ctrl-C exits cleanly.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "telemetry/run_report.hpp"
#include "util/options.hpp"
#include "util/signal.hpp"

using namespace swbpbc;

namespace {

std::uint64_t counter_of(const telemetry::MetricsRegistry::Snapshot& m,
                         const std::string& name) {
  const auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

double gauge_of(const telemetry::MetricsRegistry::Snapshot& m,
                const std::string& name) {
  const auto it = m.gauges.find(name);
  return it == m.gauges.end() ? 0.0 : it->second;
}

/// 20-char occupancy bar: [########------------]
std::string bar(double ratio) {
  if (ratio < 0.0) ratio = 0.0;
  if (ratio > 1.0) ratio = 1.0;
  const int filled = static_cast<int>(ratio * 20.0 + 0.5);
  std::string out = "[";
  for (int i = 0; i < 20; ++i) out += i < filled ? '#' : '-';
  out += ']';
  return out;
}

void render(const telemetry::RunReport& report, std::uint64_t frame) {
  const telemetry::MetricsRegistry::Snapshot& m = report.metrics;
  std::printf("screen_top — frame %" PRIu64 "  uptime %.1fs\n", frame,
              gauge_of(m, "service.uptime_ms") / 1e3);
  std::printf(
      "requests %-8" PRIu64 " admitted %-8" PRIu64 " completed %-8" PRIu64
      " cache_hits %-6" PRIu64 "\n",
      counter_of(m, "service.requests"), counter_of(m, "service.admitted"),
      counter_of(m, "service.completed"), counter_of(m, "service.cache_hits"));
  std::printf(
      "shed: overload %-6" PRIu64 " quota %-6" PRIu64 " deadline %-6" PRIu64
      " slow %-6" PRIu64 " protocol_errors %" PRIu64 "\n",
      counter_of(m, "service.rejected_overload"),
      counter_of(m, "service.rejected_quota"),
      counter_of(m, "service.shed_deadline"),
      counter_of(m, "service.slow_requests"),
      counter_of(m, "service.protocol_errors"));
  std::printf("queue    %s %5.1f%%  (%.0f requests, %.0f pairs)\n",
              bar(gauge_of(m, "service.occupancy.requests")).c_str(),
              gauge_of(m, "service.occupancy.requests") * 100.0,
              gauge_of(m, "service.queue.requests"),
              gauge_of(m, "service.queue.pairs"));
  std::printf("batches  %-8" PRIu64 " pairs_scored %-10" PRIu64
              " fill %.2f  scrapes %" PRIu64 "\n",
              counter_of(m, "service.batches"),
              counter_of(m, "service.pairs_scored"),
              gauge_of(m, "service.batch.fill_ratio"),
              counter_of(m, "service.stat_scrapes"));
  if (const std::uint64_t dropped =
          counter_of(m, "telemetry.trace.dropped");
      dropped != 0)
    std::printf("WARNING: trace ring dropped %" PRIu64 " events\n", dropped);

  // Per-tenant rows: admission ledger from the report rows, SLO
  // percentiles from the slo.<tenant>.* histograms.
  for (const telemetry::RunReportRow& row : report.rows) {
    if (row.impl.rfind("tenant:", 0) != 0) continue;
    const std::string tenant = row.impl.substr(7);
    std::printf("  %-12s pairs %-9" PRIu64 " gcups %6.2f shed_rate %.2f",
                tenant.c_str(), row.pairs, row.gcups,
                gauge_of(m, "service.tenant." + tenant + ".shed_rate"));
    const auto hist = m.histograms.find("slo." + tenant + ".total_ms");
    if (hist != m.histograms.end() && hist->second.count != 0)
      std::printf("  total_ms p50 %.2f p95 %.2f p99 %.2f (n=%" PRIu64 ")",
                  hist->second.percentile(50), hist->second.percentile(95),
                  hist->second.percentile(99), hist->second.count);
    std::printf("\n");
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options opt = util::Options::parse_or_exit(
      argc, argv, {"interval-ms", "once", "socket"});
  const bool once = opt.get_bool("once", false);
  const double interval_ms = opt.get_double("interval-ms", 1000.0);

  util::CancellationToken cancel;
  if (util::Status s = util::install_cancel_on_signals(cancel); !s.ok()) {
    std::fprintf(stderr, "screen_top: %s\n", s.to_string().c_str());
    return 1;
  }

  service::ClientConfig config;
  config.socket_path = opt.get("socket", "screen_serve.sock");
  config.cancel = &cancel;
  service::ScreenClient client(config);
  if (util::Status s = client.wait_ready(); !s.ok()) {
    std::fprintf(stderr, "screen_top: %s\n", s.to_string().c_str());
    return 1;
  }

  std::uint64_t frame = 0;
  while (!cancel.cancelled()) {
    auto text = client.stats();
    if (!text.has_value()) {
      // A draining/restarting daemon mid-loop is not an error worth a
      // non-zero exit; report and stop.
      std::fprintf(stderr, "screen_top: scrape failed: %s\n",
                   text.status().to_string().c_str());
      return once ? 1 : 0;
    }
    auto report = telemetry::parse_run_report(*text);
    if (!report.has_value()) {
      std::fprintf(stderr, "screen_top: bad report: %s\n",
                   report.status().to_string().c_str());
      return 1;
    }
    if (!once && frame != 0) std::printf("\x1b[2J\x1b[H");
    render(*report, frame);
    ++frame;
    if (once) return 0;
    // Sleep in slices so Ctrl-C lands promptly.
    double left = interval_ms;
    while (left > 0.0 && !cancel.cancelled()) {
      const double slice = left < 50.0 ? left : 50.0;
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(slice));
      left -= slice;
    }
  }
  return 0;
}
