// Live observability drills against a real daemon on a real socket:
// stats scrapes racing a request flood (counter monotonicity, schema),
// end-to-end trace propagation (client trace id on server admission /
// queue / engine stage spans), per-tenant SLO windows in the scrape, and
// the telemetry-off zero-cost contract (bit-identical scores with the
// whole observability layer disabled).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "encoding/random.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sw/pipeline.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace swbpbc::service {
namespace {

constexpr sw::ScoreParams kParams{2, 1, 1};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "swbpbc_stats_" + name;
}

ScreenRequest make_request(const std::string& id, std::size_t pairs,
                           std::uint64_t seed, std::size_t m = 8,
                           std::size_t n = 24) {
  util::Xoshiro256 rng(seed);
  ScreenRequest req;
  req.id = id;
  req.tenant = "tenant-a";
  req.xs = encoding::random_sequences(rng, pairs, m);
  req.ys = encoding::random_sequences(rng, pairs, n);
  return req;
}

std::vector<std::uint32_t> reference_scores(const ScreenRequest& req) {
  sw::ScreenConfig config;
  config.params = kParams;
  config.width = sw::LaneWidth::k64;
  config.traceback = false;
  config.threshold = ~std::uint32_t{0};
  return sw::screen(req.xs, req.ys, config).scores;
}

class ServerHarness {
 public:
  explicit ServerHarness(ServerConfig config) {
    config.stop = &stop_;
    auto created = ScreenServer::create(std::move(config));
    if (!created.has_value()) {
      create_status_ = created.status();
      return;
    }
    server_.emplace(std::move(created).value());
    thread_ = std::thread([this] { run_status_ = server_->run(); });
  }

  // Tests that check run()'s verdict call stop() themselves; joining
  // again here finds nothing left to check.
  ~ServerHarness() { (void)stop(); }

  [[nodiscard]] bool started() const { return server_.has_value(); }
  [[nodiscard]] const util::Status& create_status() const {
    return create_status_;
  }

  util::Status stop() {
    if (thread_.joinable()) {
      stop_.cancel();
      thread_.join();
    }
    return run_status_;
  }

  [[nodiscard]] const ServerStats& stats() const { return server_->stats(); }

 private:
  util::CancellationToken stop_;
  std::optional<ScreenServer> server_;
  std::thread thread_;
  util::Status create_status_;
  util::Status run_status_;
};

ServerConfig base_config(const std::string& tag) {
  ServerConfig cfg;
  cfg.socket_path = temp_path(tag + ".sock");
  std::remove(cfg.socket_path.c_str());
  cfg.params = kParams;
  cfg.width = sw::LaneWidth::k64;
  cfg.lane_group = 8;
  cfg.linger_ms = 0.5;
  return cfg;
}

ClientConfig client_config(const ServerConfig& server) {
  ClientConfig cfg;
  cfg.socket_path = server.socket_path;
  cfg.backoff.initial_ms = 1.0;
  cfg.backoff.max_ms = 20.0;
  cfg.backoff.max_attempts = 24;
  return cfg;
}

TEST(StatsScrape, LiveScrapesStayMonotoneDuringFlood) {
  const ServerConfig cfg = base_config("flood");
  ServerHarness server(cfg);
  ASSERT_TRUE(server.started()) << server.create_status().to_string();

  // Worker: a stream of requests through the full reliability loop.
  std::atomic<bool> done{false};
  std::thread worker([&] {
    ScreenClient client(client_config(cfg));
    ASSERT_TRUE(client.wait_ready().ok());
    for (int k = 0; k < 24; ++k) {
      auto response =
          client.screen(make_request("flood-" + std::to_string(k), 4,
                                     static_cast<std::uint64_t>(k)));
      ASSERT_TRUE(response.has_value()) << response.status().to_string();
    }
    done.store(true);
  });

  // Scraper: repeated kStatRequest frames racing the flood. Every scrape
  // must parse, and every service counter must be monotone between
  // consecutive scrapes (they are all lifetime totals).
  ScreenClient scraper(client_config(cfg));
  ASSERT_TRUE(scraper.wait_ready().ok());
  std::map<std::string, std::uint64_t> last_counters;
  std::uint64_t scrapes = 0;
  while (!done.load()) {
    auto text = scraper.stats();
    ASSERT_TRUE(text.has_value()) << text.status().to_string();
    auto report = telemetry::parse_run_report(*text);
    ASSERT_TRUE(report.has_value()) << report.status().to_string();
    EXPECT_EQ(report->tool, "screen_serve");
    for (const auto& [name, value] : report->metrics.counters) {
      const auto it = last_counters.find(name);
      if (it != last_counters.end()) {
        EXPECT_GE(value, it->second) << name << " went backwards";
      }
      last_counters[name] = value;
    }
    ++scrapes;
  }
  worker.join();
  EXPECT_GE(scrapes, 2u);

  // A final scrape must dominate everything seen mid-flood and reconcile
  // with what the workload actually did.
  auto text = scraper.stats();
  ASSERT_TRUE(text.has_value());
  auto final_report = telemetry::parse_run_report(*text);
  ASSERT_TRUE(final_report.has_value());
  const auto& counters = final_report->metrics.counters;
  for (const auto& [name, value] : last_counters) {
    const auto it = counters.find(name);
    ASSERT_NE(it, counters.end()) << name << " vanished from the report";
    EXPECT_GE(it->second, value) << name;
  }
  EXPECT_EQ(counters.at("service.admitted"), 24u);
  EXPECT_EQ(counters.at("service.completed"), 24u);
  EXPECT_GE(counters.at("service.stat_scrapes"), scrapes);
  // The SLO window saw every completion.
  EXPECT_EQ(counters.at("slo.tenant-a.completed"), 24u);
  const auto hist =
      final_report->metrics.histograms.find("slo.tenant-a.total_ms");
  ASSERT_NE(hist, final_report->metrics.histograms.end());
  EXPECT_EQ(hist->second.count, 24u);
  // Occupancy gauges exist and are sane after the drain of the queue.
  EXPECT_GE(final_report->metrics.gauges.at("service.uptime_ms"), 0.0);
  EXPECT_EQ(final_report->metrics.gauges.at("service.queue.requests"), 0.0);

  ASSERT_TRUE(server.stop().ok());
}

TEST(TracePropagation, ClientTraceIdReachesServerSpans) {
  telemetry::Telemetry server_session({.enabled = true});
  ServerConfig cfg = base_config("trace");
  cfg.telemetry = server_session.sink();
  cfg.use_engine = true;
  ServerHarness server(cfg);
  ASSERT_TRUE(server.started()) << server.create_status().to_string();

  telemetry::Telemetry client_session({.enabled = true});
  ClientConfig ccfg = client_config(cfg);
  ccfg.telemetry = client_session.sink();
  ScreenClient client(ccfg);
  ASSERT_TRUE(client.wait_ready().ok());

  constexpr std::uint64_t kTraceId = 0x5EEDCAFEF00D0001ULL;
  ScreenRequest request = make_request("traced-1", 8, 99);
  request.trace_id = kTraceId;
  request.parent_span = 1;
  auto response = client.screen(request);
  ASSERT_TRUE(response.has_value()) << response.status().to_string();
  ASSERT_EQ(response->code, util::ErrorCode::kOk);
  EXPECT_EQ(response->scores, reference_scores(request));

  // Client-side spans carry the id...
  bool client_span_tagged = false;
  for (const auto& e : client_session.tracer()->events())
    if (std::string(e.name) == "client.screen" && e.trace_id == kTraceId)
      client_span_tagged = true;
  EXPECT_TRUE(client_span_tagged);

  // ...and so do the server's admission, queue, compute, and engine
  // stage spans, fetched over the wire like a real merged export would.
  auto dump = client.fetch_trace();
  ASSERT_TRUE(dump.has_value()) << dump.status().to_string();
  std::map<std::string, std::uint64_t> tagged;
  for (const TraceDump::Event& e : dump->events)
    if (e.trace_id == kTraceId) ++tagged[e.name];
  EXPECT_GE(tagged["admit"], 1u) << "admission span missing the trace id";
  EXPECT_GE(tagged["queue.wait"], 1u) << "queue span missing the trace id";
  for (const char* stage : {"H2G", "W2B", "SWA", "B2W", "G2H"})
    EXPECT_GE(tagged[stage], 1u)
        << "engine stage " << stage << " missing the trace id";
  // The tenant track made it into the dump's track table.
  bool tenant_track_named = false;
  for (const auto& [track, name] : dump->tracks)
    if (name == "tenant:tenant-a") tenant_track_named = true;
  EXPECT_TRUE(tenant_track_named);

  ASSERT_TRUE(server.stop().ok());
  const ServerStats& stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_GE(stats.trace_scrapes, 1u);
}

TEST(TelemetryOff, ScoresBitIdenticalAndTraceDumpEmpty) {
  // Observability off must be invisible in the results: same scores as
  // the direct path, and the trace endpoint answers with a valid empty
  // dump rather than an error.
  const ServerConfig cfg = base_config("dark");
  ASSERT_EQ(cfg.telemetry, nullptr);
  ServerHarness server(cfg);
  ASSERT_TRUE(server.started()) << server.create_status().to_string();

  ScreenClient client(client_config(cfg));
  ASSERT_TRUE(client.wait_ready().ok());
  const ScreenRequest request = make_request("dark-1", 8, 123);
  auto response = client.screen(request);
  ASSERT_TRUE(response.has_value()) << response.status().to_string();
  ASSERT_EQ(response->code, util::ErrorCode::kOk);
  EXPECT_EQ(response->scores, reference_scores(request));

  auto dump = client.fetch_trace();
  ASSERT_TRUE(dump.has_value()) << dump.status().to_string();
  EXPECT_TRUE(dump->events.empty());
  EXPECT_EQ(dump->dropped, 0u);

  // Stats still answer (counters only, no session metrics).
  auto text = client.stats();
  ASSERT_TRUE(text.has_value());
  auto report = telemetry::parse_run_report(*text);
  ASSERT_TRUE(report.has_value()) << report.status().to_string();
  EXPECT_EQ(report->metrics.counters.at("service.completed"), 1u);
  EXPECT_EQ(report->metrics.counters.count("telemetry.trace.dropped"), 0u);

  ASSERT_TRUE(server.stop().ok());
}

TEST(JournalReplay, SpanAndMetricsReportWhatWasReplayed) {
  ServerConfig cfg = base_config("replay");
  cfg.journal_path = temp_path("replay.journal");
  std::remove(cfg.journal_path.c_str());
  {
    ServerHarness server(cfg);
    ASSERT_TRUE(server.started()) << server.create_status().to_string();
    ScreenClient client(client_config(cfg));
    ASSERT_TRUE(client.wait_ready().ok());
    for (std::uint64_t k = 0; k < 2; ++k)
      ASSERT_TRUE(
          client.screen(make_request("replay-" + std::to_string(k), 4, 7 + k))
              .has_value());
    ASSERT_TRUE(server.stop().ok());
  }
  // Two admitted and two completed records follow the 24-byte header.
  const auto journal_bytes = static_cast<std::int64_t>(
      std::filesystem::file_size(cfg.journal_path) - 24);

  telemetry::Telemetry session({.enabled = true});
  cfg.telemetry = session.sink();
  auto restarted = ScreenServer::create(cfg);
  ASSERT_TRUE(restarted.has_value()) << restarted.status().to_string();
  std::map<std::string, std::int64_t> args;
  std::size_t spans = 0;
  for (const auto& e : session.tracer()->events()) {
    if (std::string(e.name) != "journal.replay") continue;
    ++spans;
    for (std::size_t i = 0; i < telemetry::kSpanArgSlots; ++i)
      if (e.arg_names[i] != nullptr) args[e.arg_names[i]] = e.arg_values[i];
  }
  EXPECT_EQ(spans, 1u);
  EXPECT_EQ(args["records"], 4);
  EXPECT_EQ(args["bytes"], journal_bytes);

  const telemetry::RunReport report = restarted->report();
  EXPECT_EQ(report.metrics.counters.at("service.journal.replayed"), 4u);
  EXPECT_EQ(report.metrics.counters.at("service.journal.replayed_bytes"),
            static_cast<std::uint64_t>(journal_bytes));
  ASSERT_TRUE(report.metrics.gauges.contains("service.journal.replay_ms"));
  EXPECT_GE(report.metrics.gauges.at("service.journal.replay_ms"), 0.0);
  std::remove(cfg.journal_path.c_str());
}

TEST(EngineBackend, ScoresMatchHostPathBitForBit) {
  // The persistent-engine serving path is an observability/throughput
  // choice, never a numerics one: byte-identical responses for the same
  // requests, across several batch shapes through one engine.
  telemetry::Telemetry session({.enabled = true});
  ServerConfig cfg = base_config("engine");
  cfg.telemetry = session.sink();
  cfg.use_engine = true;
  ServerHarness server(cfg);
  ASSERT_TRUE(server.started()) << server.create_status().to_string();

  ScreenClient client(client_config(cfg));
  ASSERT_TRUE(client.wait_ready().ok());
  // Different (m, n) shapes force the engine to reshape between batches.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {8, 24}, {12, 16}, {8, 24}};
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    const ScreenRequest request =
        make_request("engine-" + std::to_string(k), 8, 7 + k,
                     shapes[k].first, shapes[k].second);
    auto response = client.screen(request);
    ASSERT_TRUE(response.has_value()) << response.status().to_string();
    ASSERT_EQ(response->code, util::ErrorCode::kOk) << response->message;
    EXPECT_EQ(response->scores, reference_scores(request)) << k;
  }
  ASSERT_TRUE(server.stop().ok());
  EXPECT_EQ(server.stats().completed, 3u);
}

}  // namespace
}  // namespace swbpbc::service
