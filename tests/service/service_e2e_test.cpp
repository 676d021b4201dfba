// End-to-end daemon drills, in process: a real ScreenServer on its own
// thread serving a real UNIX-domain socket, a real ScreenClient (or a raw
// socket when the typed rejection itself is the assertion). Covers
// bit-identity against the direct sw::screen path, journaled idempotent
// retries, typed admission rejections with retry hints, deadline shedding,
// journal-backed restart recovery, and the full fault-injected transport
// under client backoff.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "encoding/random.hpp"
#include "service/client.hpp"
#include "service/frame.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sw/pipeline.hpp"
#include "sw/scalar.hpp"
#include "sw/scoring.hpp"
#include "util/cancel.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace swbpbc::service {
namespace {

constexpr sw::ScoreParams kParams{2, 1, 1};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "swbpbc_e2e_" + name;
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

/// One daemon on one thread. Stats are only read after stop() joins —
/// the server is single-threaded and its counters are not synchronized.
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

  /// Drains the daemon and returns run()'s verdict.
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
  cfg.journal_path = temp_path(tag + ".journal");
  std::remove(cfg.socket_path.c_str());
  std::remove(cfg.journal_path.c_str());
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

/// Raw single exchange, no retries: for asserting the typed rejection
/// frame itself rather than the client's recovery from it.
util::Expected<ScreenResponse> raw_exchange(const std::string& socket_path,
                                            const ScreenRequest& request) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path))
    return util::Status::invalid_input("socket path too long");
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  util::UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return util::Status::internal("socket() failed");
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0)
    return util::Status::internal("connect() failed");
  const auto payload = encode_request(request);
  if (auto s = write_frame(fd.get(), FrameType::kScreenRequest, payload);
      !s.ok())
    return s;
  auto frame = read_frame(fd.get());
  if (!frame.has_value()) return frame.status();
  if (!frame->has_value())
    return util::Status::internal("daemon closed without responding");
  return decode_response((*frame)->payload);
}

TEST(ServiceE2E, ScoresAreBitIdenticalToDirectScreen) {
  const auto cfg = base_config("basic");
  ServerHarness harness(cfg);
  ASSERT_TRUE(harness.started()) << harness.create_status().to_string();
  ScreenClient client(client_config(cfg));
  ASSERT_TRUE(client.wait_ready().ok());

  for (std::uint64_t k = 0; k < 4; ++k) {
    const auto req =
        make_request("basic-" + std::to_string(k), 2, 100 + k);
    const auto resp = client.screen(req);
    ASSERT_TRUE(resp.has_value()) << resp.status().to_string();
    EXPECT_EQ(resp->code, util::ErrorCode::kOk);
    EXPECT_EQ(resp->id, req.id);
    EXPECT_EQ(resp->scores, reference_scores(req));
  }

  EXPECT_TRUE(harness.stop().ok());
  EXPECT_EQ(harness.stats().completed, 4u);
  EXPECT_EQ(harness.stats().protocol_errors, 0u);
}

TEST(ServiceE2E, DuplicateIdIsServedFromTheJournalCache) {
  const auto cfg = base_config("dup");
  ServerHarness harness(cfg);
  ASSERT_TRUE(harness.started()) << harness.create_status().to_string();
  ScreenClient client(client_config(cfg));
  ASSERT_TRUE(client.wait_ready().ok());

  const auto req = make_request("dup-1", 3, 55);
  const auto first = client.screen(req);
  ASSERT_TRUE(first.has_value()) << first.status().to_string();
  const auto second = client.screen(req);  // same idempotency id
  ASSERT_TRUE(second.has_value()) << second.status().to_string();
  EXPECT_EQ(first->scores, second->scores);

  EXPECT_TRUE(harness.stop().ok());
  EXPECT_EQ(harness.stats().completed, 1u);   // computed exactly once
  EXPECT_GE(harness.stats().cache_hits, 1u);  // the retry hit the journal
}

TEST(ServiceE2E, QuotaRejectionIsTypedWithARetryHint) {
  auto cfg = base_config("quota");
  cfg.admission.tenant_quota_pairs = 4;
  ServerHarness harness(cfg);
  ASSERT_TRUE(harness.started()) << harness.create_status().to_string();
  ScreenClient probe(client_config(cfg));
  ASSERT_TRUE(probe.wait_ready().ok());

  const auto resp =
      raw_exchange(cfg.socket_path, make_request("too-big", 8, 7));
  ASSERT_TRUE(resp.has_value()) << resp.status().to_string();
  EXPECT_EQ(resp->code, util::ErrorCode::kQuotaExceeded);
  EXPECT_GT(resp->retry_after_ms, 0.0);
  EXPECT_TRUE(resp->scores.empty());

  EXPECT_TRUE(harness.stop().ok());
  EXPECT_EQ(harness.stats().rejected_quota, 1u);
  EXPECT_EQ(harness.stats().completed, 0u);
}

TEST(ServiceE2E, PinnedSchemeFingerprintIsEnforced) {
  // The daemon scores with an affine scheme; a client that pins the
  // matching fingerprint is served, one that pins a different scheme's
  // fingerprint gets a typed rejection instead of silently-wrong scores,
  // and an unpinned legacy client is served as before.
  auto cfg = base_config("schemepin");
  sw::ScoringScheme affine;
  affine.gap_model = sw::GapModel::kAffine;
  affine.gap_open = 3;
  affine.gap_extend = 1;
  cfg.scheme = affine;
  ServerHarness harness(cfg);
  ASSERT_TRUE(harness.started()) << harness.create_status().to_string();
  ScreenClient probe(client_config(cfg));
  ASSERT_TRUE(probe.wait_ready().ok());

  auto pinned = make_request("pin-ok", 2, 91);
  pinned.scheme_fingerprint = sw::fingerprint_scheme(affine);
  const auto ok = raw_exchange(cfg.socket_path, pinned);
  ASSERT_TRUE(ok.has_value()) << ok.status().to_string();
  EXPECT_EQ(ok->code, util::ErrorCode::kOk);
  ASSERT_EQ(ok->scores.size(), 2u);
  for (std::size_t k = 0; k < pinned.xs.size(); ++k)
    EXPECT_EQ(ok->scores[k],
              sw::scheme_max_score(pinned.xs[k], pinned.ys[k], affine));

  auto mismatched = make_request("pin-bad", 2, 92);
  mismatched.scheme_fingerprint =
      sw::fingerprint_scheme(sw::ScoringScheme::from_params(kParams));
  const auto rejected = raw_exchange(cfg.socket_path, mismatched);
  ASSERT_TRUE(rejected.has_value()) << rejected.status().to_string();
  EXPECT_EQ(rejected->code, util::ErrorCode::kInvalidInput);
  EXPECT_NE(rejected->message.find("fingerprint"), std::string::npos);
  EXPECT_TRUE(rejected->scores.empty());

  const auto unpinned =
      raw_exchange(cfg.socket_path, make_request("pin-none", 2, 93));
  ASSERT_TRUE(unpinned.has_value()) << unpinned.status().to_string();
  EXPECT_EQ(unpinned->code, util::ErrorCode::kOk);

  EXPECT_TRUE(harness.stop().ok());
  EXPECT_EQ(harness.stats().rejected_scheme, 1u);
  EXPECT_EQ(harness.stats().completed, 2u);
}

TEST(ServiceE2E, UnhonourableHintDoesNotFailACoBatchedTenant) {
  // Hint 4 named the retired wordwise-naive engine, which never scored
  // affine schemes. Hints are advisory, so one tenant's retired hint must
  // count as unhinted rather than fail the whole batch — including the
  // other tenant's request packed beside it. A two-request lane group
  // with a linger that never expires forces both requests into one batch.
  auto cfg = base_config("hintmix");
  sw::ScoringScheme affine;
  affine.gap_model = sw::GapModel::kAffine;
  affine.gap_open = 3;
  affine.gap_extend = 1;
  cfg.scheme = affine;
  cfg.lane_group = 4;
  cfg.linger_ms = 1e6;
  ServerHarness harness(cfg);
  ASSERT_TRUE(harness.started()) << harness.create_status().to_string();
  ScreenClient probe(client_config(cfg));
  ASSERT_TRUE(probe.wait_ready().ok());

  auto hinted = make_request("hint-naive", 2, 94);
  hinted.tenant = "tenant-hinted";
  hinted.backend_hint = 4;  // the encoder writes it; the daemon retires it
  auto unhinted = make_request("hint-none", 2, 95);
  unhinted.tenant = "tenant-plain";

  util::Expected<ScreenResponse> hinted_resp =
      util::Status::internal("not run");
  std::thread sender(
      [&] { hinted_resp = raw_exchange(cfg.socket_path, hinted); });
  util::Expected<ScreenResponse> unhinted_resp =
      raw_exchange(cfg.socket_path, unhinted);
  sender.join();

  for (const auto* exchange : {&hinted_resp, &unhinted_resp}) {
    ASSERT_TRUE(exchange->has_value()) << exchange->status().to_string();
    const ScreenResponse& resp = **exchange;
    EXPECT_EQ(resp.code, util::ErrorCode::kOk) << resp.id << ": "
                                               << resp.message;
    const ScreenRequest& req = resp.id == hinted.id ? hinted : unhinted;
    ASSERT_EQ(resp.scores.size(), req.xs.size()) << resp.id;
    for (std::size_t k = 0; k < req.xs.size(); ++k)
      EXPECT_EQ(resp.scores[k],
                sw::scheme_max_score(req.xs[k], req.ys[k], affine))
          << resp.id << " pair " << k;
  }

  EXPECT_TRUE(harness.stop().ok());
  EXPECT_EQ(harness.stats().batches, 1u);
  EXPECT_EQ(harness.stats().completed, 2u);
}

TEST(ServiceE2E, ClientGivesUpTypedAfterRetryExhaustion) {
  auto cfg = base_config("exhaust");
  cfg.admission.tenant_quota_pairs = 4;
  ServerHarness harness(cfg);
  ASSERT_TRUE(harness.started()) << harness.create_status().to_string();
  auto ccfg = client_config(cfg);
  ccfg.backoff.max_attempts = 3;
  ScreenClient client(ccfg);
  ASSERT_TRUE(client.wait_ready().ok());

  const auto resp = client.screen(make_request("too-big", 8, 7));
  ASSERT_FALSE(resp.has_value());
  EXPECT_EQ(resp.status().code(), util::ErrorCode::kRetryExhausted);
  EXPECT_GE(client.counters().quota_rejections, 1u);
  EXPECT_GE(client.counters().backoff_sleeps, 1u);
  EXPECT_TRUE(harness.stop().ok());
}

TEST(ServiceE2E, ExpiredDeadlineBudgetIsShedNotScoredLate) {
  auto cfg = base_config("deadline");
  cfg.lane_group = 64;     // never fills from one tiny request
  cfg.linger_ms = 1e6;     // and the linger never flushes it
  ServerHarness harness(cfg);
  ASSERT_TRUE(harness.started()) << harness.create_status().to_string();
  ScreenClient client(client_config(cfg));
  ASSERT_TRUE(client.wait_ready().ok());

  auto req = make_request("impatient", 2, 9);
  req.deadline_budget_ms = 0.01;  // expires while queued
  const auto resp = client.screen(req);
  ASSERT_TRUE(resp.has_value()) << resp.status().to_string();
  EXPECT_EQ(resp->code, util::ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(resp->scores.empty());

  EXPECT_TRUE(harness.stop().ok());
  EXPECT_EQ(harness.stats().shed_deadline, 1u);
  EXPECT_EQ(harness.stats().completed, 0u);
}

TEST(ServiceE2E, RestartRecoversCompletedResponsesFromTheJournal) {
  const auto cfg = base_config("restart");
  const auto req = make_request("persist-1", 2, 31);
  std::vector<std::uint32_t> first_scores;
  {
    ServerHarness harness(cfg);
    ASSERT_TRUE(harness.started()) << harness.create_status().to_string();
    ScreenClient client(client_config(cfg));
    ASSERT_TRUE(client.wait_ready().ok());
    const auto resp = client.screen(req);
    ASSERT_TRUE(resp.has_value()) << resp.status().to_string();
    first_scores = resp->scores;
    EXPECT_TRUE(harness.stop().ok());
  }

  // Same journal, fresh process (as far as the daemon can tell): the
  // completed response replays into the cache and the retried id is
  // served without recomputation.
  ServerHarness harness(cfg);
  ASSERT_TRUE(harness.started()) << harness.create_status().to_string();
  ScreenClient client(client_config(cfg));
  ASSERT_TRUE(client.wait_ready().ok());
  const auto resp = client.screen(req);
  ASSERT_TRUE(resp.has_value()) << resp.status().to_string();
  EXPECT_EQ(resp->scores, first_scores);
  EXPECT_EQ(resp->scores, reference_scores(req));

  EXPECT_TRUE(harness.stop().ok());
  EXPECT_GE(harness.stats().recovered_completed, 1u);
  EXPECT_GE(harness.stats().cache_hits, 1u);
  EXPECT_EQ(harness.stats().completed, 0u);  // nothing recomputed
}

TEST(ServiceE2E, ReadinessProbeIsAnsweredOnItsFirstAttempt) {
  // create() binds and listens before it returns, so a probe that
  // connects before run() starts waits in the listen backlog and is
  // answered as soon as run() polls: wait_ready() never backs off, and
  // the restart-to-ready time it measures is not quantized by backoff.
  auto cfg = base_config("ready");
  util::CancellationToken stop;
  cfg.stop = &stop;
  auto server = ScreenServer::create(cfg);
  ASSERT_TRUE(server.has_value()) << server.status().to_string();
  util::Status run_status;
  std::thread serving([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    run_status = server->run();
  });
  ScreenClient probe(client_config(cfg));
  const util::Status ready = probe.wait_ready();
  stop.cancel();
  serving.join();
  EXPECT_TRUE(ready.ok()) << ready.to_string();
  EXPECT_TRUE(run_status.ok()) << run_status.to_string();
  EXPECT_EQ(probe.counters().attempts, 1u);
  EXPECT_EQ(probe.counters().backoff_sleeps, 0u);
}

TEST(ServiceE2E, RestartRefusesAJournalFromOtherScoringRules) {
  auto cfg = base_config("rules");
  {
    ServerHarness harness(cfg);
    ASSERT_TRUE(harness.started()) << harness.create_status().to_string();
    ScreenClient client(client_config(cfg));
    ASSERT_TRUE(client.wait_ready().ok());
    ASSERT_TRUE(client.screen(make_request("r", 2, 1)).has_value());
    EXPECT_TRUE(harness.stop().ok());
  }
  cfg.params.match = 3;  // different scoring rules, same journal
  auto created = ScreenServer::create(cfg);
  ASSERT_FALSE(created.has_value());
  EXPECT_EQ(created.status().code(),
            util::ErrorCode::kCheckpointMismatch);
}

TEST(ServiceE2E, CreateRejectsZeroMatchOrGapParams) {
  // create() lifts params into the serving scheme and validates it there,
  // naming the params field: a zero gap or match never serves a request
  // (with or without the device engine).
  const std::pair<sw::ScoreParams, const char*> cases[] = {
      {sw::ScoreParams{2, 1, 0}, "config.params.gap"},
      {sw::ScoreParams{0, 1, 1}, "config.params.match"}};
  for (const auto& [params, field] : cases) {
    for (const bool use_engine : {false, true}) {
      ServerConfig cfg = base_config("zero_params");
      cfg.params = params;
      cfg.use_engine = use_engine;
      auto created = ScreenServer::create(std::move(cfg));
      ASSERT_FALSE(created.has_value()) << field;
      EXPECT_EQ(created.status().code(), util::ErrorCode::kInvalidInput);
      EXPECT_NE(created.status().message().find(field), std::string::npos)
          << created.status().to_string();
    }
  }
}

TEST(ServiceE2E, FaultInjectedTransportStillConvergesBitIdentical) {
  auto cfg = base_config("faults");
  cfg.faults.seed = 42;
  cfg.faults.tear_probability = 0.2;
  cfg.faults.flip_probability = 0.2;
  cfg.faults.disconnect_probability = 0.15;
  cfg.faults.stall_probability = 0.1;
  cfg.faults.stall_ms = 1.0;
  ServerHarness harness(cfg);
  ASSERT_TRUE(harness.started()) << harness.create_status().to_string();
  ScreenClient client(client_config(cfg));
  ASSERT_TRUE(client.wait_ready().ok());

  for (std::uint64_t k = 0; k < 8; ++k) {
    const auto req = make_request("fault-" + std::to_string(k), 2, 500 + k);
    const auto resp = client.screen(req);
    ASSERT_TRUE(resp.has_value()) << resp.status().to_string();
    EXPECT_EQ(resp->code, util::ErrorCode::kOk);
    EXPECT_EQ(resp->scores, reference_scores(req));
  }

  EXPECT_TRUE(harness.stop().ok());
  // The drill is only evidence if faults actually fired and the client
  // actually recovered through them.
  EXPECT_GT(harness.stats().faults.total(), 0u);
  EXPECT_GT(client.counters().transport_faults +
                client.counters().backoff_sleeps,
            0u);
}

TEST(ServiceE2E, MalformedPayloadGetsTypedResponseNotSilence) {
  const auto cfg = base_config("malformed");
  ServerHarness harness(cfg);
  ASSERT_TRUE(harness.started()) << harness.create_status().to_string();
  ScreenClient probe(client_config(cfg));
  ASSERT_TRUE(probe.wait_ready().ok());

  // A checksum-valid frame whose payload is not a ScreenRequest.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(cfg.socket_path.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, cfg.socket_path.c_str(),
              cfg.socket_path.size() + 1);
  util::UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  ASSERT_TRUE(fd.valid());
  ASSERT_EQ(::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::vector<std::uint8_t> junk = {1, 2, 3};
  ASSERT_TRUE(write_frame(fd.get(), FrameType::kScreenRequest, junk).ok());
  auto frame = read_frame(fd.get());
  ASSERT_TRUE(frame.has_value()) << frame.status().to_string();
  ASSERT_TRUE(frame->has_value());
  const auto resp = decode_response((*frame)->payload);
  ASSERT_TRUE(resp.has_value()) << resp.status().to_string();
  EXPECT_EQ(resp->code, util::ErrorCode::kInvalidInput);

  EXPECT_TRUE(harness.stop().ok());
  EXPECT_GE(harness.stats().protocol_errors, 1u);
}

}  // namespace
}  // namespace swbpbc::service
