#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "device/engine.hpp"
#include "device/fault.hpp"
#include "encoding/random.hpp"
#include "sw/pipeline.hpp"
#include "sw/scalar.hpp"
#include "sw/scheme_aligner.hpp"
#include "util/status.hpp"
#include "fn_backend.hpp"

namespace swbpbc::sw {
namespace {

using encoding::Sequence;
using test_support::scores_backend;

constexpr ScoreParams kParams{2, 1, 1};
const ScoringScheme kScheme;  // 2/1/1 linear

struct Batch {
  std::vector<Sequence> xs;
  std::vector<Sequence> ys;
};

Batch make_batch(std::uint64_t seed, std::size_t count, std::size_t m,
                 std::size_t n) {
  util::Xoshiro256 rng(seed);
  return {encoding::random_sequences(rng, count, m),
          encoding::random_sequences(rng, count, n)};
}

std::vector<std::uint32_t> scalar_refs(const Batch& b,
                                       const ScoreParams& params) {
  std::vector<std::uint32_t> refs;
  refs.reserve(b.xs.size());
  for (std::size_t k = 0; k < b.xs.size(); ++k)
    refs.push_back(max_score(b.xs[k], b.ys[k], params));
  return refs;
}

// --- batch precondition validation -------------------------------------

TEST(ScreenValidation, EmptyBatchIsTypedError) {
  ScreenConfig cfg;
  cfg.params = kParams;
  const auto result = try_screen({}, {}, cfg);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), util::ErrorCode::kInvalidInput);
}

TEST(ScreenValidation, CountMismatchIsTypedError) {
  const Batch b = make_batch(1, 4, 8, 8);
  ScreenConfig cfg;
  cfg.params = kParams;
  const auto result =
      try_screen(b.xs, std::span<const Sequence>(b.ys).first(3), cfg);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), util::ErrorCode::kInvalidInput);
  EXPECT_NE(result.status().message().find("mismatch"), std::string::npos);
}

TEST(ScreenValidation, NonUniformLengthNamesOffendingIndex) {
  Batch b = make_batch(2, 5, 8, 8);
  util::Xoshiro256 rng(3);
  b.xs[3] = encoding::random_sequence(rng, 9);
  ScreenConfig cfg;
  cfg.params = kParams;
  const auto result = try_screen(b.xs, b.ys, cfg);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), util::ErrorCode::kInvalidInput);
  EXPECT_NE(result.status().message().find("xs[3]"), std::string::npos);
}

TEST(ScreenValidation, ThrowingWrapperThrowsStatusError) {
  ScreenConfig cfg;
  cfg.params = kParams;
  try {
    screen({}, {}, cfg);
    FAIL() << "expected StatusError";
  } catch (const util::StatusError& e) {
    EXPECT_EQ(e.status().code(), util::ErrorCode::kInvalidInput);
  }
}

TEST(TryBpbc, NonUniformTextsAreTypedError) {
  Batch b = make_batch(4, 5, 8, 12);
  util::Xoshiro256 rng(5);
  b.ys[2] = encoding::random_sequence(rng, 7);
  const auto result = try_scheme_max_scores(b.xs, b.ys, kScheme);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.status().code(), util::ErrorCode::kInvalidInput);
  EXPECT_NE(result.status().message().find("[2]"), std::string::npos);
}

// --- self-check on a healthy pipeline ----------------------------------

TEST(SelfCheck, CleanRunDetectsNothing) {
  const Batch b = make_batch(6, 40, 8, 16);
  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 10;
  cfg.check.enabled = true;
  cfg.check.sample_every = 1;
  const ScreenReport report = screen(b.xs, b.ys, cfg);

  EXPECT_EQ(report.reliability.lanes_verified, 40u);
  EXPECT_EQ(report.reliability.mismatches_detected, 0u);
  EXPECT_EQ(report.reliability.retry_attempts, 0u);
  EXPECT_TRUE(report.reliability.balanced());
  EXPECT_EQ(report.scores, scalar_refs(b, kParams));
}

// --- recovery behavior with deliberately broken backends ----------------

TEST(SelfCheck, PersistentlyWrongBackendFallsBackToWordwise) {
  const Batch b = make_batch(7, 12, 8, 16);
  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 1000;  // no hits: exercise the sampled-lane path alone
  cfg.check.enabled = true;
  cfg.check.sample_every = 1;
  cfg.check.max_retries = 2;
  // A backend that is always off by one: every retry fails, so every lane
  // must be settled by the wordwise CPU fallback.
  auto backend = scores_backend([](std::span<const Sequence> xs,
                                   std::span<const Sequence> ys) {
    std::vector<std::uint32_t> scores;
    for (std::size_t k = 0; k < xs.size(); ++k)
      scores.push_back(max_score(xs[k], ys[k], kParams) + 1);
    return scores;
  });
  cfg.backend = &backend;
  const ScreenReport report = screen(b.xs, b.ys, cfg);

  const auto& rel = report.reliability;
  EXPECT_EQ(rel.mismatches_detected, 12u);
  EXPECT_EQ(rel.lanes_quarantined, 12u);
  EXPECT_EQ(rel.retry_attempts, 2u);
  EXPECT_EQ(rel.lanes_recovered, 0u);
  EXPECT_EQ(rel.lanes_fell_back, 12u);
  EXPECT_TRUE(rel.balanced());
  EXPECT_EQ(report.scores, scalar_refs(b, kParams));
}

TEST(SelfCheck, TransientFaultRecoveredByRetry) {
  const Batch b = make_batch(8, 16, 8, 16);
  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = 1000;
  cfg.check.enabled = true;
  cfg.check.sample_every = 1;
  cfg.check.max_retries = 3;
  // First call corrupts lane 0; every later (quarantine) call is clean —
  // a transient fault that one retry fixes.
  auto calls = std::make_shared<int>(0);
  auto backend = scores_backend([calls](std::span<const Sequence> xs,
                                        std::span<const Sequence> ys) {
    std::vector<std::uint32_t> scores;
    for (std::size_t k = 0; k < xs.size(); ++k)
      scores.push_back(max_score(xs[k], ys[k], kParams));
    if ((*calls)++ == 0 && !scores.empty()) scores[0] += 100;
    return scores;
  });
  cfg.backend = &backend;
  const ScreenReport report = screen(b.xs, b.ys, cfg);

  const auto& rel = report.reliability;
  EXPECT_EQ(rel.mismatches_detected, 1u);
  EXPECT_EQ(rel.retry_attempts, 1u);
  EXPECT_EQ(rel.lanes_recovered, 1u);
  EXPECT_EQ(rel.lanes_fell_back, 0u);
  EXPECT_TRUE(rel.balanced());
  EXPECT_EQ(report.scores, scalar_refs(b, kParams));
}

TEST(SelfCheck, FabricatedHitIsCaughtWithoutSampling) {
  // sample_every = 0: only apparent hits are verified. A backend that
  // inflates one lane past the threshold fabricates a hit; verification
  // must catch it and the corrected lane must not appear in hits.
  const Batch b = make_batch(9, 16, 8, 16);
  const std::vector<std::uint32_t> refs = scalar_refs(b, kParams);
  const std::uint32_t tau = *std::max_element(refs.begin(), refs.end()) + 5;

  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.threshold = tau;  // genuinely zero hits
  cfg.check.enabled = true;
  cfg.check.sample_every = 0;
  cfg.check.max_retries = 3;
  auto calls = std::make_shared<int>(0);
  auto backend = scores_backend([calls](std::span<const Sequence> xs,
                                        std::span<const Sequence> ys) {
    std::vector<std::uint32_t> scores;
    for (std::size_t k = 0; k < xs.size(); ++k)
      scores.push_back(max_score(xs[k], ys[k], kParams));
    if ((*calls)++ == 0 && scores.size() > 5) scores[5] += 1000;
    return scores;
  });
  cfg.backend = &backend;
  const ScreenReport report = screen(b.xs, b.ys, cfg);

  EXPECT_EQ(report.reliability.lanes_verified, 1u);  // just the fake hit
  EXPECT_EQ(report.reliability.mismatches_detected, 1u);
  EXPECT_EQ(report.reliability.lanes_recovered, 1u);
  EXPECT_TRUE(report.reliability.balanced());
  EXPECT_TRUE(report.hits.empty());
  EXPECT_EQ(report.scores, refs);
}

// --- the fault drill (ISSUE acceptance criterion) -----------------------
//
// >= 100 seeded campaigns drive the device PipelineEngine through the full
// fault model (bit flips in global and shared words, dropped phase syncs,
// block stalls past the watchdog). With sample_every = 1 the self-check verifies
// every lane, so the drill asserts total detection: after recovery every
// reported score equals the scalar reference and the ReliabilityReport
// accounts for every quarantined lane.
TEST(FaultDrill, HundredSeededCampaignsFullyRecovered) {
  constexpr std::size_t kCampaigns = 100;
  constexpr std::size_t kCount = 48, kM = 8, kN = 24;

  std::size_t campaigns_with_faults = 0;
  std::uint64_t total_mismatches = 0;
  for (std::size_t campaign = 0; campaign < kCampaigns; ++campaign) {
    const Batch b = make_batch(1000 + campaign, kCount, kM, kN);
    const std::vector<std::uint32_t> refs = scalar_refs(b, kParams);

    device::FaultConfig fault;
    fault.seed = 0xFEED0000 + campaign;
    fault.flip_probability = 1e-3;
    fault.drop_sync_probability = 0.05;
    fault.stall_probability = 0.05;
    device::FaultInjector injector(fault);

    device::EngineOptions eopts;
    eopts.scheme = kScheme;
    eopts.width = LaneWidth::k32;
    eopts.mode = bulk::Mode::kSerial;
    eopts.faults = &injector;
    eopts.watchdog_phases = kM + kN + 16;
    device::PipelineEngine engine(eopts);

    ScreenConfig cfg;
    cfg.params = kParams;
    cfg.threshold = 12;
    cfg.width = LaneWidth::k32;
    cfg.traceback = false;
    cfg.backend = &engine;
    cfg.check.enabled = true;
    cfg.check.sample_every = 1;  // verify every lane: total detection
    cfg.check.max_retries = 4;

    const ScreenReport report = screen(b.xs, b.ys, cfg);
    const auto& rel = report.reliability;

    ASSERT_EQ(report.scores, refs)
        << "campaign " << campaign << ": recovered scores diverge; "
        << rel.summary();
    ASSERT_TRUE(rel.balanced())
        << "campaign " << campaign << ": " << rel.summary();
    ASSERT_EQ(rel.lanes_verified, kCount);
    for (const ScreenHit& hit : report.hits)
      EXPECT_EQ(hit.bpbc_score, refs[hit.index]);

    if (injector.log().total() > 0) ++campaigns_with_faults;
    total_mismatches += rel.mismatches_detected;
  }
  // The fault model must actually bite for the drill to mean anything.
  EXPECT_GE(campaigns_with_faults, kCampaigns / 2);
  EXPECT_GT(total_mismatches, 0u);
}

}  // namespace
}  // namespace swbpbc::sw
