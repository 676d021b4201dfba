#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "device/fault.hpp"
#include "device/launch.hpp"
#include "device/metrics.hpp"
#include "device/engine.hpp"
#include "encoding/random.hpp"
#include "engine_run.hpp"
#include "sw/wordwise.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace swbpbc::device {
namespace {

constexpr sw::ScoreParams kParams{2, 1, 1};
const sw::ScoringScheme kScheme;  // 2/1/1 linear

struct Batch {
  std::vector<encoding::Sequence> xs;
  std::vector<encoding::Sequence> ys;
};

Batch make_batch(std::uint64_t seed, std::size_t count, std::size_t m,
                 std::size_t n) {
  util::Xoshiro256 rng(seed);
  return {encoding::random_sequences(rng, count, m),
          encoding::random_sequences(rng, count, n)};
}

EngineOptions serial_options() {
  return testing::engine_options(kScheme, sw::LaneWidth::k32,
                                 bulk::Mode::kSerial);
}

using testing::run_stages;

TEST(FaultInjector, ZeroConfigMatchesCleanRun) {
  const Batch b = make_batch(1, 40, 8, 20);
  const auto clean = run_stages(b.xs, b.ys, serial_options());

  FaultInjector injector{FaultConfig{}};  // all probabilities zero
  EngineOptions opt = serial_options();
  opt.faults = &injector;
  const auto faulty = run_stages(b.xs, b.ys, opt);

  EXPECT_EQ(clean.scores, faulty.scores);
  EXPECT_TRUE(faulty.status.ok());
  EXPECT_EQ(injector.log().total(), 0u);
}

TEST(FaultInjector, SameSeedSameFaultsSameScores) {
  const Batch b = make_batch(2, 64, 8, 16);
  FaultConfig config;
  config.seed = 99;
  config.flip_probability = 0.01;
  config.drop_sync_probability = 0.2;

  std::vector<std::uint32_t> scores[2];
  FaultLog logs[2];
  for (int run = 0; run < 2; ++run) {
    FaultInjector injector(config);
    EngineOptions opt = serial_options();
    opt.faults = &injector;
    scores[run] = run_stages(b.xs, b.ys, opt).scores;
    logs[run] = injector.log();
  }
  EXPECT_EQ(scores[0], scores[1]);
  EXPECT_EQ(logs[0].bit_flips, logs[1].bit_flips);
  EXPECT_EQ(logs[0].syncs_dropped, logs[1].syncs_dropped);
  EXPECT_EQ(logs[0].watchdog_trips, logs[1].watchdog_trips);
}

TEST(FaultInjector, RetryCampaignsDiffer) {
  // The same injector must not replay identical faults on a retry: the
  // attempt tag advances, and the campaign derives from it, giving
  // recovery a fresh draw.
  const Batch b = make_batch(3, 32, 8, 16);
  FaultConfig config;
  config.seed = 7;
  config.flip_probability = 0.02;
  FaultInjector injector(config);
  EngineOptions opt = serial_options();
  opt.faults = &injector;

  const auto first = run_stages(b.xs, b.ys, opt, /*attempt=*/0).scores;
  const std::uint64_t flips_first = injector.log().bit_flips;
  const auto second = run_stages(b.xs, b.ys, opt, /*attempt=*/1).scores;
  const std::uint64_t flips_second =
      injector.log().bit_flips - flips_first;
  // Both runs saw flips, but not the same fault pattern (different scores
  // or different flip counts; with p = 2% collisions are implausible).
  EXPECT_GT(flips_first, 0u);
  EXPECT_GT(flips_second, 0u);
  EXPECT_TRUE(first != second || flips_first != flips_second);
}

TEST(FaultInjector, BitFlipsCorruptScoresAndAreLogged) {
  const Batch b = make_batch(4, 64, 10, 24);
  const auto clean = run_stages(b.xs, b.ys, serial_options());

  FaultConfig config;
  config.seed = 11;
  config.flip_probability = 0.02;
  FaultInjector injector(config);
  EngineOptions opt = serial_options();
  opt.faults = &injector;
  const auto faulty = run_stages(b.xs, b.ys, opt);

  EXPECT_GT(injector.log().bit_flips, 0u);
  EXPECT_NE(clean.scores, faulty.scores);
}

TEST(FaultInjector, DroppedSyncIsLoggedOncePerBlock) {
  const Batch b = make_batch(5, 64, 8, 16);
  FaultConfig config;
  config.seed = 13;
  config.drop_sync_probability = 1.0;
  FaultInjector injector(config);
  EngineOptions opt = serial_options();
  opt.faults = &injector;
  run_stages(b.xs, b.ys, opt);
  // Only the SWA kernel issues shared-memory stores; with p = 1 each of
  // its blocks loses exactly one phase's stores, counted once per block.
  const std::size_t n_groups = (64 + 31) / 32;
  EXPECT_EQ(injector.log().syncs_dropped, n_groups);
}

TEST(FaultInjector, WatchdogKillsStalledBlocks) {
  const std::size_t count = 64, m = 8, n = 16;
  const Batch b = make_batch(6, count, m, n);
  FaultConfig config;
  config.seed = 17;
  config.stall_probability = 1.0;
  FaultInjector injector(config);
  EngineOptions opt = serial_options();
  opt.faults = &injector;
  opt.watchdog_phases = m + n + 8;  // SWA needs m+n-1; stall adds 2^20
  const auto result = run_stages(b.xs, b.ys, opt);

  const std::size_t n_groups = (count + 31) / 32;
  EXPECT_EQ(injector.log().watchdog_trips, n_groups);
  EXPECT_EQ(result.status.code(), util::ErrorCode::kKernelTimeout);
  // Each kill is a kSWA finding, integrity checks off or on.
  EXPECT_EQ(result.integrity_faults.size(), n_groups);
  // Killed blocks never wrote their score slices: every lane reads zero.
  for (std::uint32_t s : result.scores) EXPECT_EQ(s, 0u);
}

TEST(FaultInjector, WatchdogWithoutInjectorThrowsTyped) {
  const Batch b = make_batch(7, 8, 8, 16);
  EngineOptions opt = serial_options();
  opt.watchdog_phases = 2;  // SWA legitimately needs m+n-1 = 23 phases
  try {
    run_stages(b.xs, b.ys, opt);
    FAIL() << "expected StatusError";
  } catch (const util::StatusError& e) {
    EXPECT_EQ(e.status().code(), util::ErrorCode::kKernelTimeout);
  }
}

// Regression for the watchdog-timeout ergonomics: when exactly ONE block
// trips the watchdog (no injector attached), the parallel launch must
// surface a single clean StatusError(kKernelTimeout) naming that block —
// never an AggregateError bundling the surviving blocks' unwinds.
TEST(FaultInjector, SingleWatchdogTripIsOneCleanParallelError) {
  struct PhaseKernel {
    std::size_t phases;
    [[nodiscard]] unsigned block_dim() const { return 1; }
    [[nodiscard]] std::size_t num_phases() const { return phases; }
    void step(std::size_t, unsigned) {}
  };
  for (int round = 0; round < 20; ++round) {
    LaunchConfig cfg;
    cfg.grid_dim = 16;
    cfg.mode = bulk::Mode::kParallel;
    cfg.watchdog_phases = 8;
    bool caught = false;
    try {
      launch(cfg, [](std::size_t b, BlockRecorder&) {
        return PhaseKernel{b == 5 ? std::size_t{64} : std::size_t{4}};
      });
    } catch (const util::AggregateError& e) {
      FAIL() << "single watchdog trip wrapped in AggregateError: "
             << e.what();
    } catch (const util::StatusError& e) {
      caught = true;
      EXPECT_EQ(e.status().code(), util::ErrorCode::kKernelTimeout);
      EXPECT_NE(e.status().message().find("block 5"), std::string::npos);
    }
    EXPECT_TRUE(caught) << "round " << round;
  }
}

TEST(FaultInjector, WordwiseBaselineAlsoInjectable) {
  const Batch b = make_batch(8, 24, 8, 16);
  FaultConfig config;
  config.seed = 23;
  config.flip_probability = 0.05;
  FaultInjector injector(config);
  EngineOptions opt = serial_options();
  opt.faults = &injector;
  const auto faulty = testing::run_wordwise(b.xs, b.ys, opt);
  const auto clean =
      sw::wordwise_max_scores(b.xs, b.ys, kParams, bulk::Mode::kSerial);
  EXPECT_GT(injector.log().bit_flips, 0u);
  EXPECT_NE(clean, faulty.scores);
}

}  // namespace
}  // namespace swbpbc::device
