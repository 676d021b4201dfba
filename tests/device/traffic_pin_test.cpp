// Pins the device simulator's memory traffic and scores for one seeded
// batch: every per-stage MetricTotals field of gpu_bpbc_max_scores, plus an
// FNV-1a fingerprint of the scores, at 32- and 64-bit lanes. The constants
// were recorded from the one-shot driver that sequenced H2G..G2H itself,
// before that path became a call into the PipelineEngine core, so any
// drift in the stage kernels, buffer layout or copy accounting shows here.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "device/sw_kernels.hpp"
#include "encoding/random.hpp"
#include "util/checksum.hpp"
#include "util/status.hpp"

namespace swbpbc::device {
namespace {

const sw::ScoringScheme kScheme;  // 2/1/1 linear
constexpr std::size_t kCount = 100, kM = 12, kN = 40;

// {global_reads, global_writes, global_read_transactions,
//  global_write_transactions, shared_accesses, shared_bank_conflicts}
using Fields = std::array<std::uint64_t, 6>;

struct Pinned {
  sw::LaneWidth width;
  std::array<Fields, sw::kNumPipelineStages> stages;  // H2G..G2H
  std::uint64_t scores_fnv;
};

Fields fields_of(const MetricTotals& t) {
  return {t.global_reads,
          t.global_writes,
          t.global_read_transactions,
          t.global_write_transactions,
          t.shared_accesses,
          t.shared_bank_conflicts};
}

void expect_pinned(const Pinned& want) {
  util::Xoshiro256 rng(0x7AFF1C);
  const std::vector<encoding::Sequence> xs =
      encoding::random_sequences(rng, kCount, kM);
  const std::vector<encoding::Sequence> ys =
      encoding::random_sequences(rng, kCount, kN);
  GpuRunOptions opt;
  opt.record_metrics = true;
  opt.mode = bulk::Mode::kSerial;
  const GpuRunResult run =
      gpu_bpbc_max_scores(xs, ys, kScheme, want.width, opt);

  ASSERT_EQ(run.scores.size(), kCount);
  EXPECT_TRUE(run.status.ok());
  EXPECT_EQ(util::fnv1a_span<std::uint32_t>(run.scores), want.scores_fnv);
  for (std::size_t i = 0; i < sw::kNumPipelineStages; ++i) {
    const auto stage = static_cast<sw::PipelineStage>(i);
    EXPECT_EQ(fields_of(run.stage_metrics[stage]), want.stages[i])
        << "stage " << sw::stage_name(stage);
  }
}

TEST(TrafficPin, Lanes32) {
  expect_pinned({sw::LaneWidth::k32,
                 {{Fields{0, 5200, 0, 163, 0, 0},
                   Fields{5200, 416, 288, 34, 0, 0},
                   Fields{3936, 20, 592, 4, 18840, 12864},
                   Fields{20, 100, 4, 4, 0, 0},
                   Fields{100, 0, 4, 0, 0, 0}}},
                 1060763920316967637ULL});
}

TEST(TrafficPin, Lanes64) {
  expect_pinned({sw::LaneWidth::k64,
                 {{Fields{0, 5200, 0, 163, 0, 0},
                   Fields{5200, 208, 288, 22, 0, 0},
                   Fields{1968, 10, 340, 2, 18840, 15672},
                   Fields{10, 100, 2, 4, 0, 0},
                   Fields{100, 0, 4, 0, 0, 0}}},
                 1060763920316967637ULL});
}

// The one-shot driver draws one fault campaign per call from the
// injector's counter. Two back-to-back faulty runs with full integrity
// checking pin that call-order contract: the scores, the findings and the
// injector's log of both campaigns.
TEST(TrafficPin, CallOrderFaultCampaigns) {
  util::Xoshiro256 rng(0x7AFF1C);
  const std::vector<encoding::Sequence> xs =
      encoding::random_sequences(rng, kCount, kM);
  const std::vector<encoding::Sequence> ys =
      encoding::random_sequences(rng, kCount, kN);
  FaultConfig fc;
  fc.seed = 5;
  fc.flip_probability = 0.01;
  fc.drop_sync_probability = 0.1;
  fc.stall_probability = 0.3;
  fc.copy_flip_probability = 0.005;
  FaultInjector injector(fc);
  GpuRunOptions opt;
  opt.mode = bulk::Mode::kSerial;
  opt.faults = &injector;
  opt.watchdog_phases = kM + kN + 8;
  opt.integrity.enabled = true;
  opt.integrity.sample_every = 4;

  using Finding = std::pair<sw::PipelineStage, std::size_t>;
  constexpr std::size_t kNoBlock = sw::StageFault::kNoBlock;
  struct Campaign {
    std::uint64_t scores_fnv;
    std::vector<Finding> findings;
    FaultLog log;  // cumulative after the run
  };
  const Campaign want[2] = {
      {17450565883635514334ULL,
       {{sw::PipelineStage::kH2G, kNoBlock},
        {sw::PipelineStage::kW2B, 2},
        {sw::PipelineStage::kSWA, 3}},
       {177, 0, 1}},
      {14384645714397508906ULL,
       {{sw::PipelineStage::kH2G, kNoBlock},
        {sw::PipelineStage::kSWA, 3},
        {sw::PipelineStage::kSWA, 0},
        {sw::PipelineStage::kSWA, 1},
        {sw::PipelineStage::kSWA, 2}},
       {321, 0, 4}},
  };
  for (const Campaign& c : want) {
    const GpuRunResult r =
        gpu_bpbc_max_scores(xs, ys, kScheme, sw::LaneWidth::k32, opt);
    EXPECT_EQ(util::fnv1a_span<std::uint32_t>(r.scores), c.scores_fnv);
    EXPECT_EQ(r.status.code(), util::ErrorCode::kKernelTimeout);
    EXPECT_EQ(r.integrity_checks, 86u);
    std::vector<Finding> findings;
    for (const sw::StageFault& f : r.integrity_faults)
      findings.emplace_back(f.stage, f.block);
    EXPECT_EQ(findings, c.findings);
    const FaultLog log = injector.log();
    EXPECT_EQ(log.bit_flips, c.log.bit_flips);
    EXPECT_EQ(log.syncs_dropped, c.log.syncs_dropped);
    EXPECT_EQ(log.watchdog_trips, c.log.watchdog_trips);
  }
}

}  // namespace
}  // namespace swbpbc::device
