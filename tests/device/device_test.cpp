#include <gtest/gtest.h>

#include "device/launch.hpp"
#include "device/memory.hpp"
#include "device/sw_kernels.hpp"
#include "encoding/random.hpp"
#include "sw/scalar.hpp"

namespace swbpbc::device {
namespace {

// --- launch machinery -------------------------------------------------------

struct CountingKernel {
  std::vector<int>* cells;
  std::size_t block;
  unsigned dim;
  std::size_t phases;

  [[nodiscard]] unsigned block_dim() const { return dim; }
  [[nodiscard]] std::size_t num_phases() const { return phases; }
  void step(std::size_t, unsigned tid) {
    (*cells)[block * dim + tid] += 1;
  }
};

TEST(Launch, RunsEveryThreadEveryPhase) {
  std::vector<int> cells(4 * 8, 0);
  launch(LaunchConfig{4, false, bulk::Mode::kSerial},
         [&](std::size_t b, BlockRecorder&) {
           return CountingKernel{&cells, b, 8, 3};
         });
  for (int c : cells) EXPECT_EQ(c, 3);
}

struct BarrierKernel {
  // Verifies phase-boundary visibility: phase 0 writes, phase 1 reads.
  std::vector<std::uint32_t> shared;
  bool* ok;

  explicit BarrierKernel(bool* flag) : shared(32, 0), ok(flag) {}
  [[nodiscard]] unsigned block_dim() const { return 32; }
  [[nodiscard]] std::size_t num_phases() const { return 2; }
  void step(std::size_t phase, unsigned tid) {
    if (phase == 0) {
      shared[tid] = tid * 7u;
    } else {
      const unsigned neighbor = (tid + 1) % 32;
      if (shared[neighbor] != neighbor * 7u) *ok = false;
    }
  }
};

TEST(Launch, PhaseBoundaryActsAsBarrier) {
  bool ok = true;
  launch(LaunchConfig{1, false, bulk::Mode::kSerial},
         [&](std::size_t, BlockRecorder&) { return BarrierKernel(&ok); });
  EXPECT_TRUE(ok);
}

// --- metric machinery -------------------------------------------------------

TEST(Metrics, CoalescedWarpAccessIsOneTransaction) {
  BlockRecorder rec(true);
  // A full warp reading 32 consecutive 4-byte words = 128 bytes = 1 segment.
  for (unsigned tid = 0; tid < 32; ++tid) {
    rec.record_global_read(tid, tid * 4);
  }
  rec.end_phase();
  EXPECT_EQ(rec.totals().global_reads, 32u);
  EXPECT_EQ(rec.totals().global_read_transactions, 1u);
}

TEST(Metrics, StridedWarpAccessIsManyTransactions) {
  BlockRecorder rec(true);
  for (unsigned tid = 0; tid < 32; ++tid) {
    rec.record_global_read(tid, static_cast<std::uint64_t>(tid) * 4096);
  }
  rec.end_phase();
  EXPECT_EQ(rec.totals().global_read_transactions, 32u);
}

TEST(Metrics, SeparateWarpsDoNotCoalesceTogether) {
  BlockRecorder rec(true);
  rec.record_global_read(0, 0);
  rec.record_global_read(32, 0);  // second warp, same segment
  rec.end_phase();
  EXPECT_EQ(rec.totals().global_read_transactions, 2u);
}

TEST(Metrics, BankConflictsCounted) {
  BlockRecorder rec(true);
  // Two threads of one warp hitting bank 5 -> one conflict surplus.
  rec.record_shared(0, 5);
  rec.record_shared(1, 5);
  // Distinct banks -> no conflict.
  rec.record_shared(2, 6);
  rec.end_phase();
  EXPECT_EQ(rec.totals().shared_accesses, 3u);
  EXPECT_EQ(rec.totals().shared_bank_conflicts, 1u);
}

TEST(Metrics, DisabledRecorderStaysZero) {
  BlockRecorder rec(false);
  rec.record_global_read(0, 0);
  rec.record_shared(0, 0);
  rec.end_phase();
  EXPECT_EQ(rec.totals().global_reads, 0u);
  EXPECT_EQ(rec.totals().shared_accesses, 0u);
}

TEST(Metrics, SharedArrayReportsBanks) {
  BlockRecorder rec(true);
  SharedArray<std::uint64_t> arr(8, &rec);
  arr.store(0, 1, /*tid=*/0);  // 8-byte element -> banks 0 and 1
  rec.end_phase();
  EXPECT_EQ(rec.totals().shared_accesses, 2u);
}

// --- full pipelines ----------------------------------------------------------

class GpuPipeline : public ::testing::TestWithParam<sw::LaneWidth> {};

TEST_P(GpuPipeline, MatchesScalarReference) {
  util::Xoshiro256 rng(7001);
  const std::size_t count = 70, m = 9, n = 33;
  const auto xs = encoding::random_sequences(rng, count, m);
  const auto ys = encoding::random_sequences(rng, count, n);
  const sw::ScoringScheme scheme;  // 2/1/1 linear
  GpuRunOptions options;
  options.mode = bulk::Mode::kSerial;
  const GpuRunResult result =
      gpu_bpbc_max_scores(xs, ys, scheme, GetParam(), options);
  ASSERT_EQ(result.scores.size(), count);
  for (std::size_t k = 0; k < count; ++k) {
    EXPECT_EQ(result.scores[k], sw::scheme_max_score(xs[k], ys[k], scheme))
        << "instance " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(BothWidths, GpuPipeline,
                         ::testing::Values(sw::LaneWidth::k32,
                                           sw::LaneWidth::k64));

TEST(GpuPipelineMisc, WordwiseKernelMatchesScalar) {
  util::Xoshiro256 rng(7002);
  const std::size_t count = 17, m = 8, n = 21;
  const auto xs = encoding::random_sequences(rng, count, m);
  const auto ys = encoding::random_sequences(rng, count, n);
  const sw::ScoreParams params{2, 1, 1};
  GpuRunOptions options;
  options.mode = bulk::Mode::kSerial;
  const GpuRunResult result =
      gpu_wordwise_max_scores(xs, ys, params, options);
  for (std::size_t k = 0; k < count; ++k) {
    EXPECT_EQ(result.scores[k], sw::max_score(xs[k], ys[k], params))
        << "instance " << k;
  }
}

TEST(GpuPipelineMisc, ParallelBlocksMatchSerial) {
  util::Xoshiro256 rng(7003);
  const std::size_t count = 96, m = 7, n = 19;
  const auto xs = encoding::random_sequences(rng, count, m);
  const auto ys = encoding::random_sequences(rng, count, n);
  const sw::ScoringScheme scheme;  // 2/1/1 linear
  GpuRunOptions serial;
  serial.mode = bulk::Mode::kSerial;
  GpuRunOptions parallel;
  parallel.mode = bulk::Mode::kParallel;
  const auto a =
      gpu_bpbc_max_scores(xs, ys, scheme, sw::LaneWidth::k32, serial);
  const auto b =
      gpu_bpbc_max_scores(xs, ys, scheme, sw::LaneWidth::k32, parallel);
  EXPECT_EQ(a.scores, b.scores);
}

TEST(GpuPipelineMisc, MetricsShowStridedW2bReads) {
  util::Xoshiro256 rng(7004);
  const std::size_t count = 32, m = 8, n = 16;
  const auto xs = encoding::random_sequences(rng, count, m);
  const auto ys = encoding::random_sequences(rng, count, n);
  const sw::ScoringScheme scheme;  // 2/1/1 linear
  GpuRunOptions options;
  options.record_metrics = true;
  options.mode = bulk::Mode::kSerial;
  const GpuRunResult result =
      gpu_bpbc_max_scores(xs, ys, scheme, sw::LaneWidth::k32, options);

  const MetricTotals& w2b = result.stage_metrics[sw::PipelineStage::kW2B];
  const MetricTotals& swa = result.stage_metrics[sw::PipelineStage::kSWA];
  const MetricTotals& b2w = result.stage_metrics[sw::PipelineStage::kB2W];
  // W2B reads every input character once: count * (m + n) word reads.
  EXPECT_EQ(w2b.global_reads, static_cast<std::uint64_t>(count) * (m + n));
  // Transactions can never beat the segment lower bound (4-byte words,
  // 128-byte segments). Per-instruction strided penalties are exercised
  // at the recorder level (Metrics.StridedWarpAccessIsManyTransactions);
  // the per-phase model merges a thread's accesses within one phase.
  EXPECT_GE(w2b.global_read_transactions,
            w2b.global_reads * 4 / kSegmentBytes);
  EXPECT_GT(w2b.global_writes, 0u);
  // The SWA kernel reads each y character slice pair once per row:
  // 2 slices * m * n loads (plus 2m x-reads).
  EXPECT_EQ(swa.global_reads, 2ull * m * n + 2ull * m);
  EXPECT_GT(swa.shared_accesses, 0u);
  // B2W writes one score per instance.
  EXPECT_EQ(b2w.global_writes, count);
  // The copy stages carry synthetic transfer traffic.
  EXPECT_EQ(result.stage_metrics[sw::PipelineStage::kH2G].global_writes,
            static_cast<std::uint64_t>(count) * (m + n));
  EXPECT_EQ(result.stage_metrics[sw::PipelineStage::kG2H].global_reads,
            count);
}

TEST(GpuPipelineMisc, TimingsArePopulated) {
  util::Xoshiro256 rng(7005);
  const auto xs = encoding::random_sequences(rng, 32, 8);
  const auto ys = encoding::random_sequences(rng, 32, 32);
  const auto result = gpu_bpbc_max_scores(xs, ys, sw::ScoringScheme{},
                                          sw::LaneWidth::k32);
  EXPECT_GT(result.timings.swa_ms, 0.0);
  EXPECT_GE(result.timings.total_ms(), result.timings.swa_ms);
}

TEST(GpuPipelineMisc, RejectsMismatchedBatches) {
  util::Xoshiro256 rng(7006);
  const auto xs = encoding::random_sequences(rng, 3, 8);
  const auto ys = encoding::random_sequences(rng, 4, 16);
  EXPECT_THROW(
      gpu_bpbc_max_scores(xs, ys, sw::ScoringScheme{}, sw::LaneWidth::k32),
      std::invalid_argument);
}

TEST(GpuPipelineMisc, EmptyBatch) {
  const std::vector<encoding::Sequence> none;
  const auto result =
      gpu_bpbc_max_scores(none, none, sw::ScoringScheme{}, sw::LaneWidth::k32);
  EXPECT_TRUE(result.scores.empty());
}

}  // namespace
}  // namespace swbpbc::device
