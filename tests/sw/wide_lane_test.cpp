// Wide-lane BPBC bit-identity: the central wide-lane property. One
// wide_word<256> group is the concatenation of four uint64 lane groups, so
// a 256-lane run must reproduce four independent 64-lane runs bit for bit
// — scores, threshold masks, survivor counts, and the transposed input
// itself — and every dispatched width must agree with the scalar
// reference and with each other.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "bitops/arith.hpp"
#include "bitops/counting.hpp"
#include "bitsim/wide_word.hpp"
#include "device/engine.hpp"
#include "device/fault.hpp"
#include "device/sw_kernels.hpp"
#include "encoding/batch.hpp"
#include "encoding/random.hpp"
#include "sw/bpbc.hpp"
#include "sw/lane.hpp"
#include "sw/scalar.hpp"
#include "sw/scheme_aligner.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {
namespace {

using W256 = bitsim::simd_word<256>;

constexpr ScoreParams kParams{2, 1, 1};

// Per-lane mask of scores >= tau, compared in bit-sliced form.
template <bitsim::LaneWord W>
W threshold_mask(const std::vector<W>& score_slices, std::uint32_t tau) {
  const auto s = static_cast<unsigned>(score_slices.size());
  const std::vector<W> tau_slices = bitops::broadcast_constant<W>(tau, s);
  return bitops::ge_mask<W>(score_slices, tau_slices);
}

const std::vector<LaneWidth> kAllWidths = {
    LaneWidth::k32,  LaneWidth::k64,         LaneWidth::k128,
    LaneWidth::k256, LaneWidth::k512,        LaneWidth::kScalarWide,
    LaneWidth::kAuto};

TEST(WideLane, AllWidthsMatchScalarReference) {
  util::Xoshiro256 rng(100);
  const std::size_t count = 300;  // crosses a 256-lane group boundary
  const auto xs = encoding::random_sequences(rng, count, 9);
  const auto ys = encoding::random_sequences(rng, count, 27);
  for (const LaneWidth width : kAllWidths) {
    const auto scores = bpbc_max_scores(xs, ys, kParams, width);
    ASSERT_EQ(scores.size(), count) << lane_width_name(width);
    for (std::size_t k = 0; k < count; ++k) {
      ASSERT_EQ(scores[k], max_score(xs[k], ys[k], kParams))
          << lane_width_name(width) << " instance " << k;
    }
  }
}

TEST(WideLane, AllWidthsProduceIdenticalScoreVectors) {
  util::Xoshiro256 rng(101);
  // 517 = two full 256-lane groups plus a 5-lane tail: exercises tail
  // masking at every width.
  const auto fxs = encoding::random_sequences(rng, 517, 12);
  const auto fys = encoding::random_sequences(rng, 517, 31);
  const auto base = bpbc_max_scores(fxs, fys, kParams, LaneWidth::k64);
  for (const LaneWidth width : kAllWidths) {
    EXPECT_EQ(bpbc_max_scores(fxs, fys, kParams, width), base)
        << lane_width_name(width);
  }
}

// One 256-lane group vs its four 64-lane sub-groups: the transposed
// input, the score slices, the threshold masks, and the survivor counts
// must all decompose limb-for-limb.
TEST(WideLane, Wide256RunDecomposesIntoFourUint64LaneGroups) {
  util::Xoshiro256 rng(102);
  const std::size_t m = 10, n = 22;
  const auto xs = encoding::random_sequences(rng, 256, m);
  const auto ys = encoding::random_sequences(rng, 256, n);

  const auto wide_x = encoding::transpose_strings<W256>(xs);
  const auto wide_y = encoding::transpose_strings<W256>(ys);
  ASSERT_EQ(wide_x.groups.size(), 1u);

  using WideView = encoding::PlanarGenericView<W256>;
  using NarrowView = encoding::PlanarGenericView<std::uint64_t>;
  const ScoringScheme scheme = ScoringScheme::from_params(kParams);
  const SchemeBpbcAligner<W256> wide(scheme, m, n);
  const WideView wx = WideView::from(wide_x.groups[0]);
  const WideView wy = WideView::from(wide_y.groups[0]);
  std::vector<W256> wide_slices(wide.slices());
  wide.max_score_slices(wx, wy, std::span<W256>(wide_slices));
  const auto wide_scores = wide.max_scores(wx, wy);

  const SchemeBpbcAligner<std::uint64_t> narrow(scheme, m, n);
  for (unsigned t = 0; t < 4; ++t) {
    const std::span<const encoding::Sequence> sub_x(xs.data() + 64 * t, 64);
    const std::span<const encoding::Sequence> sub_y(ys.data() + 64 * t, 64);
    const auto nx = encoding::transpose_strings<std::uint64_t>(sub_x);
    const auto ny = encoding::transpose_strings<std::uint64_t>(sub_y);

    // W2B decomposition: limb t of the wide planes is the sub-group.
    for (std::size_t i = 0; i < m; ++i) {
      ASSERT_EQ(bitsim::get_limb(wide_x.groups[0].hi[i], t),
                nx.groups[0].hi[i])
          << "x hi limb " << t << " char " << i;
      ASSERT_EQ(bitsim::get_limb(wide_x.groups[0].lo[i], t),
                nx.groups[0].lo[i]);
    }

    const NarrowView nxv = NarrowView::from(nx.groups[0]);
    const NarrowView nyv = NarrowView::from(ny.groups[0]);
    std::vector<std::uint64_t> narrow_slices(narrow.slices());
    narrow.max_score_slices(nxv, nyv,
                            std::span<std::uint64_t>(narrow_slices));
    ASSERT_EQ(narrow.slices(), wide.slices());
    for (unsigned l = 0; l < narrow.slices(); ++l) {
      ASSERT_EQ(bitsim::get_limb(wide_slices[l], t), narrow_slices[l])
          << "slice " << l << " limb " << t;
    }

    const auto narrow_scores = narrow.max_scores(nxv, nyv);
    for (unsigned lane = 0; lane < 64; ++lane) {
      ASSERT_EQ(wide_scores[64 * t + lane], narrow_scores[lane]);
    }

    for (std::uint32_t tau : {0u, 7u, 13u, 20u}) {
      EXPECT_EQ(bitsim::get_limb(threshold_mask<W256>(wide_slices, tau), t),
                threshold_mask<std::uint64_t>(narrow_slices, tau))
          << "tau " << tau << " limb " << t;
    }
  }

  // Survivor counting stays generic past 64 lanes: the wide popcount
  // equals the count of scores at or above the threshold.
  for (std::uint32_t tau : {0u, 7u, 13u, 20u}) {
    unsigned expected = 0;
    for (auto sc : wide_scores) expected += sc >= tau ? 1u : 0u;
    EXPECT_EQ(bitops::popcount(threshold_mask<W256>(wide_slices, tau)),
              expected)
        << "tau " << tau;
  }
}

TEST(WideLane, ScalarWideFallbackMatchesSimd) {
  util::Xoshiro256 rng(103);
  const auto xs = encoding::random_sequences(rng, 130, 7);
  const auto ys = encoding::random_sequences(rng, 130, 19);
  EXPECT_EQ(bpbc_max_scores(xs, ys, kParams, LaneWidth::kScalarWide),
            bpbc_max_scores(xs, ys, kParams, LaneWidth::k256));
}

TEST(WideLane, ResolveAndParse) {
  // kAuto resolves to a concrete width; concrete widths resolve to
  // themselves (absent the env override, which tests must not set).
  const LaneWidth resolved = resolve_lane_width(LaneWidth::kAuto);
  EXPECT_NE(resolved, LaneWidth::kAuto);
  EXPECT_EQ(resolve_lane_width(LaneWidth::k128), LaneWidth::k128);
  EXPECT_EQ(lane_width_bits(LaneWidth::k512), 512u);
  EXPECT_EQ(lane_width_bits(LaneWidth::kScalarWide), 256u);
  EXPECT_EQ(parse_lane_width("256"), LaneWidth::k256);
  EXPECT_EQ(parse_lane_width("scalar-wide"), LaneWidth::kScalarWide);
  EXPECT_EQ(parse_lane_width("auto"), LaneWidth::kAuto);
  EXPECT_FALSE(parse_lane_width("banana").has_value());
}

// Device pipeline at wide widths: one-shot driver and engine agree with
// the host path, and overlapped execution stays bit-identical to serial
// under fault injection (the engine's determinism contract, now at 256
// lanes).
TEST(WideLane, DevicePipelineWide256MatchesHost) {
  util::Xoshiro256 rng(104);
  const auto xs = encoding::random_sequences(rng, 300, 8);
  const auto ys = encoding::random_sequences(rng, 300, 16);
  const auto host = bpbc_max_scores(xs, ys, kParams, LaneWidth::k256);
  const auto gpu =
      device::gpu_bpbc_max_scores(xs, ys, kParams, LaneWidth::k256);
  EXPECT_EQ(gpu.scores, host);

  device::EngineOptions opts;
  opts.params = kParams;
  opts.width = LaneWidth::k256;
  device::PipelineEngine engine(opts);
  EXPECT_EQ(engine.caps().lane_width, LaneWidth::k256);
  ChunkJob job;
  job.xs = xs;
  job.ys = ys;
  EXPECT_EQ(engine.run(job).scores, host);
}

TEST(WideLane, OverlappedWide256BitIdenticalToSerialUnderFaults) {
  util::Xoshiro256 rng(105);
  const auto xs = encoding::random_sequences(rng, 96, 8);
  const auto ys = encoding::random_sequences(rng, 96, 12);

  device::FaultConfig fc;
  fc.seed = 77;
  fc.flip_probability = 0.01;
  fc.copy_flip_probability = 0.005;

  const auto run_chunks = [&](bool overlapped) {
    device::FaultInjector faults(fc);
    device::EngineOptions opts;
    opts.params = kParams;
    opts.width = LaneWidth::k256;
    opts.faults = &faults;
    opts.integrity.enabled = true;
    opts.integrity.canary_lanes = true;
    opts.integrity.checksum_copies = true;
    opts.overlap_depth = overlapped ? 3 : 1;
    device::PipelineEngine engine(opts);
    std::vector<std::vector<std::uint32_t>> out;
    for (std::size_t c = 0; c < 4; ++c) {
      ChunkJob job;
      job.chunk = c;
      job.xs = std::span<const encoding::Sequence>(xs).subspan(24 * c, 24);
      job.ys = std::span<const encoding::Sequence>(ys).subspan(24 * c, 24);
      if (overlapped) {
        engine.submit(job);
      } else {
        out.push_back(engine.run(job).scores);
      }
    }
    if (overlapped)
      for (std::size_t c = 0; c < 4; ++c)
        out.push_back(engine.collect().scores);
    return out;
  };

  EXPECT_EQ(run_chunks(true), run_chunks(false));
}

}  // namespace
}  // namespace swbpbc::sw
