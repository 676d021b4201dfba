// Wide-lane BPBC bit-identity: the central wide-lane property. One
// wide_word<256> group is the concatenation of four uint64 lane groups, so
// a 256-lane run must reproduce four independent 64-lane runs bit for bit
// — scores, threshold masks, survivor counts, and the transposed input
// itself — and every dispatched width must agree with the scalar
// reference and with each other. The AVX2 and AVX-512 kernel builds must
// score bit-identically to the portable word of their width: the
// simd_word compiled with the build's baseline flags.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "bitops/arith.hpp"
#include "bitops/counting.hpp"
#include "bitsim/wide_word.hpp"
#include "db/builder.hpp"
#include "db/reader.hpp"
#include "device/engine.hpp"
#include "device/fault.hpp"
#include "encoding/batch.hpp"
#include "encoding/random.hpp"
#include "sw/bpbc.hpp"
#include "sw/db_backend.hpp"
#include "sw/kernel.hpp"
#include "sw/lane.hpp"
#include "sw/pipeline.hpp"
#include "sw/scalar.hpp"
#include "sw/scheme_aligner.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {
namespace {

using W256 = bitsim::simd_word<256>;

constexpr ScoreParams kParams{2, 1, 1};
const ScoringScheme kScheme;  // 2/1/1 linear

// Per-lane mask of scores >= tau, compared in bit-sliced form.
template <bitsim::LaneWord W>
W threshold_mask(const std::vector<W>& score_slices, std::uint32_t tau) {
  const auto s = static_cast<unsigned>(score_slices.size());
  const std::vector<W> tau_slices = bitops::broadcast_constant<W>(tau, s);
  return bitops::ge_mask<W>(score_slices, tau_slices);
}

const std::vector<LaneWidth> kAllWidths = {
    LaneWidth::k32,  LaneWidth::k64,  LaneWidth::k128,
    LaneWidth::k256, LaneWidth::k512, LaneWidth::kAuto};

TEST(WideLane, AllWidthsMatchScalarReference) {
  util::Xoshiro256 rng(100);
  const std::size_t count = 300;  // crosses a 256-lane group boundary
  const auto xs = encoding::random_sequences(rng, count, 9);
  const auto ys = encoding::random_sequences(rng, count, 27);
  for (const LaneWidth width : kAllWidths) {
    const auto scores = try_scheme_max_scores(xs, ys, kScheme, width).value();
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
  const auto base =
      try_scheme_max_scores(fxs, fys, kScheme, LaneWidth::k64).value();
  for (const LaneWidth width : kAllWidths) {
    EXPECT_EQ(try_scheme_max_scores(fxs, fys, kScheme, width).value(), base)
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

  const SchemeBpbcAligner<W256> wide(kScheme, m, n);
  const auto wx = wide_x.groups[0].view();
  const auto wy = wide_y.groups[0].view();
  std::vector<W256> wide_slices(wide.slices());
  wide.max_score_slices(wx, wy, std::span<W256>(wide_slices));
  const auto wide_scores = encoding::untranspose_values<W256>(
      std::span<const W256>(wide_slices), wide.slices());

  const SchemeBpbcAligner<std::uint64_t> narrow(kScheme, m, n);
  for (unsigned t = 0; t < 4; ++t) {
    const std::span<const encoding::Sequence> sub_x(xs.data() + 64 * t, 64);
    const std::span<const encoding::Sequence> sub_y(ys.data() + 64 * t, 64);
    const auto nx = encoding::transpose_strings<std::uint64_t>(sub_x);
    const auto ny = encoding::transpose_strings<std::uint64_t>(sub_y);

    // W2B decomposition: limb t of the wide planes is the sub-group.
    for (std::size_t i = 0; i < wide_x.groups[0].rows.size(); ++i) {
      ASSERT_EQ(bitsim::get_limb(wide_x.groups[0].rows[i], t),
                nx.groups[0].rows[i])
          << "x plane row " << i << " limb " << t;
    }

    const auto nxv = nx.groups[0].view();
    const auto nyv = ny.groups[0].view();
    std::vector<std::uint64_t> narrow_slices(narrow.slices());
    narrow.max_score_slices(nxv, nyv,
                            std::span<std::uint64_t>(narrow_slices));
    ASSERT_EQ(narrow.slices(), wide.slices());
    for (unsigned l = 0; l < narrow.slices(); ++l) {
      ASSERT_EQ(bitsim::get_limb(wide_slices[l], t), narrow_slices[l])
          << "slice " << l << " limb " << t;
    }

    const auto narrow_scores = encoding::untranspose_values<std::uint64_t>(
        std::span<const std::uint64_t>(narrow_slices), narrow.slices());
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

TEST(WideLane, ResolveAndParse) {
  // kAuto resolves to a concrete width; concrete widths resolve to
  // themselves (absent the env override, which tests must not set).
  const LaneWidth resolved = resolve_lane_width(LaneWidth::kAuto);
  EXPECT_NE(resolved, LaneWidth::kAuto);
  EXPECT_EQ(resolve_lane_width(LaneWidth::k128), LaneWidth::k128);
  EXPECT_EQ(lane_width_bits(LaneWidth::k512), 512u);
  EXPECT_EQ(parse_lane_width("256"), LaneWidth::k256);
  EXPECT_EQ(parse_lane_width("auto"), LaneWidth::kAuto);
  EXPECT_FALSE(parse_lane_width("banana").has_value());
}

// Device pipeline at wide widths: a fresh engine's five stages and a
// warm engine's run() agree with the host path, and a chunked engine
// screen under fault injection still lands on the scalar scores (the
// recovery contract, now at 256 lanes).
TEST(WideLane, DevicePipelineWide256MatchesHost) {
  util::Xoshiro256 rng(104);
  const auto xs = encoding::random_sequences(rng, 300, 8);
  const auto ys = encoding::random_sequences(rng, 300, 16);
  const auto host =
      try_scheme_max_scores(xs, ys, kScheme, LaneWidth::k256).value();
  device::EngineOptions opts;
  opts.scheme = kScheme;
  opts.width = LaneWidth::k256;
  device::PipelineEngine engine(opts);
  EXPECT_EQ(engine.caps().lane_width, LaneWidth::k256);
  ChunkJob job;
  job.xs = xs;
  job.ys = ys;
  EXPECT_EQ(device::PipelineEngine(opts).run_stages(job).scores, host);
  EXPECT_EQ(engine.run(job).scores, host);
}

TEST(WideLane, Wide256EngineScreenUnderFaultsMatchesScalar) {
  util::Xoshiro256 rng(105);
  const auto xs = encoding::random_sequences(rng, 96, 8);
  const auto ys = encoding::random_sequences(rng, 96, 12);

  device::FaultConfig fc;
  fc.seed = 77;
  fc.flip_probability = 0.01;
  fc.copy_flip_probability = 0.005;
  device::FaultInjector faults(fc);
  device::EngineOptions opts;
  opts.scheme = kScheme;
  opts.width = LaneWidth::k256;
  opts.faults = &faults;
  opts.integrity.enabled = true;
  device::PipelineEngine engine(opts);

  ScreenConfig cfg;
  cfg.params = kParams;
  cfg.width = LaneWidth::k256;
  cfg.backend = &engine;
  cfg.chunk_pairs = 24;
  cfg.traceback = false;
  cfg.check.enabled = true;
  cfg.check.sample_every = 1;  // verify every lane: total detection
  const auto report = try_screen(xs, ys, cfg);
  ASSERT_TRUE(report.has_value()) << report.status().to_string();
  EXPECT_GT(faults.log().total(), 0u) << "no fault was injected";
  for (std::size_t k = 0; k < xs.size(); ++k)
    EXPECT_EQ(report->scores[k], max_score(xs[k], ys[k], kParams))
        << "pair " << k;
}

// --- per-ISA kernel builds ----------------------------------------------
// sw/kernel_avx2.cpp and sw/kernel_avx512.cpp compile the kernel.hpp
// templates for Avx2Word / Avx512Word under -mavx2 / -mavx512f. Each
// entry point must score bit-identically to the portable word of its
// width, simd_word<256> / simd_word<512> compiled with the baseline flags
// (and to scalar Gotoh); the checks skip where cpuid says the build can
// never be dispatched.

using encoding::GenericSequence;
using encoding::Sequence;

bool host_runs(bitsim::Isa isa) {
  const LaneWidth w =
      isa == bitsim::Isa::kAvx512 ? LaneWidth::k512 : LaneWidth::k256;
  return kernel_isa(w, host_cpu_features()) == isa;
}

std::string skip_reason(bitsim::Isa isa) {
  return std::string("this CPU lacks ") + isa_name(isa) +
         ", so its kernel build is never dispatched here";
}

ScoringScheme isa_scheme(bool matrix, bool affine) {
  ScoringScheme s;
  if (matrix) {
    s.matrix = blosum62();
    s.gap_open = affine ? 11 : 4;
  } else {
    s.match = 3;  // odd, so some 2^s - 1 is a multiple of it
    s.gap_open = affine ? 3 : 1;
  }
  s.gap_model = affine ? GapModel::kAffine : GapModel::kLinear;
  s.gap_extend = 1;
  return s;
}

std::vector<GenericSequence> random_codes(util::Xoshiro256& rng,
                                          std::size_t count, std::size_t len,
                                          std::size_t sigma) {
  std::vector<GenericSequence> out(count, GenericSequence(len));
  for (auto& seq : out)
    for (auto& c : seq) c = static_cast<std::uint8_t>(rng.below(sigma));
  return out;
}

// Tagged build, portable word and scalar Gotoh on one batch.
template <class Tagged, class Portable>
void expect_isa_batch(const std::vector<GenericSequence>& xs,
                      const std::vector<GenericSequence>& ys,
                      const ScoringScheme& scheme, const std::string& where) {
  using encoding::TransposeMethod;
  const auto tagged = kernel::run_batch<Tagged>(
      xs, ys, scheme, bulk::Mode::kSerial, TransposeMethod::kPlanned,
      nullptr);
  const auto portable = kernel::run_batch<Portable>(
      xs, ys, scheme, bulk::Mode::kSerial, TransposeMethod::kPlanned,
      nullptr);
  ASSERT_EQ(tagged, portable) << where;
  for (std::size_t k = 0; k < xs.size(); ++k)
    ASSERT_EQ(tagged[k], scheme_max_score(xs[k], ys[k], scheme))
        << where << " pair " << k;
}

// All four (matrix x affine) cells at pair counts {1, W-1, W, W+1}, at
// m or n = 1, and with one pair scoring exactly 2^s - 1: identical
// sequences of the symbol with the largest self-score p (odd in both
// schemes), of a length L with p * L = 2^s - 1, so every slice of the
// score is set.
template <class Tagged, class Portable>
void expect_isa_build_matches_portable(std::uint64_t seed) {
  constexpr std::size_t kLanes = bitsim::word_bits_v<Tagged>;
  util::Xoshiro256 rng(seed);
  for (bool matrix : {false, true}) {
    for (bool affine : {false, true}) {
      const ScoringScheme scheme = isa_scheme(matrix, affine);
      const std::size_t sigma = scheme.alphabet().size();
      const std::string name = scheme_name(scheme);
      for (std::size_t count : {std::size_t{1}, kLanes - 1, kLanes,
                                kLanes + 1}) {
        const auto xs = random_codes(rng, count, 6, sigma);
        auto ys = random_codes(rng, count, 9, sigma);
        std::copy_n(xs[0].begin(), 6, ys[0].begin());  // a high scorer
        expect_isa_batch<Tagged, Portable>(
            xs, ys, scheme, name + " count=" + std::to_string(count));
      }
      for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{1, 9},
                                 std::pair<std::size_t, std::size_t>{9, 1}}) {
        expect_isa_batch<Tagged, Portable>(
            random_codes(rng, kLanes + 1, m, sigma),
            random_codes(rng, kLanes + 1, n, sigma), scheme,
            name + " m=" + std::to_string(m) + " n=" + std::to_string(n));
      }

      std::uint8_t best = 0;
      for (std::size_t a = 0; a < sigma; ++a) {
        const auto c = static_cast<std::uint8_t>(a);
        if (scheme.substitution(c, c) > scheme.substitution(best, best))
          best = c;
      }
      const std::uint32_t p = scheme.max_positive();
      ASSERT_EQ(scheme.substitution(best, best), static_cast<int>(p));
      std::uint32_t full = 1;  // 2^k - 1 = p * L for some L >= 8
      while (full % p != 0 || full / p < 8) full = 2 * full + 1;
      const std::size_t len = full / p;
      const unsigned s = scheme_required_slices(scheme, len, len);
      ASSERT_EQ(full, (std::uint32_t{1} << s) - 1) << name;
      auto xs = random_codes(rng, 3, len, sigma);
      auto ys = random_codes(rng, 3, len, sigma);
      xs[0].assign(len, best);
      ys[0].assign(len, best);
      ASSERT_EQ(scheme_max_score(xs[0], ys[0], scheme), full) << name;
      expect_isa_batch<Tagged, Portable>(xs, ys, scheme,
                                         name + " 2^s-1 pair");
    }
  }
}

TEST(IsaKernel, Avx2BuildMatchesPortableWord) {
  if (!host_runs(bitsim::Isa::kAvx2))
    GTEST_SKIP() << skip_reason(bitsim::Isa::kAvx2);
  expect_isa_build_matches_portable<Avx2Word, bitsim::simd_word<256>>(201);
}

TEST(IsaKernel, Avx512BuildMatchesPortableWord) {
  if (!host_runs(bitsim::Isa::kAvx512))
    GTEST_SKIP() << skip_reason(bitsim::Isa::kAvx512);
  expect_isa_build_matches_portable<Avx512Word, bitsim::simd_word<512>>(202);
}

// The DNA store body: run_store at the tagged and the portable word,
// each on its own reader of a store whose shard 1 rotted on disk, so both
// quarantine it and re-ingest it from the job's sequences — once with a
// query per entry (transposed query lanes) and once with one repeated
// query (broadcast query lanes).
template <class Tagged, class Portable>
void expect_isa_db_backend(const std::string& name) {
  constexpr std::size_t kLanes = bitsim::word_bits_v<Tagged>;
  util::Xoshiro256 rng(203);
  const std::size_t count = kLanes + 70;  // two groups, a partial tail
  const auto distinct = encoding::random_sequences(rng, count, 9);
  const auto ys = encoding::random_sequences(rng, count, 21);
  const std::vector<Sequence> repeated(count, distinct.front());
  const std::string path = testing::TempDir() + "swbpbc_isa_" + name;
  ASSERT_TRUE(db::build_database(ys, path).ok());
  ASSERT_TRUE(db::corrupt_shard_for_testing(path, 1, 5, 2).ok());

  DbBackendOptions opts;
  opts.width = kLanes == 512 ? LaneWidth::k512 : LaneWidth::k256;
  for (const std::vector<Sequence>* xs : {&distinct, &repeated}) {
    SCOPED_TRACE(xs == &repeated ? "repeated query" : "query per entry");
    const kernel::StoreJob job{*xs, ys, 0, count, nullptr};
    const auto serve = [&]<class W>(std::type_identity<W>) {
      auto reader = db::Reader::open(path);
      EXPECT_TRUE(reader.has_value()) << reader.status().to_string();
      kernel::ReingestCache cache;
      kernel::StoreReport report;
      auto scores = kernel::run_store<W>(job, *reader, kScheme,
                                         bulk::Mode::kSerial, cache, report,
                                         nullptr);
      EXPECT_EQ(report.quarantined, 1u);
      EXPECT_EQ(report.pairs_reingested, 64u);
      return scores;
    };
    const auto tagged = serve(std::type_identity<Tagged>{});
    EXPECT_EQ(tagged, serve(std::type_identity<Portable>{}));
    for (std::size_t k = 0; k < count; ++k)
      ASSERT_EQ(tagged[k], max_score((*xs)[k], ys[k], kParams)) << k;

    // The public backend dispatches the tagged build.
    auto reader = db::Reader::open(path);
    ASSERT_TRUE(reader.has_value());
    const auto backend = make_db_backend(*reader, opts);
    ChunkJob chunk;
    chunk.xs = *xs;
    chunk.ys = ys;
    chunk.first_pair = 0;
    EXPECT_EQ(backend->run(chunk).scores, tagged);
  }
  std::remove(path.c_str());
}

TEST(IsaKernel, Avx2DbBackendMatchesPortableWord) {
  if (!host_runs(bitsim::Isa::kAvx2))
    GTEST_SKIP() << skip_reason(bitsim::Isa::kAvx2);
  expect_isa_db_backend<Avx2Word, bitsim::simd_word<256>>("avx2.swdb");
}

TEST(IsaKernel, Avx512DbBackendMatchesPortableWord) {
  if (!host_runs(bitsim::Isa::kAvx512))
    GTEST_SKIP() << skip_reason(bitsim::Isa::kAvx512);
  expect_isa_db_backend<Avx512Word, bitsim::simd_word<512>>("avx512.swdb");
}

// The same store body serving a one-query try_screen over a BLOSUM62
// affine protein store with one rotted shard re-ingested from the
// screened sequences.
template <class Tagged, class Portable>
void expect_isa_scheme_db(const std::string& name, LaneWidth width) {
  constexpr std::size_t kLanes = bitsim::word_bits_v<Tagged>;
  util::Xoshiro256 rng(204);
  const ScoringScheme scheme = isa_scheme(true, true);
  const auto query = random_codes(rng, 1, 12, 20).front();
  const auto entries = random_codes(rng, kLanes + 40, 25, 20);
  const std::string path = testing::TempDir() + "swbpbc_isa_" + name;
  ASSERT_TRUE(db::build_generic_database(entries, 5, path).ok());
  ASSERT_TRUE(db::corrupt_shard_for_testing(path, 2, 11, 6).ok());

  const auto screen = [&]<class W>(std::type_identity<W>) {
    auto reader = db::Reader::open(path);
    EXPECT_TRUE(reader.has_value()) << reader.status().to_string();
    kernel::ReingestCache cache;
    kernel::StoreReport report;
    const kernel::StoreJob job{{&query, 1}, entries, 0, entries.size(),
                               nullptr};
    auto scores = kernel::run_store<W>(job, *reader, scheme,
                                       bulk::Mode::kSerial, cache, report,
                                       nullptr);
    EXPECT_EQ(report.quarantined, 1u);
    EXPECT_EQ(report.pairs_reingested, 64u);
    return scores;
  };
  const auto tagged = screen(std::type_identity<Tagged>{});
  EXPECT_EQ(tagged, screen(std::type_identity<Portable>{}));
  for (std::size_t k = 0; k < entries.size(); ++k)
    ASSERT_EQ(tagged[k], scheme_max_score(query, entries[k], scheme)) << k;

  auto reader = db::Reader::open(path);
  ASSERT_TRUE(reader.has_value());
  ScreenConfig cfg;
  cfg.scheme = scheme;
  cfg.database = &*reader;
  cfg.width = width;
  cfg.traceback = false;
  const std::vector<GenericSequence> xs(entries.size(), query);
  auto via_api = try_screen(xs, entries, cfg);
  ASSERT_TRUE(via_api.has_value()) << via_api.status().to_string();
  EXPECT_EQ(via_api->scores, tagged);
  EXPECT_EQ(via_api->reliability.db_shards_quarantined, 1u);
  std::remove(path.c_str());
}

TEST(IsaKernel, Avx2SchemeDbMatchesPortableWord) {
  if (!host_runs(bitsim::Isa::kAvx2))
    GTEST_SKIP() << skip_reason(bitsim::Isa::kAvx2);
  expect_isa_scheme_db<Avx2Word, bitsim::simd_word<256>>(
      "avx2_protein.swdb", LaneWidth::k256);
}

TEST(IsaKernel, Avx512SchemeDbMatchesPortableWord) {
  if (!host_runs(bitsim::Isa::kAvx512))
    GTEST_SKIP() << skip_reason(bitsim::Isa::kAvx512);
  expect_isa_scheme_db<Avx512Word, bitsim::simd_word<512>>(
      "avx512_protein.swdb", LaneWidth::k512);
}

}  // namespace
}  // namespace swbpbc::sw
