// Measures the operation counts of the Section IV.A arithmetic, and of the
// production kernel's DP cell, with CountingWord and asserts the paper's
// Lemmas 2-5 and Theorem 6.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <span>
#include <type_traits>
#include <vector>

#include "bitops/arith.hpp"
#include "bitops/counting.hpp"
#include "bitops/slices.hpp"
#include "bitsim/wide_word.hpp"
#include "sw/scheme_aligner.hpp"

namespace swbpbc::bitops {
namespace {

using CW = CountingWord<std::uint32_t>;

std::vector<CW> cw_slices(unsigned s, std::uint32_t pattern) {
  std::vector<CW> v;
  v.reserve(s);
  for (unsigned l = 0; l < s; ++l)
    v.push_back(CW{pattern * (l + 1) ^ 0x9e3779b9u});
  return v;
}

class OpCount : public ::testing::TestWithParam<unsigned> {};

TEST_P(OpCount, GreaterthanMatchesFormula) {
  const unsigned s = GetParam();
  const auto a = cw_slices(s, 3);
  const auto b = cw_slices(s, 5);
  CW::reset_ops();
  (void)ge_mask<CW>(a, b);
  EXPECT_EQ(CW::ops(), ops_greaterthan(s));  // 5s - 2
}

TEST_P(OpCount, MaxMatchesLemma2) {
  const unsigned s = GetParam();
  const auto a = cw_slices(s, 3);
  const auto b = cw_slices(s, 5);
  std::vector<CW> q(s);
  CW::reset_ops();
  max_b<CW>(a, b, q);
  EXPECT_EQ(CW::ops(), ops_max(s));  // 9s - 2
}

TEST_P(OpCount, AddMatchesLemma3) {
  const unsigned s = GetParam();
  const auto a = cw_slices(s, 3);
  const auto b = cw_slices(s, 5);
  std::vector<CW> q(s);
  CW::reset_ops();
  add_b<CW>(a, b, q);
  // Lemma 3 says 6s - 5, but the paper's carry initialization is wrong
  // (see add_b); the corrected adder costs 6s - 4.
  EXPECT_EQ(CW::ops(), ops_add(s));
}

TEST_P(OpCount, SsubMatchesLemma4) {
  const unsigned s = GetParam();
  const auto a = cw_slices(s, 3);
  const auto b = cw_slices(s, 5);
  std::vector<CW> q(s);
  CW::reset_ops();
  ssub_b<CW>(a, b, q);
  EXPECT_EQ(CW::ops(), ops_ssub(s));  // 9s - 4
}

TEST_P(OpCount, MatchingWithinLemma5Bound) {
  const unsigned s = GetParam();
  const unsigned eps = 2;  // DNA
  const auto c = cw_slices(s, 3);
  const auto c1 = cw_slices(s, 7);
  const auto c2 = cw_slices(s, 11);
  const auto x = cw_slices(eps, 13);
  const auto y = cw_slices(eps, 17);
  std::vector<CW> q(s), r(s), t(s);
  CW::reset_ops();
  const CW e = mismatch_mask<CW>(x, y);
  matching_b<CW>(c, e, c1, c2, q, r, t);
  EXPECT_EQ(CW::ops(), ops_matching(s, eps));
  if (s >= 2) {
    EXPECT_LE(CW::ops(), ops_matching_bound(s));  // Lemma 5: 21s - 9
  }
}

TEST_P(OpCount, SwCellWithinTheorem6Bound) {
  const unsigned s = GetParam();
  const unsigned eps = 2;
  const auto a = cw_slices(s, 3);
  const auto b = cw_slices(s, 5);
  const auto c = cw_slices(s, 7);
  const auto gap = cw_slices(s, 11);
  const auto c1 = cw_slices(s, 13);
  const auto c2 = cw_slices(s, 17);
  const auto x = cw_slices(eps, 19);
  const auto y = cw_slices(eps, 23);
  std::vector<CW> out(s), t(s), u(s), r(s);
  CW::reset_ops();
  const CW e = mismatch_mask<CW>(x, y);
  sw_cell<CW>(a, b, c, e, gap, c1, c2, out, t, u, r);
  EXPECT_EQ(CW::ops(), ops_sw_cell(s, eps));
  if (s >= 3) {
    // Theorem 6: at most 48s - 18 operations per cell. (At s = 2 our
    // corrected adder exceeds the bound by one op; real workloads have
    // s >= 3.)
    EXPECT_LE(CW::ops(), ops_sw_cell_bound(s));
  }
}

// The production kernel's cell (sw::scheme_cell, what SchemeBpbcAligner
// and the device SWA stage run per DP cell), checked against the
// composition of the bitops primitives it fuses: the same value at every
// (substitution, gap) combination and lane word, and on CountingWord the
// same operation count. The uniform linear DNA cell is the paper's SW
// cell plus the running max: ops_sw_cell(s, 2) + ops_max(s) operations.
template <class W>
struct KernelCell {
  KernelCell(unsigned s, bool matrix, bool affine)
      : up(s), left(s), diag(s), open(s), extend(s), c1(s), c2(s), wp(s),
        wn(s), x(2), y(2), e_run(s), f_up(s), best(s), h(s), t(s), u(s),
        r(s), t2(s) {
    k.open = open;
    k.extend = extend;
    k.c1 = c1;
    k.c2 = c2;
    k.affine = affine;
    k.matrix = matrix;
    k.xc = x;
    k.yc = y;
    k.wp = wp;
    k.wn = wn;
    k.t = t;
    k.u = u;
    k.r = r;
    k.t2 = t2;
  }
  KernelCell(const KernelCell&) = delete;
  KernelCell& operator=(const KernelCell&) = delete;

  /// Every input slice a random word, except that each operand is
  /// all-zero or all-one (every lane 0 or 2^s - 1) with probability 1/4
  /// each, so patterns hit both ends of the value range.
  void randomize(std::mt19937_64& rng) {
    for (std::vector<W>* v : {&up, &left, &diag, &open, &extend, &c1, &c2,
                              &wp, &wn, &x, &y, &e_run, &f_up, &best}) {
      const std::uint64_t mode = rng() % 4;
      for (W& w : *v) {
        w = mode == 0   ? word_traits<W>::zero()
            : mode == 1 ? word_traits<W>::ones()
                        : random_word(rng);
      }
    }
  }

  void run() {
    sw::scheme_cell<W>(k, up, left, diag, e_run, f_up, h, best);
  }

  /// The cell as the composition of the bitops primitives, in place on
  /// the same operands: T = max(0, diag + w), then the linear or Gotoh
  /// gap recurrence, then best = max(best, H).
  void run_composed() {
    const std::size_t s = h.size();
    std::vector<W> ct(s), cu(s), cr(s), ct2(s);
    const std::span<const W> tt(ct), uu(cu), t2t(ct2);
    if (!k.matrix && !k.affine) {
      const W e = mismatch_mask<W>(x, y);
      sw_cell<W>(up, left, diag, e, open, c1, c2, h, ct, cu, cr);
    } else {
      if (k.matrix) {
        add_b<W>(diag, wp, cr);
        ssub_b<W>(std::span<const W>(cr), wn, ct2);
      } else {
        const W e = mismatch_mask<W>(x, y);
        matching_b<W>(diag, e, c1, c2, ct2, cr, ct);
      }
      if (k.affine) {
        ssub_b<W>(left, open, ct);
        ssub_b<W>(std::span<const W>(e_run), extend, cu);
        max_b<W>(tt, uu, e_run);
        ssub_b<W>(up, open, ct);
        ssub_b<W>(std::span<const W>(f_up), extend, cu);
        max_b<W>(tt, uu, f_up);
        max_b<W>(t2t, std::span<const W>(e_run), ct);
        max_b<W>(tt, std::span<const W>(f_up), h);
      } else {
        max_b<W>(up, left, ct);
        ssub_b<W>(tt, open, cu);
        max_b<W>(t2t, uu, h);
      }
    }
    max_b<W>(std::span<const W>(best), std::span<const W>(h), best);
  }

  static W random_word(std::mt19937_64& rng) {
    if constexpr (std::is_same_v<W, CW>) {
      return CW{static_cast<std::uint32_t>(rng())};
    } else {
      W w{};
      constexpr unsigned kLimbs = (8 * sizeof(W) + 63) / 64;
      for (unsigned t = 0; t < kLimbs; ++t) bitsim::set_limb(w, t, rng());
      return w;
    }
  }

  std::vector<W> up, left, diag, open, extend, c1, c2, wp, wn, x, y;
  std::vector<W> e_run, f_up, best, h, t, u, r, t2;
  sw::SchemeCellOperands<W> k;
};

// Runs the fused cell and the composed primitives on `patterns` seeded
// random operand sets; the outputs (H, best, E, F) must agree.
template <class W>
void expect_cell_matches_composed(unsigned s, bool matrix, bool affine,
                                  int patterns) {
  std::mt19937_64 rng(0x5eedu + 97u * s + (matrix ? 2u : 0u) +
                      (affine ? 1u : 0u));
  KernelCell<W> fused(s, matrix, affine), composed(s, matrix, affine);
  for (int p = 0; p < patterns; ++p) {
    const std::uint64_t seed = rng();
    std::mt19937_64 draw(seed);
    fused.randomize(draw);
    draw.seed(seed);
    composed.randomize(draw);
    fused.run();
    composed.run_composed();
    SCOPED_TRACE(::testing::Message() << "s=" << s << " matrix=" << matrix
                                      << " affine=" << affine
                                      << " pattern=" << p);
    ASSERT_TRUE(fused.h == composed.h);
    ASSERT_TRUE(fused.best == composed.best);
    if (affine) {
      ASSERT_TRUE(fused.e_run == composed.e_run);
      ASSERT_TRUE(fused.f_up == composed.f_up);
    }
  }
}

// Operation counts of the fused cell and of the composed primitives on
// the same operands.
struct CellOps {
  std::uint64_t fused = 0;
  std::uint64_t composed = 0;
};
CellOps cell_ops(unsigned s, bool matrix, bool affine) {
  std::mt19937_64 rng(s);
  KernelCell<CW> cell(s, matrix, affine);
  cell.randomize(rng);
  CellOps ops;
  CW::reset_ops();
  cell.run();
  ops.fused = CW::ops();
  CW::reset_ops();
  cell.run_composed();
  ops.composed = CW::ops();
  return ops;
}

TEST_P(OpCount, KernelUniformLinearDnaCellIsTheSwCell) {
  const unsigned s = GetParam();
  const CellOps ops = cell_ops(s, /*matrix=*/false, /*affine=*/false);
  EXPECT_EQ(ops.fused, ops_sw_cell(s, 2) + ops_max(s));
  EXPECT_EQ(ops.fused, ops.composed);
  if (s >= 3) {
    EXPECT_LE(ops.fused - ops_max(s), ops_sw_cell_bound(s));  // Theorem 6
  }
}

TEST_P(OpCount, KernelUniformAffineDnaCellCost) {
  // Gotoh: matching_B plus two SSub_B and one max_B per gap chain (E, F),
  // two max_B for H = max(T, E, F) and one for the running max.
  const unsigned s = GetParam();
  const CellOps ops = cell_ops(s, /*matrix=*/false, /*affine=*/true);
  EXPECT_EQ(ops.fused,
            ops_matching(s, 2) + 4 * ops_ssub(s) + 5 * ops_max(s));
  EXPECT_EQ(ops.fused, ops.composed);
}

TEST_P(OpCount, KernelMatrixCellCost) {
  // add_B(diag, wp) and SSub_B(., wn), then the gap recurrence and the
  // running max; pinned literally, s -> ops.
  const unsigned s = GetParam();
  const std::map<unsigned, std::uint64_t> linear = {
      {2, 84}, {3, 135}, {5, 237}, {8, 390}, {9, 441}, {16, 798}, {32, 1614}};
  const std::map<unsigned, std::uint64_t> affine = {
      {2, 158}, {3, 254}, {5, 446}, {8, 734}, {9, 830}, {16, 1502},
      {32, 3038}};
  const CellOps lin = cell_ops(s, /*matrix=*/true, /*affine=*/false);
  EXPECT_EQ(lin.fused, linear.at(s));
  EXPECT_EQ(lin.fused, lin.composed);
  const CellOps aff = cell_ops(s, /*matrix=*/true, /*affine=*/true);
  EXPECT_EQ(aff.fused, affine.at(s));
  EXPECT_EQ(aff.fused, aff.composed);
}

TEST_P(OpCount, KernelCellMatchesComposedPrimitives) {
  const unsigned s = GetParam();
  for (const bool matrix : {false, true}) {
    for (const bool affine : {false, true}) {
      expect_cell_matches_composed<CW>(s, matrix, affine, 64);
      expect_cell_matches_composed<std::uint64_t>(s, matrix, affine, 64);
      expect_cell_matches_composed<bitsim::simd_word<128>>(s, matrix, affine,
                                                           64);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SliceWidths, OpCount,
                         ::testing::Values(2u, 3u, 5u, 8u, 9u, 16u, 32u));

TEST(OpCount, CountingWordComputesCorrectValues) {
  const CW a{0b1100}, b{0b1010};
  EXPECT_EQ((a & b).value(), 0b1000u);
  EXPECT_EQ((a | b).value(), 0b1110u);
  EXPECT_EQ((a ^ b).value(), 0b0110u);
  EXPECT_EQ((~CW{0u}).value(), ~0u);
}

TEST(OpCount, ResetClearsCounter) {
  CW::reset_ops();
  const CW a{1}, b{2};
  (void)(a & b);
  EXPECT_EQ(CW::ops(), 1u);
  CW::reset_ops();
  EXPECT_EQ(CW::ops(), 0u);
}

}  // namespace
}  // namespace swbpbc::bitops
