#include "sw/scheme_aligner.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "bitops/arith.hpp"
#include "bitops/slices.hpp"
#include "bulk/executor.hpp"
#include "util/timer.hpp"

namespace swbpbc::sw {

template <bitsim::LaneWord W>
SchemeBpbcAligner<W>::SchemeBpbcAligner(const ScoringScheme& scheme,
                                        std::size_t m, std::size_t n)
    : scheme_(scheme),
      m_(m),
      n_(n),
      s_(scheme_required_slices(scheme, m, n)),
      eps_(scheme.alphabet_bits()),
      affine_(scheme.affine()),
      matrix_(scheme.matrix != nullptr),
      open_(bitops::broadcast_constant<W>(scheme.gap_open, s_)),
      extend_(bitops::broadcast_constant<W>(
          scheme.affine() ? scheme.gap_extend : scheme.gap_open, s_)) {
  if (!matrix_) {
    c1_ = bitops::broadcast_constant<W>(scheme.match, s_);
    c2_ = bitops::broadcast_constant<W>(scheme.mismatch, s_);
    return;
  }
  // Sign-split the matrix into the per-(symbol, bit) mux sets.
  const SubstitutionMatrix& mtx = *scheme_.matrix;
  const std::size_t sigma = mtx.size();
  wp_bits_ = mtx.max_positive() == 0
                 ? 0
                 : static_cast<unsigned>(std::bit_width(mtx.max_positive()));
  wn_bits_ = mtx.max_negative() == 0
                 ? 0
                 : static_cast<unsigned>(std::bit_width(mtx.max_negative()));
  const unsigned bits = wp_bits_ + wn_bits_;
  sets_.resize(sigma * bits);
  for (std::size_t a = 0; a < sigma; ++a) {
    for (std::size_t b = 0; b < sigma; ++b) {
      const int w = mtx.at(static_cast<std::uint8_t>(a),
                           static_cast<std::uint8_t>(b));
      if (w > 0) {
        for (unsigned l = 0; l < wp_bits_; ++l) {
          if ((static_cast<std::uint32_t>(w) >> l) & 1u)
            sets_[a * bits + l].push_back(static_cast<std::uint8_t>(b));
        }
      } else if (w < 0) {
        for (unsigned l = 0; l < wn_bits_; ++l) {
          if ((static_cast<std::uint32_t>(-w) >> l) & 1u)
            sets_[a * bits + wp_bits_ + l].push_back(
                static_cast<std::uint8_t>(b));
        }
      }
    }
  }
}

namespace {

/// One-hot equality mask of epsilon-bit characters at one position
/// against a fixed code: AND over planes of (plane or its complement).
template <bitsim::LaneWord W>
W eq_code(const encoding::PlanarGenericView<W>& v, std::size_t i,
          unsigned eps, std::uint8_t code) {
  W acc = (code & 1u) ? v.plane(i, 0) : static_cast<W>(~v.plane(i, 0));
  for (unsigned p = 1; p < eps; ++p) {
    const W pl = v.plane(i, p);
    acc = acc & (((code >> p) & 1u) ? pl : static_cast<W>(~pl));
  }
  return acc;
}

}  // namespace

template <bitsim::LaneWord W>
void SchemeBpbcAligner<W>::build_profiles(
    const encoding::PlanarGenericView<W>& y, std::vector<W>& leaf) const {
  constexpr W kZero = bitops::word_traits<W>::zero();
  const std::size_t sigma = scheme_.matrix->size();
  const unsigned bits = wp_bits_ + wn_bits_;
  const std::size_t n = n_;
  leaf.assign(sigma * bits * n, kZero);
  std::vector<W> eqcol(sigma);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t b = 0; b < sigma; ++b)
      eqcol[b] = eq_code(y, j, eps_, static_cast<std::uint8_t>(b));
    for (std::size_t a = 0; a < sigma; ++a) {
      for (unsigned l = 0; l < bits; ++l) {
        W acc = kZero;
        for (std::uint8_t b : sets_[a * bits + l]) acc = acc | eqcol[b];
        leaf[(a * bits + l) * n + j] = acc;
      }
    }
  }
}

template <bitsim::LaneWord W>
void SchemeBpbcAligner<W>::max_score_slices(
    const encoding::PlanarGenericView<W>& x,
    const encoding::PlanarGenericView<W>& y,
    std::span<W> out_slices) const {
  if (x.length != m_ || y.length != n_)
    throw std::invalid_argument("group lengths do not match aligner (m, n)");
  if (x.planes != eps_ || y.planes != eps_)
    throw std::invalid_argument(
        "group planes do not match the scheme's alphabet bits");
  if (out_slices.size() != s_)
    throw std::invalid_argument("out_slices.size() must equal slices()");
  if (matrix_) {
    if (affine_) return sweep<true, true>(x, y, out_slices);
    return sweep<true, false>(x, y, out_slices);
  }
  if (affine_) return sweep<false, true>(x, y, out_slices);
  sweep<false, false>(x, y, out_slices);
}

template <bitsim::LaneWord W>
template <bool kMatrix, bool kAffine>
void SchemeBpbcAligner<W>::sweep(const encoding::PlanarGenericView<W>& x,
                                 const encoding::PlanarGenericView<W>& y,
                                 std::span<W> out_slices) const {
  const unsigned s = s_;
  const std::size_t n = n_;
  constexpr W kZero = bitops::word_traits<W>::zero();

  // Matrix mux column profiles (one pass over y per group).
  std::vector<W> leaf;
  if constexpr (kMatrix) build_profiles(y, leaf);
  const std::size_t sigma = kMatrix ? scheme_.matrix->size() : 0;
  const unsigned mux_bits = wp_bits_ + wn_bits_;

  // Two bit-sliced rows of H, swapped per DP row so that up = prev[j],
  // diag = prev[j-1] and left = cur[j-1] need no copies; the boundary
  // column sits at slot 0 and stays zero. The affine F row is updated in
  // place (f_up = F[i-1][j] becomes F[i][j]), E runs along the row. The
  // running maximum accumulates straight into out_slices.
  std::vector<W> rows(2 * (n + 1) * s, kZero);
  W* prev = rows.data();
  W* cur = rows.data() + (n + 1) * s;
  std::vector<W> f_row(kAffine ? (n + 1) * s : 0, kZero);
  std::vector<W> e_run(kAffine ? s : 0);
  std::vector<W> t(s), u(s), r(s), t2(s);
  std::vector<W> wp_full(s, kZero), wn_full(s, kZero);
  std::vector<W> eq_x(sigma);
  std::fill(out_slices.begin(), out_slices.end(), kZero);
  // Uniform: the character planes of x_i (per row) and of every y_j,
  // position-major, so each cell's operands are contiguous.
  std::vector<W> xchar, ychars;
  if constexpr (!kMatrix) {
    xchar.resize(eps_);
    ychars.resize(n * eps_);
    for (std::size_t j = 0; j < n; ++j)
      for (unsigned p = 0; p < eps_; ++p) ychars[j * eps_ + p] = y.plane(j, p);
  }

  SchemeCellOperands<W> k;
  k.open = open_;
  k.extend = extend_;
  k.c1 = c1_;
  k.c2 = c2_;
  k.affine = kAffine;
  k.matrix = kMatrix;
  if constexpr (kMatrix) {
    k.wp = wp_full;
    k.wn = wn_full;
  } else {
    k.xc = xchar;
  }
  k.t = t;
  k.u = u;
  k.r = r;
  k.t2 = t2;

  for (std::size_t i = 0; i < m_; ++i) {
    if constexpr (kMatrix) {
      // One-hot row selectors of the mux, hoisted per DP row.
      for (std::size_t a = 0; a < sigma; ++a)
        eq_x[a] = eq_code(x, i, eps_, static_cast<std::uint8_t>(a));
    } else {
      for (unsigned p = 0; p < eps_; ++p) xchar[p] = x.plane(i, p);
    }
    std::fill(e_run.begin(), e_run.end(), kZero);

    for (std::size_t j = 1; j <= n; ++j) {
      if constexpr (kMatrix) {
        // Per-bit mux: OR over the alphabet of (row selector AND column
        // profile) — the runtime form of circuit build_matrix_mux.
        for (unsigned l = 0; l < mux_bits; ++l) {
          W acc = kZero;
          for (std::size_t a = 0; a < sigma; ++a)
            acc = acc | (eq_x[a] & leaf[(a * mux_bits + l) * n + (j - 1)]);
          if (l < wp_bits_)
            wp_full[l] = acc;
          else
            wn_full[l - wp_bits_] = acc;
        }
      } else {
        k.yc = {ychars.data() + (j - 1) * eps_, eps_};
      }
      const std::span<W> f_up =
          kAffine ? std::span<W>(f_row.data() + j * s, s) : std::span<W>();
      scheme_cell<W>(k, {prev + j * s, s}, {cur + (j - 1) * s, s},
                     {prev + (j - 1) * s, s}, e_run, f_up, {cur + j * s, s},
                     out_slices);
    }
    std::swap(prev, cur);
  }
}

template <bitsim::LaneWord W>
std::vector<std::uint32_t> SchemeBpbcAligner<W>::max_scores(
    const encoding::PlanarGenericView<W>& x,
    const encoding::PlanarGenericView<W>& y) const {
  std::vector<W> slices(s_);
  max_score_slices(x, y, std::span<W>(slices));
  return encoding::untranspose_values<W>(std::span<const W>(slices), s_);
}

template <bitsim::LaneWord W>
std::vector<std::uint32_t> SchemeBpbcAligner<W>::score_groups(
    std::span<const encoding::PlanarGenericView<W>> xs,
    std::span<const encoding::PlanarGenericView<W>> ys, std::size_t count,
    bulk::Mode mode, PhaseTimings* timings,
    const util::StopCondition* stop) const {
  constexpr unsigned kLanes = bitsim::word_bits_v<W>;
  const std::size_t n_groups = xs.size();
  if (ys.size() != n_groups)
    throw std::invalid_argument("score_groups: xs and ys differ in size");
  // Every group must hold at least one of the `count` lanes, and the
  // groups must hold all of them.
  if (count > n_groups * kLanes ||
      (n_groups > 0 && count <= (n_groups - 1) * kLanes))
    throw std::invalid_argument(
        "score_groups: count does not fit the number of groups");
  std::vector<std::vector<W>> group_slices(n_groups, std::vector<W>(s_));
  util::WallTimer timer;
  bulk::for_each_instance(
      n_groups, mode,
      [&](std::size_t g) {
        max_score_slices(xs[g], ys[g], std::span<W>(group_slices[g]));
      },
      stop);
  if (timings) timings->swa_ms = timer.elapsed_ms();

  timer.reset();
  std::vector<std::uint32_t> scores(count, 0);
  for (std::size_t g = 0; g < n_groups; ++g) {
    const auto lane_scores = encoding::untranspose_values<W>(
        std::span<const W>(group_slices[g]), s_);
    const std::size_t base = g * kLanes;
    const std::size_t used = std::min<std::size_t>(kLanes, count - base);
    std::copy_n(lane_scores.begin(), used,
                scores.begin() + static_cast<std::ptrdiff_t>(base));
  }
  if (timings) timings->b2w_ms = timer.elapsed_ms();
  return scores;
}

#define SWBPBC_INSTANTIATE_SCHEME_ALIGNER(...) \
  template class SchemeBpbcAligner<__VA_ARGS__>;
SWBPBC_INSTANTIATE_SCHEME_ALIGNER(std::uint32_t)
SWBPBC_INSTANTIATE_SCHEME_ALIGNER(std::uint64_t)
SWBPBC_INSTANTIATE_SCHEME_ALIGNER(bitsim::simd_word<128>)
SWBPBC_INSTANTIATE_SCHEME_ALIGNER(bitsim::simd_word<256>)
SWBPBC_INSTANTIATE_SCHEME_ALIGNER(bitsim::simd_word<512>)
SWBPBC_INSTANTIATE_SCHEME_ALIGNER(bitsim::wide_word<256, false>)
#undef SWBPBC_INSTANTIATE_SCHEME_ALIGNER

}  // namespace swbpbc::sw
