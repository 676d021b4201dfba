#include "sw/banded.hpp"

#include <algorithm>
#include <stdexcept>

#include "bitops/arith.hpp"

namespace swbpbc::sw {
namespace {

/// Is 0-based cell (i, j) inside the band?
bool in_band(std::size_t i, std::size_t j, std::size_t band) {
  return (i >= j ? i - j : j - i) <= band;
}

}  // namespace

std::uint32_t banded_max_score(const encoding::Sequence& x,
                               const encoding::Sequence& y,
                               const ScoreParams& params,
                               std::size_t band) {
  const std::size_t m = x.size();
  const std::size_t n = y.size();
  if (m == 0 || n == 0) return 0;
  const auto ssub = [](std::uint32_t a, std::uint32_t b) {
    return a > b ? a - b : 0u;
  };
  // row holds d[i-1][*] for in-band cells of the previous row; cells
  // outside the band read as 0.
  std::vector<std::uint32_t> row(n, 0);
  std::uint32_t best = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t j_lo = i > band ? i - band : 0;
    const std::size_t j_hi = std::min(n - 1, i + band);
    std::uint32_t left = 0;  // d[i][j-1]; out of band / boundary = 0
    std::uint32_t diag = 0;  // d[i-1][j-1]
    if (j_lo > 0 && i >= 1 && in_band(i - 1, j_lo - 1, band)) {
      diag = row[j_lo - 1];
    }
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const std::uint32_t up =
          (i >= 1 && in_band(i - 1, j, band)) ? row[j] : 0;
      const std::uint32_t match_val = x[i] == y[j]
                                          ? diag + params.match
                                          : ssub(diag, params.mismatch);
      const std::uint32_t gap_val =
          ssub(std::max(up, left), params.gap);
      const std::uint32_t v = std::max(match_val, gap_val);
      row[j] = v;
      left = v;
      diag = up;
      best = std::max(best, v);
    }
    // Clear the cell that leaves the band on the left so the next row
    // never reads a stale value.
    if (j_lo > 0) row[j_lo - 1] = 0;
  }
  return best;
}

template <bitsim::LaneWord W>
BandedBpbcAligner<W>::BandedBpbcAligner(const ScoreParams& params,
                                        std::size_t m, std::size_t n,
                                        std::size_t band)
    : params_(params),
      m_(m),
      n_(n),
      band_(band),
      s_(required_slices(params, m, n)),
      gap_(bitops::broadcast_constant<W>(params.gap, s_)),
      c1_(bitops::broadcast_constant<W>(params.match, s_)),
      c2_(bitops::broadcast_constant<W>(params.mismatch, s_)) {}

template <bitsim::LaneWord W>
void BandedBpbcAligner<W>::max_score_slices(
    const encoding::TransposedStrings<W>& x,
    const encoding::TransposedStrings<W>& y,
    std::span<W> out_slices) const {
  if (x.length != m_ || y.length != n_)
    throw std::invalid_argument("group lengths do not match aligner (m, n)");
  if (out_slices.size() != s_)
    throw std::invalid_argument("out_slices.size() must equal slices()");
  const unsigned s = s_;
  const std::size_t n = n_;
  constexpr W kZero = bitops::word_traits<W>::zero();

  std::vector<W> row(n * s, kZero);
  std::vector<W> diag(s), old_up(s), up(s), left(s), t(s), u(s), r(s),
      best(s, kZero);

  const std::span<const W> gap(gap_);
  const std::span<const W> c1(c1_);
  const std::span<const W> c2(c2_);

  for (std::size_t i = 0; i < m_; ++i) {
    const W xh = x.hi[i];
    const W xl = x.lo[i];
    const std::size_t j_lo = i > band_ ? i - band_ : 0;
    const std::size_t j_hi = std::min(n - 1, i + band_);
    std::fill(left.begin(), left.end(), kZero);
    if (j_lo > 0 && i >= 1 && in_band(i - 1, j_lo - 1, band_)) {
      std::copy(row.begin() + static_cast<std::ptrdiff_t>((j_lo - 1) * s),
                row.begin() + static_cast<std::ptrdiff_t>(j_lo * s),
                diag.begin());
    } else {
      std::fill(diag.begin(), diag.end(), kZero);
    }
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const std::span<W> cell(row.data() + j * s, s);
      if (i >= 1 && in_band(i - 1, j, band_)) {
        std::copy(cell.begin(), cell.end(), up.begin());
      } else {
        std::fill(up.begin(), up.end(), kZero);
      }
      const W e = static_cast<W>((xh ^ y.hi[j]) | (xl ^ y.lo[j]));
      bitops::sw_cell<W>(std::span<const W>(up), std::span<const W>(left),
                         std::span<const W>(diag), e, gap, c1, c2, cell, t,
                         u, r);
      bitops::max_b<W>(std::span<const W>(best), std::span<const W>(cell),
                       std::span<W>(best));
      std::copy(cell.begin(), cell.end(), left.begin());
      std::copy(up.begin(), up.end(), diag.begin());
    }
    if (j_lo > 0) {
      std::fill(row.begin() + static_cast<std::ptrdiff_t>((j_lo - 1) * s),
                row.begin() + static_cast<std::ptrdiff_t>(j_lo * s),
                kZero);
    }
  }
  std::copy(best.begin(), best.end(), out_slices.begin());
}

template <bitsim::LaneWord W>
std::vector<std::uint32_t> BandedBpbcAligner<W>::max_scores(
    const encoding::TransposedStrings<W>& x,
    const encoding::TransposedStrings<W>& y) const {
  std::vector<W> slices(s_);
  max_score_slices(x, y, std::span<W>(slices));
  return encoding::untranspose_values<W>(std::span<const W>(slices), s_);
}

namespace {

template <bitsim::LaneWord W>
std::vector<std::uint32_t> run_banded(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys, const ScoreParams& params,
    std::size_t band) {
  constexpr unsigned kLanes = bitsim::word_bits_v<W>;
  const auto bx = encoding::transpose_strings<W>(xs);
  const auto by = encoding::transpose_strings<W>(ys);
  const BandedBpbcAligner<W> aligner(params, bx.length, by.length, band);
  std::vector<std::uint32_t> scores(xs.size(), 0);
  for (std::size_t g = 0; g < bx.groups.size(); ++g) {
    const auto lane_scores = aligner.max_scores(bx.groups[g], by.groups[g]);
    const std::size_t first = g * kLanes;
    const std::size_t used =
        std::min<std::size_t>(kLanes, xs.size() - first);
    std::copy_n(lane_scores.begin(), used,
                scores.begin() + static_cast<std::ptrdiff_t>(first));
  }
  return scores;
}

}  // namespace

std::vector<std::uint32_t> banded_bpbc_max_scores(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys, const ScoreParams& params,
    std::size_t band, LaneWidth width) {
  if (xs.size() != ys.size())
    throw std::invalid_argument("pattern/text count mismatch");
  if (xs.empty()) return {};
  // Banded scoring only instantiates builtin lane words; wide widths clamp
  // to k64 (scores are width-independent).
  return builtin_lane_width(width) == LaneWidth::k32
             ? run_banded<std::uint32_t>(xs, ys, params, band)
             : run_banded<std::uint64_t>(xs, ys, params, band);
}

template class BandedBpbcAligner<std::uint32_t>;
template class BandedBpbcAligner<std::uint64_t>;

}  // namespace swbpbc::sw
