// The bit-sliced Smith-Waterman kernel: one DP sweep per group of W lanes
// under any ScoringScheme — linear or Gotoh affine gaps, uniform
// match/mismatch or epsilon-bit substitution-matrix lookup — at every
// lane width. Every host BPBC front end runs it: the in-memory batch
// front ends and host backend (bpbc.cpp: DNA batches are its 2-plane
// instance) and the database-store front ends (db_backend.cpp), declared
// in bpbc.hpp, backend.hpp, db_backend.hpp and below.
//
// Gap model (Gotoh, paper §III generalized): three bit-sliced chains
//
//   E[i][j] = max(H[i][j-1] - open, E[i][j-1] - extend)   left chain
//   F[i][j] = max(H[i-1][j] - open, F[i-1][j] - extend)   up chain
//   H[i][j] = max(T, E[i][j], F[i][j])                    cell
//
// with saturating SSub_B (values clamp at zero, which is exactly the
// local-alignment max-with-0). A linear scheme collapses E/F to the
// paper's one-chain cell H = max(T, SSub(max(up, left), open)) — the
// same value as max(SSub(up), SSub(left)) under saturating arithmetic,
// one SSub_B and one max_B cheaper (DESIGN.md decision 19).
//
// Substitution lookup: a signed matrix entry w(a, b) is split into a
// positive magnitude plane set wp (bit_width(max positive entry) planes)
// and a negative magnitude plane set wn, and the diagonal term becomes
//
//   T = SSub_B(Add_B(H_diag, WP), WN)  ==  max(0, H_diag + w)
//
// per lane. WP/WN are selected per cell by a bit-plane mux keyed on the
// query/target epsilon planes: one-hot equality masks eq_x[a] (computed
// once per DP row) AND per-column profiles row_or[a][l][j] (the OR of
// eq_y[b] over all b whose entry w(a, b) has bit l set, computed once
// per group), OR-reduced over the alphabet: 2 * sigma ops per magnitude
// plane per cell, on top of the cell itself.
//
// The uniform substitution model runs the paper's matching_B, so a
// uniform linear cell is exactly bitops::sw_cell plus the character
// compare: ops_sw_cell(s, epsilon) operations, within Theorem 6's
// 48s - 18, plus one max_B for the running maximum it folds in.
//
// Execution (DESIGN.md decision 24): scheme_cell below fuses those
// primitives into one slice pass per dependency level, and the sweep
// swaps two rows of H slices per DP row instead of copying per cell. The
// device simulator's SWA stage (device/sw_stage_kernels.hpp) runs the
// same cell.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "bitops/arith.hpp"
#include "bitops/slices.hpp"
#include "bulk/executor.hpp"
#include "db/reader.hpp"
#include "encoding/batch.hpp"
#include "encoding/generic_batch.hpp"
#include "sw/bpbc.hpp"
#include "sw/scoring.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace swbpbc::sw {

/// Operands of one kernel cell that stay fixed across a DP sweep.
template <bitops::SliceWord W>
struct SchemeCellOperands {
  // Broadcast scheme constants, s slices each (c1/c2: uniform only).
  std::span<const W> open, extend, c1, c2;
  bool affine = false;
  bool matrix = false;
  // The cell's substitution: the epsilon character planes of x_i and y_j
  // under a uniform scheme, or the mux's sign-split magnitudes of
  // w(x_i, y_j) (s slices each) under a matrix scheme.
  std::span<const W> xc, yc, wp, wn;
  // Scratch, s slices each, distinct from every other operand.
  std::span<W> t, u, r, t2;
};

namespace detail {

// Ripple-chain steps of the Lemma 2-4 primitives at slice l, with the
// carry (or borrow) of slice l-1 in `p`. kFirst is slice 0, where no
// carry enters, so it costs the primitives' cheaper slice-0 form. Forced
// inline, like slice_pass below: a multi-limb word is otherwise passed
// through memory on every step.

/// a ^ b (^ p): the sum bit of a + b and the difference bit of a - b.
template <bool kFirst, class W>
[[gnu::always_inline]] inline W sum_bit(W a, W b, W p) {
  if constexpr (kFirst) return a ^ b;
  else return a ^ b ^ p;
}
/// Carry out of a + b (add_b).
template <bool kFirst, class W>
[[gnu::always_inline]] inline W carry_bit(W a, W b, W p) {
  if constexpr (kFirst) return a & b;
  else return (a & (b ^ p)) | (b & p);
}
/// Borrow out of a - b (ge_mask, ssub_b): after the last slice, 1 on the
/// lanes where a < b.
template <bool kFirst, class W>
[[gnu::always_inline]] inline W borrow_bit(W a, W b, W p) {
  if constexpr (kFirst) return ~a & b;
  else return (b & p) | (~a & (b ^ p));
}

/// Runs `step(l, first)` over slices 0..s-1, with `first` a
/// std::bool_constant that is true only at slice 0. Forced inline: the
/// chains' carries are locals captured by `step`, and they stay in
/// registers only once the pass is inlined into the cell.
template <class Step>
[[gnu::always_inline]] inline void slice_pass(std::size_t s, Step&& step) {
  step(std::size_t{0}, std::true_type{});
  for (std::size_t l = 1; l < s; ++l) step(l, std::false_type{});
}

/// The cell under one (substitution, gap) model; see scheme_cell.
template <bool kMatrix, bool kAffine, bitops::SliceWord W>
void fused_cell(const SchemeCellOperands<W>& k, std::span<const W> up_s,
                std::span<const W> left_s, std::span<const W> diag_s,
                std::span<W> e_run_s, std::span<W> f_up_s, std::span<W> h_s,
                std::span<W> best_s) {
  constexpr W kZero = bitops::word_traits<W>::zero();
  // Local copies: a lane store may alias the operand struct or a span
  // size (std::uint64_t is std::size_t here), and these must stay in
  // registers across the passes.
  const std::size_t s = h_s.size();
  const W* up = up_s.data();
  const W* left = left_s.data();
  const W* diag = diag_s.data();
  W* e_run = e_run_s.data();
  W* f_up = f_up_s.data();
  W* h = h_s.data();
  W* best = best_s.data();
  const W* open = k.open.data();
  const W* extend = k.extend.data();
  const W* c1 = k.c1.data();
  const W* c2 = k.c2.data();
  const W* wp = k.wp.data();
  const W* wn = k.wn.data();
  W* t = k.t.data();
  W* u = k.u.data();
  W* r = k.r.data();
  W* t2 = k.t2.data();
  const W e = kMatrix ? kZero : bitops::mismatch_mask<W>(k.xc, k.yc);

  // Pass 1: every chain that reads only the cell's inputs. Diagonal:
  // diag + c1 into r and diag - c2 into t (uniform), or diag + wp rippling
  // into - wn bit by bit into t (matrix). Linear: ge-borrow of (up, left).
  // Affine: the four gap chains left - open (u), E - extend (e_run),
  // up - open (t2) and F - extend (f_up), unclamped.
  W pa = kZero, ps = kZero, pm = kZero;
  W pe1 = kZero, pe2 = kZero, pf1 = kZero, pf2 = kZero;
  slice_pass(s, [&](std::size_t l, auto first) {
    constexpr bool f = decltype(first)::value;
    const W d = diag[l];
    if constexpr (kMatrix) {
      const W sum = sum_bit<f>(d, wp[l], pa);
      pa = carry_bit<f>(d, wp[l], pa);
      t[l] = sum_bit<f>(sum, wn[l], ps);
      ps = borrow_bit<f>(sum, wn[l], ps);
    } else {
      r[l] = sum_bit<f>(d, c1[l], pa);
      pa = carry_bit<f>(d, c1[l], pa);
      t[l] = sum_bit<f>(d, c2[l], ps);
      ps = borrow_bit<f>(d, c2[l], ps);
    }
    const W a = up[l];
    const W b = left[l];
    if constexpr (kAffine) {
      const W ev = e_run[l];
      const W fv = f_up[l];
      u[l] = sum_bit<f>(b, open[l], pe1);
      pe1 = borrow_bit<f>(b, open[l], pe1);
      e_run[l] = sum_bit<f>(ev, extend[l], pe2);
      pe2 = borrow_bit<f>(ev, extend[l], pe2);
      t2[l] = sum_bit<f>(a, open[l], pf1);
      pf1 = borrow_bit<f>(a, open[l], pf1);
      f_up[l] = sum_bit<f>(fv, extend[l], pf2);
      pf2 = borrow_bit<f>(fv, extend[l], pf2);
    } else {
      pm = borrow_bit<f>(a, b, pm);
    }
  });

  // Pass 2: T = max(0, diag + w) into r (the mismatch select with the
  // c2 clamp folded in, or the matrix clamp). Linear: max(up, left) and
  // its - open chain into u. Affine: clamp the gap chains and run the
  // ge-borrows of E and F.
  const W gm = kAffine ? kZero : ~pm;  // linear: up >= left
  W pg = kZero, pe = kZero, pf = kZero;
  slice_pass(s, [&](std::size_t l, auto first) {
    constexpr bool f = decltype(first)::value;
    if constexpr (kMatrix) {
      r[l] = t[l] & ~ps;
    } else {
      r[l] = (r[l] & ~e) | ((t[l] & ~ps) & e);
    }
    if constexpr (kAffine) {
      const W e1 = u[l] & ~pe1;
      const W e2 = e_run[l] & ~pe2;
      const W f1 = t2[l] & ~pf1;
      const W f2 = f_up[l] & ~pf2;
      u[l] = e1;
      e_run[l] = e2;
      t2[l] = f1;
      f_up[l] = f2;
      pe = borrow_bit<f>(e1, e2, pe);
      pf = borrow_bit<f>(f1, f2, pf);
    } else {
      const W mx = (up[l] & gm) | (left[l] & ~gm);
      u[l] = sum_bit<f>(mx, open[l], pg);
      pg = borrow_bit<f>(mx, open[l], pg);
    }
  });

  // Pass 3. Linear: clamp U = max(max(up, left) - open, 0) and run the
  // ge-borrow of (T, U). Affine: select E and F (into e_run and f_up)
  // and run the ge-borrow of (T, E).
  const W ge = kAffine ? ~pe : kZero;
  const W gf = kAffine ? ~pf : kZero;
  W pt = kZero;
  slice_pass(s, [&](std::size_t l, auto first) {
    constexpr bool f = decltype(first)::value;
    if constexpr (kAffine) {
      const W ev = (u[l] & ge) | (e_run[l] & ~ge);
      e_run[l] = ev;
      f_up[l] = (t2[l] & gf) | (f_up[l] & ~gf);
      pt = borrow_bit<f>(r[l], ev, pt);
    } else {
      const W uc = u[l] & ~pg;
      u[l] = uc;
      pt = borrow_bit<f>(r[l], uc, pt);
    }
  });

  // H = max(a, b) with the ge-borrow of (a, b) in pt: linear (T, U),
  // affine (max(T, E), F) after one more pass.
  const W* hb = u;
  if constexpr (kAffine) {
    const W gt = ~pt;
    pt = kZero;
    slice_pass(s, [&](std::size_t l, auto first) {
      constexpr bool f = decltype(first)::value;
      const W te = (r[l] & gt) | (e_run[l] & ~gt);
      r[l] = te;
      pt = borrow_bit<f>(te, f_up[l], pt);
    });
    hb = f_up;
  }
  // Select H and run the ge-borrow of (best, H); then fold H into best.
  const W gh = ~pt;
  W pb = kZero;
  slice_pass(s, [&](std::size_t l, auto first) {
    constexpr bool f = decltype(first)::value;
    const W hv = (r[l] & gh) | (hb[l] & ~gh);
    h[l] = hv;
    pb = borrow_bit<f>(best[l], hv, pb);
  });
  const W gb = ~pb;
  for (std::size_t l = 0; l < s; ++l) best[l] = (best[l] & gb) | (h[l] & ~gb);
}

}  // namespace detail

/// One DP cell of the kernel: writes H[i][j] into `h` from up =
/// H[i-1][j], left = H[i][j-1] and diag = H[i-1][j-1], and folds it into
/// the running maximum: best = max(best, H[i][j]). Under an affine scheme
/// `e_run` (E along the row) and `f_up` (F[i-1][j], becoming F[i][j]) are
/// updated in place; a linear scheme ignores both. `h` and `best` must
/// not alias each other or any other argument.
///
/// The cell is the Lemma 2-5 primitives of bitops (arith.hpp) fused into
/// a few passes over the s slices, one per dependency level: each pass
/// advances every carry or borrow chain whose operands are ready, so the
/// independent chains of one cell overlap instead of running back to
/// back (DESIGN.md decision 24). The fusion reorders the primitives'
/// bitwise operations and adds none: the uniform linear cell is exactly
/// bitops::sw_cell plus one max_b, ops_sw_cell(s, epsilon) + ops_max(s)
/// operations.
template <bitops::SliceWord W>
void scheme_cell(const SchemeCellOperands<W>& k, std::span<const W> up,
                 std::span<const W> left, std::span<const W> diag,
                 std::span<W> e_run, std::span<W> f_up, std::span<W> h,
                 std::span<W> best) {
  // Branch on the bools, not on span sizes: the kernel's sweep sets them
  // from its template arguments, so they stay known constants in its loop.
  using detail::fused_cell;
  if (k.matrix && k.affine)
    fused_cell<true, true, W>(k, up, left, diag, e_run, f_up, h, best);
  else if (k.matrix)
    fused_cell<true, false, W>(k, up, left, diag, e_run, f_up, h, best);
  else if (k.affine)
    fused_cell<false, true, W>(k, up, left, diag, e_run, f_up, h, best);
  else
    fused_cell<false, false, W>(k, up, left, diag, e_run, f_up, h, best);
}

/// Scores one group of W lanes under an arbitrary ScoringScheme over
/// plane-major epsilon-bit batches. The scheme must have passed
/// validate_scheme().
template <bitsim::LaneWord W>
class SchemeBpbcAligner {
 public:
  SchemeBpbcAligner(const ScoringScheme& scheme, std::size_t m,
                    std::size_t n);

  [[nodiscard]] unsigned slices() const { return s_; }
  [[nodiscard]] unsigned planes() const { return eps_; }
  [[nodiscard]] std::size_t m() const { return m_; }
  [[nodiscard]] std::size_t n() const { return n_; }

  /// Bit-sliced maxima of all W lanes; out_slices.size() == slices().
  /// Thread-safe (scratch is per-call).
  void max_score_slices(const encoding::PlanarGenericView<W>& x,
                        const encoding::PlanarGenericView<W>& y,
                        std::span<W> out_slices) const;

  /// Word-wise per-lane maxima (B2W of the slice result).
  [[nodiscard]] std::vector<std::uint32_t> max_scores(
      const encoding::PlanarGenericView<W>& x,
      const encoding::PlanarGenericView<W>& y) const;

  /// The SWA and B2W phases of a batch: group g pairs xs[g] with ys[g],
  /// groups run on `mode` (polling `stop` between them), and the first
  /// `count` lane scores come back in group-major order. Fills
  /// timings->swa_ms / b2w_ms when `timings` is non-null.
  [[nodiscard]] std::vector<std::uint32_t> score_groups(
      std::span<const encoding::PlanarGenericView<W>> xs,
      std::span<const encoding::PlanarGenericView<W>> ys, std::size_t count,
      bulk::Mode mode, PhaseTimings* timings,
      const util::StopCondition* stop = nullptr) const;

 private:
  // Column profiles of the matrix mux: leaf[(a * (wp_bits_ + wn_bits_) +
  // l) * n + j] is the OR of eq_y[b][j] over the symbols b in set l of
  // symbol a (positive planes first, then negative).
  void build_profiles(const encoding::PlanarGenericView<W>& y,
                      std::vector<W>& leaf) const;
  // The DP sweep behind max_score_slices, compiled once per (substitution
  // model, gap model) so each combination gets its own branch-free loop.
  template <bool kMatrix, bool kAffine>
  void sweep(const encoding::PlanarGenericView<W>& x,
             const encoding::PlanarGenericView<W>& y,
             std::span<W> out_slices) const;

  ScoringScheme scheme_;
  std::size_t m_ = 0;
  std::size_t n_ = 0;
  unsigned s_ = 0;
  unsigned eps_ = 0;
  bool affine_ = false;
  bool matrix_ = false;
  unsigned wp_bits_ = 0;
  unsigned wn_bits_ = 0;
  std::vector<W> open_, extend_;  // gap magnitudes (linear: open == gap)
  std::vector<W> c1_, c2_;        // uniform match/mismatch constants
  // wp/wn mux sets: sets_[a * (wp_bits_ + wn_bits_) + l] lists the
  // symbols b whose |w(a, b)| magnitude has bit l set (sign-split).
  std::vector<std::vector<std::uint8_t>> sets_;
};

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

namespace detail {

/// One-hot equality mask of epsilon-bit characters at one position
/// against a fixed code: AND over planes of (plane or its complement).
template <bitsim::LaneWord W>
W eq_code(const encoding::PlanarGenericView<W>& v, std::size_t i,
          unsigned eps, std::uint8_t code) {
  W acc = (code & 1u) ? v.plane(i, 0) : static_cast<W>(~v.plane(i, 0));
  for (unsigned p = 1; p < eps; ++p) {
    const W pl = v.plane(i, p);
    acc = acc & (((unsigned{code} >> p) & 1u) ? pl : static_cast<W>(~pl));
  }
  return acc;
}

}  // namespace detail

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
      eqcol[b] = detail::eq_code(y, j, eps_, static_cast<std::uint8_t>(b));
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
        eq_x[a] = detail::eq_code(x, i, eps_, static_cast<std::uint8_t>(a));
    } else {
      for (unsigned p = 0; p < eps_; ++p) xchar[p] = x.plane(i, p);
    }
    std::fill(e_run.begin(), e_run.end(), kZero);

    for (std::size_t j = 1; j <= n; ++j) {
      if constexpr (kMatrix) {
        // Per-bit mux: for each magnitude plane l, OR over the alphabet
        // of (row selector eq_x[a] AND column profile leaf[a][l][j]).
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

/// Scores all pairs (xs[k], ys[k]) under `scheme` with full lane-width
/// dispatch (k32..k512, kScalarWide, kAuto + SWBPBC_FORCE_LANE_WIDTH).
/// Character codes must be dense codes of scheme.alphabet(). Typed
/// kInvalidInput on shape violations, out-of-alphabet codes, or an
/// invalid scheme. Defined with the DNA front end in bpbc.cpp: both run
/// one batch routine.
util::Expected<std::vector<std::uint32_t>> try_scheme_max_scores(
    std::span<const encoding::GenericSequence> xs,
    std::span<const encoding::GenericSequence> ys,
    const ScoringScheme& scheme, LaneWidth width = LaneWidth::kAuto,
    bulk::Mode mode = bulk::Mode::kSerial,
    encoding::TransposeMethod method = encoding::TransposeMethod::kPlanned,
    PhaseTimings* timings = nullptr);

/// Counters of one database-served scheme screen.
struct SchemeDbStats {
  std::uint64_t shards_served = 0;       // zero-copy / limb-gathered
  std::uint64_t shards_quarantined = 0;  // failed first-touch verification
  std::uint64_t shards_reingested = 0;   // rescored from the corpus
  LaneWidth lane_width = LaneWidth::k64;  // resolved serve width
};

/// Screens one query against every entry of a pre-transposed database
/// store under `scheme`: the query is broadcast across all lanes (no
/// query-side W2B), shard plane rows are served zero-copy at 64-bit
/// lanes and limb-gathered into wide lane words otherwise, by the same
/// shard-to-lane routine as the DNA db backend (both in db_backend.cpp).
/// A 32-bit lane request is served at 64. Returns one score per database
/// entry.
///
/// The store's plane_bits must equal scheme.alphabet_bits() and its
/// entry_length the batch length. A shard that fails its first-touch
/// checksum is quarantined: if `corpus` (the original sequences, indexed
/// like the store) is non-empty, that 64-entry slice is re-ingested in
/// memory and rescored bit-identically; otherwise the shard's kDbCorrupt
/// surfaces. A non-empty corpus whose content fingerprint disagrees with
/// the store's is a typed kDbMismatch up front.
util::Expected<std::vector<std::uint32_t>> try_scheme_db_max_scores(
    const encoding::GenericSequence& query, db::Reader& reader,
    const ScoringScheme& scheme, LaneWidth width = LaneWidth::kAuto,
    bulk::Mode mode = bulk::Mode::kSerial,
    std::span<const encoding::GenericSequence> corpus = {},
    SchemeDbStats* stats = nullptr, PhaseTimings* timings = nullptr);

#define SWBPBC_DECLARE_SCHEME_ALIGNER(...) \
  extern template class SchemeBpbcAligner<__VA_ARGS__>;
SWBPBC_DECLARE_SCHEME_ALIGNER(std::uint32_t)
SWBPBC_DECLARE_SCHEME_ALIGNER(std::uint64_t)
SWBPBC_DECLARE_SCHEME_ALIGNER(bitsim::simd_word<128>)
SWBPBC_DECLARE_SCHEME_ALIGNER(bitsim::simd_word<256>)
SWBPBC_DECLARE_SCHEME_ALIGNER(bitsim::simd_word<512>)
SWBPBC_DECLARE_SCHEME_ALIGNER(bitsim::wide_word<256, false>)
#undef SWBPBC_DECLARE_SCHEME_ALIGNER

}  // namespace swbpbc::sw
