// Bit-sliced arithmetic for the BPBC Smith-Waterman cell (paper, §IV.A).
//
// Every function below is a literal transcription of the paper's
// pseudo-code, templated on the lane word so that the identical code runs
// with uint32_t/uint64_t lanes in production and with CountingWord in the
// op-count tests. The `ops_*` constexpr functions give the paper's stated
// operation counts (Lemmas 2-5, Theorem 6); tests assert the measured
// counts against them.
//
// Conventions: all values are unsigned s-bit numbers in slice layout
// (slices.hpp); `a.size() == b.size() == q.size() == s`. Output spans may
// alias input spans unless noted.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>

#include "bitops/slices.hpp"

namespace swbpbc::bitops {

/// Paper's `greaterthan(A, B)`: per-lane mask that is 1 where A >= B and 0
/// where A < B (the paper specifies 1 for A > B, 0 for A < B, and leaves
/// ties unspecified; this implementation yields 1 on ties). `p` below is
/// the running borrow of A - B.
template <SliceWord W>
W ge_mask(std::span<const W> a, std::span<const W> b) {
  const std::size_t s = a.size();
  assert(b.size() == s && s > 0);
  W p = ~a[0] & b[0];
  for (std::size_t i = 1; i < s; ++i) {
    p = (b[i] & p) | (~a[i] & (b[i] ^ p));
  }
  return ~p;
}

/// Paper's `max_B(A, B)`: per-lane maximum. Lemma 2: 9s-2 operations.
template <SliceWord W>
void max_b(std::span<const W> a, std::span<const W> b, std::span<W> q) {
  const std::size_t s = a.size();
  assert(b.size() == s && q.size() == s);
  const W p = ge_mask(a, b);
  for (std::size_t i = 0; i < s; ++i) {
    q[i] = (a[i] & p) | (b[i] & ~p);
  }
}

/// Paper's `add_B(A, B)`: per-lane sum, modulo 2^s (callers must size s so
/// that no lane overflows; see scheme_required_slices in sw/scoring.hpp).
///
/// Erratum: the paper initializes the carry as `p <- q0 <- a0 xor b0`,
/// which is not the carry out of bit 0 (consider a0 = 1, b0 = 0: the
/// carry must be 0, not 1). The correct initialization is `p = a0 and
/// b0`, costing one extra operation: 6s - 4 instead of Lemma 3's 6s - 5.
/// `q` must not alias `b`; aliasing `a` is allowed.
template <SliceWord W>
void add_b(std::span<const W> a, std::span<const W> b, std::span<W> q) {
  const std::size_t s = a.size();
  assert(b.size() == s && q.size() == s);
  W p = a[0] & b[0];
  q[0] = a[0] ^ b[0];
  for (std::size_t i = 1; i < s; ++i) {
    const W ai = a[i];
    const W bi = b[i];
    q[i] = ai ^ bi ^ p;
    p = (ai & (bi ^ p)) | (bi & p);
  }
}

/// Paper's `SSub_B(A, B)`: per-lane saturating subtraction max(A - B, 0).
/// Lemma 4: 9s-4 operations. `q` must not alias `b`; aliasing `a` is
/// allowed.
template <SliceWord W>
void ssub_b(std::span<const W> a, std::span<const W> b, std::span<W> q) {
  const std::size_t s = a.size();
  assert(b.size() == s && q.size() == s);
  q[0] = a[0] ^ b[0];
  W p = ~a[0] & b[0];
  for (std::size_t i = 1; i < s; ++i) {
    const W ai = a[i];
    const W bi = b[i];
    q[i] = ai ^ bi ^ p;
    p = (~ai & (bi ^ p)) | (bi & p);
  }
  // Lanes that borrowed out went negative: clamp them to zero.
  for (std::size_t i = 0; i < s; ++i) {
    q[i] = q[i] & ~p;
  }
}

/// Mismatch flag `e` of the paper's `matching_B`: per-lane 1 iff x != y,
/// where x and y are epsilon-bit characters in slice layout
/// (for DNA, epsilon = 2 and the slices are the L and H planes).
template <SliceWord W>
W mismatch_mask(std::span<const W> x, std::span<const W> y) {
  assert(x.size() == y.size() && !x.empty());
  W e = x[0] ^ y[0];
  for (std::size_t i = 1; i < x.size(); ++i) {
    e = e | (x[i] ^ y[i]);
  }
  return e;
}

/// Paper's `matching_B(C, x, y)` with the character comparison factored
/// out: returns Q = C + c1 on lanes where e == 0 (match) and
/// Q = max(C - c2, 0) on lanes where e == 1 (mismatch).
/// Lemma 5 bounds the full matching_B (including the e computation) by
/// 21s-9 operations. Scratch spans `r` and `t` must be distinct from all
/// other arguments.
template <SliceWord W>
void matching_b(std::span<const W> c, W e, std::span<const W> c1,
                std::span<const W> c2, std::span<W> q, std::span<W> r,
                std::span<W> t) {
  const std::size_t s = c.size();
  assert(c1.size() == s && c2.size() == s && q.size() == s &&
         r.size() == s && t.size() == s);
  add_b(c, c1, r);
  ssub_b(c, c2, t);
  for (std::size_t i = 0; i < s; ++i) {
    q[i] = (r[i] & ~e) | (t[i] & e);
  }
}

/// The full BPBC Smith-Waterman cell (paper's `SW(A, B, C, x, y)`):
///
///   SW = max(0, A - gap, B - gap, C + w(x, y))
///
/// with A = d[i-1][j] (up), B = d[i][j-1] (left), C = d[i-1][j-1] (diag)
/// and w = +c1 on match / -c2 saturating on mismatch. All of max_B, SSub_B
/// and matching_B return non-negative values, so the outer max-with-0 is
/// implicit. Theorem 6 bounds this at 48s-18 operations (excluding the
/// character comparison, which callers hoist per column).
///
/// `out` receives the result; scratch spans t/u/r must be distinct from
/// each other and from the inputs. `out` may alias `a`, `b` or `c`.
template <SliceWord W>
void sw_cell(std::span<const W> a, std::span<const W> b,
             std::span<const W> c, W e, std::span<const W> gap,
             std::span<const W> c1, std::span<const W> c2, std::span<W> out,
             std::span<W> t, std::span<W> u, std::span<W> r) {
  max_b(a, b, t);                                      // T = max(A, B)
  ssub_b(std::span<const W>(t), gap, u);               // U = max(T - gap, 0)
  matching_b(c, e, c1, c2, t, r, out);                 // T = C + w(x, y)
  max_b(std::span<const W>(t), std::span<const W>(u), out);
}

// ---------------------------------------------------------------------------
// Operation-count formulas (verified against CountingWord in the tests).

/// Lemma "greaterthan": 3 + 5(s-1) = 5s - 2 (includes the final negation).
constexpr std::uint64_t ops_greaterthan(std::uint64_t s) { return 5 * s - 2; }

/// Lemma 2: max_B performs 9s - 2 operations.
constexpr std::uint64_t ops_max(std::uint64_t s) { return 9 * s - 2; }

/// Lemma 3 states 6s - 5; our corrected carry initialization (see add_b's
/// erratum note) costs 6s - 4.
constexpr std::uint64_t ops_add(std::uint64_t s) { return 6 * s - 4; }

/// Lemma 4: SSub_B performs 9s - 4 operations.
constexpr std::uint64_t ops_ssub(std::uint64_t s) { return 9 * s - 4; }

/// Exact count of our matching_b + mismatch_mask for epsilon-bit chars:
/// add (6s-4) + ssub (9s-4) + select (4s) + compare (2*epsilon - 1).
/// Lemma 5's upper bound is 21s - 9 (it bounds the compare by 2s).
constexpr std::uint64_t ops_matching(std::uint64_t s, std::uint64_t eps) {
  return ops_add(s) + ops_ssub(s) + 4 * s + (2 * eps - 1);
}
constexpr std::uint64_t ops_matching_bound(std::uint64_t s) {
  return 21 * s - 9;
}

/// Exact count of our sw_cell + mismatch_mask: two max_B, one SSub_B and
/// one matching. Theorem 6's bound is 48s - 18.
constexpr std::uint64_t ops_sw_cell(std::uint64_t s, std::uint64_t eps) {
  return 2 * ops_max(s) + ops_ssub(s) + ops_matching(s, eps);
}
constexpr std::uint64_t ops_sw_cell_bound(std::uint64_t s) {
  return 48 * s - 18;
}

/// Exact count of the production kernel's fused DP cell (sw::scheme_cell)
/// per lane word: the diagonal term (matching_B under a uniform scheme;
/// Add_B then SSub_B of the sign-split entry under a matrix scheme), the
/// gap recurrence (linear: max_B, SSub_B, max_B; Gotoh: four SSub_B and
/// four max_B over the E and F chains and H = max(T, E, F)) and one max_B
/// into the running maximum. Uniform linear is ops_sw_cell(s, eps) +
/// ops_max(s); a matrix cell is 51s - 18 (linear) or 96s - 34 (affine),
/// before the mux that selects its entry (ops_matrix_mux).
constexpr std::uint64_t ops_scheme_cell(std::uint64_t s, std::uint64_t eps,
                                        bool matrix, bool affine) {
  const std::uint64_t diag =
      matrix ? ops_add(s) + ops_ssub(s) : ops_matching(s, eps);
  const std::uint64_t gaps = affine ? 4 * ops_ssub(s) + 4 * ops_max(s)
                                    : ops_ssub(s) + 2 * ops_max(s);
  return diag + gaps + ops_max(s);
}

/// The matrix mux per cell: for each of `planes` sign-split magnitude
/// planes, an OR over the `sigma` symbols of (row selector AND column
/// profile word).
constexpr std::uint64_t ops_matrix_mux(std::uint64_t sigma,
                                       std::uint64_t planes) {
  return 2 * sigma * planes;
}

}  // namespace swbpbc::bitops
