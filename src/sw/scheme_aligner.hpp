// The bit-sliced Smith-Waterman kernel: one DP sweep per group of W lanes
// under any ScoringScheme — linear or Gotoh affine gaps, uniform
// match/mismatch or epsilon-bit substitution-matrix lookup — at every
// lane width. Every host BPBC front end runs it: the DNA batch function
// and host backend (bpbc.hpp, backend.hpp), the database-store backend
// (db_backend.hpp), and the generic-alphabet front ends below.
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
// per group), OR-reduced over the alphabet. circuit/sw_circuit.hpp
// builds the same mux as a netlist for the op-count/verification tests.
//
// The uniform substitution model runs the paper's matching_B, so a
// uniform linear cell is exactly bitops::sw_cell plus the character
// compare: ops_sw_cell(s, epsilon) operations, within Theorem 6's
// 48s - 18 (asserted on CountingWord by tests/bitops/opcount_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitops/arith.hpp"
#include "db/reader.hpp"
#include "encoding/generic_batch.hpp"
#include "sw/bpbc.hpp"
#include "sw/scoring.hpp"
#include "util/cancel.hpp"

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

/// One DP cell of the kernel: writes H[i][j] into `h` from up =
/// H[i-1][j], left = H[i][j-1] and diag = H[i-1][j-1]. Under an affine
/// scheme `e_run` (E along the row) and `f_up` (F[i-1][j], becoming
/// F[i][j]) are updated in place; a linear scheme ignores both. `h` must
/// not alias any other argument.
template <bitops::SliceWord W>
void scheme_cell(const SchemeCellOperands<W>& k, std::span<const W> up,
                 std::span<const W> left, std::span<const W> diag,
                 std::span<W> e_run, std::span<W> f_up, std::span<W> h) {
  // Branch on the bools, not on span sizes: the kernel's sweep sets them
  // from its template arguments, and unlike a std::size_t (which a
  // uint64_t lane store may alias) they stay known constants in its loop.
  const bool uniform = !k.matrix;
  const W e = uniform ? bitops::mismatch_mask<W>(k.xc, k.yc)
                      : bitops::word_traits<W>::zero();
  if (uniform && !k.affine) {
    // The paper's SW cell (Theorem 6).
    bitops::sw_cell<W>(up, left, diag, e, k.open, k.c1, k.c2, h, k.t, k.u,
                       k.r);
    return;
  }
  // T = max(0, H_diag + w(x_i, y_j)) into t2.
  if (uniform) {
    bitops::matching_b<W>(diag, e, k.c1, k.c2, k.t2, k.r, k.t);
  } else {
    bitops::add_b<W>(diag, k.wp, k.r);
    bitops::ssub_b<W>(std::span<const W>(k.r), k.wn, k.t2);
  }
  const std::span<const W> t(k.t), u(k.u), t2(k.t2);
  if (k.affine) {
    bitops::ssub_b<W>(left, k.open, k.t);
    bitops::ssub_b<W>(std::span<const W>(e_run), k.extend, k.u);
    bitops::max_b<W>(t, u, e_run);
    bitops::ssub_b<W>(up, k.open, k.t);
    bitops::ssub_b<W>(std::span<const W>(f_up), k.extend, k.u);
    bitops::max_b<W>(t, u, f_up);
    bitops::max_b<W>(t2, std::span<const W>(e_run), k.t);
    bitops::max_b<W>(t, std::span<const W>(f_up), h);
  } else {
    bitops::max_b<W>(up, left, k.t);
    bitops::ssub_b<W>(t, k.open, k.u);
    bitops::max_b<W>(t2, u, h);
  }
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
      bulk::Mode mode, encoding::TransposeMethod method,
      PhaseTimings* timings,
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

/// Scores all pairs (xs[k], ys[k]) under `scheme` with full lane-width
/// dispatch (k32..k512, kScalarWide, kAuto + SWBPBC_FORCE_LANE_WIDTH).
/// Character codes must be dense codes of scheme.alphabet(). Typed
/// kInvalidInput on shape violations, out-of-alphabet codes, or an
/// invalid scheme.
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
/// lanes and limb-gathered into wide lane words otherwise, exactly like
/// the DNA db backend. Returns one score per database entry.
///
/// The store's plane_bits must equal scheme.alphabet_bits() and its
/// entry_length the batch length. A shard that fails its first-touch
/// checksum is quarantined: if `corpus` (the original sequences, indexed
/// like the store) is non-empty, that 64-entry slice is re-ingested in
/// memory and rescored bit-identically; otherwise the shard's kDbCorrupt
/// surfaces.
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
