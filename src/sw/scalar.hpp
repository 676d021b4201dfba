// Scalar reference Smith-Waterman: full scoring matrix, max score, and
// traceback (paper §III). This is the ground truth every BPBC path is
// cross-checked against, and the detailed-alignment stage of the
// screening pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "encoding/dna.hpp"
#include "sw/params.hpp"
#include "sw/scoring.hpp"

namespace swbpbc::sw {

/// Dense (m+1) x (n+1) scoring matrix, row-major, including the zero
/// boundary row/column (row 0 and column 0 are all zero).
class ScoreMatrix {
 public:
  ScoreMatrix(std::size_t m, std::size_t n)
      : m_(m), n_(n), cells_((m + 1) * (n + 1), 0) {}

  /// d[i][j] with i in [-1, m), j in [-1, n) mapped to [0..m] x [0..n].
  [[nodiscard]] std::uint32_t at(std::size_t i1, std::size_t j1) const {
    return cells_[i1 * (n_ + 1) + j1];
  }
  std::uint32_t& at(std::size_t i1, std::size_t j1) {
    return cells_[i1 * (n_ + 1) + j1];
  }

  [[nodiscard]] std::size_t m() const { return m_; }
  [[nodiscard]] std::size_t n() const { return n_; }

 private:
  std::size_t m_;
  std::size_t n_;
  std::vector<std::uint32_t> cells_;
};

/// Full scoring matrix (used by the Table II golden test and traceback).
ScoreMatrix score_matrix(const encoding::Sequence& x,
                         const encoding::Sequence& y,
                         const ScoreParams& params);

/// Maximum value of the scoring matrix using O(n) memory — the quantity
/// the BPBC screening pass computes per instance.
std::uint32_t max_score(const encoding::Sequence& x,
                        const encoding::Sequence& y,
                        const ScoreParams& params);

/// A reconstructed local alignment.
struct Alignment {
  std::uint32_t score = 0;
  // Half-open ranges of the aligned region in x and y.
  std::size_t x_begin = 0, x_end = 0;
  std::size_t y_begin = 0, y_end = 0;
  // Gapped alignment rows, e.g. "ACT-G" / "AC TG" with '-' for gaps and the
  // middle row marking matches with '|'.
  std::string x_row;
  std::string mid_row;
  std::string y_row;
};

/// Full local alignment with traceback from the matrix maximum. Ties are
/// broken toward the smallest (i, j) in row-major order; traceback prefers
/// diagonal, then up, then left.
Alignment align(const encoding::Sequence& x, const encoding::Sequence& y,
                const ScoreParams& params);

// --- ScoringScheme references (linear/affine gap, uniform/matrix) ------
//
// The scalar ground truth of the redesigned scoring API. Arithmetic is
// the kernels' saturating clamp-at-zero (E/F chains saturate at 0, the
// diagonal term is max(0, H_diag + w)), so every BPBC scheme path is
// bit-identical to these, and a ScoreParams-expressible scheme scores
// exactly like max_score()/align() above.

/// Maximum scoring-matrix value under `scheme` over dense alphabet codes
/// (one byte per character, drawn from scheme.alphabet(); DNA strands
/// are the dna_alphabet() codes).
std::uint32_t scheme_max_score(const encoding::Sequence& x,
                               const encoding::Sequence& y,
                               const ScoringScheme& scheme);

/// Full local alignment with traceback under `scheme`. A
/// ScoreParams-expressible scheme delegates to align() (identical output
/// to the v1 path); otherwise the alignment traces through the Gotoh
/// H/E/F state machine (gap-open/extend aware). Ties prefer diagonal,
/// then up (gap in y), then left, and gaps close as early as possible.
/// Row characters come from scheme.alphabet().
Alignment align_scheme(const encoding::Sequence& x,
                       const encoding::Sequence& y,
                       const ScoringScheme& scheme);

}  // namespace swbpbc::sw
