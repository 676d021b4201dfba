// The redesigned scoring API: sw::ScoringScheme.
//
// ScoreParams (params.hpp) hard-codes the narrowest Smith-Waterman
// scenario — uniform +match/-mismatch substitution with a linear gap.
// Protein database search needs the two generalizations the BPBC
// machinery was parameterized for all along:
//
//   gap model      linear (one magnitude per gap column) or affine
//                  (Gotoh: gap_open for the first column of a gap,
//                  gap_extend for each further column)
//   substitution   uniform match/mismatch, or a dense SubstitutionMatrix
//                  over an epsilon-bit encoding::Alphabet (BLOSUM62 over
//                  the 20 amino acids is the canonical preset)
//
// ScoringScheme is the one scoring type below the entry configs: every
// BPBC engine, backend, the db serve path and the service journal take
// it. ScoreParams (params.hpp) remains for the scalar references and the
// wordwise baselines, and as ScreenConfig::params / ServerConfig::params,
// which those configs lift once through ScoringScheme::from_params()
// (lossless). A scheme that is ScoreParams-expressible fingerprints with
// the same bytes the params triple always hashed to, so existing
// checkpoint streams and request journals keep resuming.
//
// Signed matrix entries and saturating bit-sliced arithmetic: an entry
// w(a, b) is split into a positive magnitude wp = max(w, 0) and a
// negative magnitude wn = max(-w, 0) (exactly one is nonzero). The
// kernels compute the diagonal term as ssub(add(H_diag, wp), wn), which
// equals max(0, H_diag + w) — the clamp the local-alignment recurrence
// performs anyway. scheme_required_slices() budgets the slice count so
// add() never wraps: max_positive_entry * min(m, n) bits, and every
// constant (gap_open, gap_extend, wp, wn) representable.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "encoding/alphabet.hpp"
#include "sw/params.hpp"
#include "util/checksum.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {

enum class GapModel : std::uint8_t {
  kLinear = 0,  // every gap column costs gap_open
  kAffine = 1,  // Gotoh: gap_open for the first column, gap_extend after
};

/// Dense substitution matrix over a fixed symbol alphabet. Entries are
/// signed (BLOSUM-style); `entries[a * size + b]` is w(code a, code b).
/// Construction only stores; shape and content rules are reported with
/// typed field-naming kInvalidInput by validate_scheme(), matching the
/// spec-builder validation style.
class SubstitutionMatrix {
 public:
  SubstitutionMatrix(std::string name, std::string_view symbols,
                     std::vector<std::int8_t> entries);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& symbols() const { return symbols_; }
  [[nodiscard]] std::size_t size() const { return symbols_.size(); }
  /// Bits per character code (epsilon): bit_width(size - 1), at least 1.
  [[nodiscard]] unsigned bits() const;
  /// The alphabet the matrix scores over (symbol i has code i).
  [[nodiscard]] const encoding::Alphabet& alphabet() const;

  /// w(a, b); throws std::out_of_range on codes outside the alphabet.
  [[nodiscard]] int at(std::uint8_t a, std::uint8_t b) const;
  [[nodiscard]] const std::vector<std::int8_t>& entries() const {
    return entries_;
  }

  /// Largest entry (the per-cell score growth bound) and the magnitude of
  /// the most negative entry. Zero on an empty/degenerate matrix.
  [[nodiscard]] std::uint32_t max_positive() const { return max_positive_; }
  [[nodiscard]] std::uint32_t max_negative() const { return max_negative_; }

  /// True when entries() has exactly size()^2 values — the shape
  /// validate_scheme() enforces before any kernel consumes the matrix.
  [[nodiscard]] bool shape_ok() const {
    return entries_.size() == symbols_.size() * symbols_.size();
  }

 private:
  std::string name_;
  std::string symbols_;
  std::vector<std::int8_t> entries_;
  std::uint32_t max_positive_ = 0;
  std::uint32_t max_negative_ = 0;
  mutable std::shared_ptr<const encoding::Alphabet> alphabet_;  // lazy
};

/// The BLOSUM62 preset over encoding::protein_alphabet() (20 amino
/// acids, epsilon = 5). Entry range [-4, +11].
std::shared_ptr<const SubstitutionMatrix> blosum62();

/// The complete scoring model of one screening run.
struct ScoringScheme {
  // Substitution: uniform +match/-mismatch over the DNA alphabet when
  // `matrix` is empty; matrix lookup over matrix->alphabet() otherwise
  // (match/mismatch are then ignored).
  std::uint32_t match = 2;
  std::uint32_t mismatch = 1;
  std::shared_ptr<const SubstitutionMatrix> matrix;
  // Gap model. Linear reads gap_open as the per-column magnitude (the old
  // ScoreParams::gap) and ignores gap_extend.
  GapModel gap_model = GapModel::kLinear;
  std::uint32_t gap_open = 1;
  std::uint32_t gap_extend = 1;

  /// Lossless lift of a ScoreParams triple (the entry configs' `params`).
  [[nodiscard]] static ScoringScheme from_params(const ScoreParams& p) {
    ScoringScheme s;
    s.match = p.match;
    s.mismatch = p.mismatch;
    s.gap_model = GapModel::kLinear;
    s.gap_open = p.gap;
    s.gap_extend = p.gap;
    return s;
  }

  [[nodiscard]] bool uniform() const { return matrix == nullptr; }
  [[nodiscard]] bool affine() const {
    return gap_model == GapModel::kAffine;
  }
  /// True when the scheme is exactly a ScoreParams (linear + uniform) —
  /// such schemes keep the params triple's fingerprint bytes.
  [[nodiscard]] bool params_expressible() const {
    return uniform() && gap_model == GapModel::kLinear;
  }
  /// The triple back out, for the scalar and wordwise references; empty
  /// unless params_expressible().
  [[nodiscard]] std::optional<ScoreParams> to_params() const {
    if (!params_expressible()) return std::nullopt;
    return ScoreParams{match, mismatch, gap_open};
  }

  /// The alphabet scored over (DNA when uniform).
  [[nodiscard]] const encoding::Alphabet& alphabet() const;
  /// Bits per character (epsilon): 2 when uniform, matrix->bits() else.
  [[nodiscard]] unsigned alphabet_bits() const;

  /// Per-cell score growth bound (match, or the matrix's largest entry)
  /// and the largest substitution penalty magnitude.
  [[nodiscard]] std::uint32_t max_positive() const;
  [[nodiscard]] std::uint32_t max_negative() const;

  /// w(a, b) as a signed value, uniform or matrix.
  [[nodiscard]] int substitution(std::uint8_t a, std::uint8_t b) const {
    if (matrix) return matrix->at(a, b);
    return a == b ? static_cast<int>(match) : -static_cast<int>(mismatch);
  }
};

/// Short human name for reports: "linear/match-mismatch",
/// "affine/blosum62", ...
[[nodiscard]] std::string scheme_name(const ScoringScheme& scheme);

/// Cross-field validation with typed field-naming kInvalidInput (the
/// spec-builder style); `field` prefixes every message (default
/// "scoring.scheme"). Rules: positive match (uniform), positive
/// gap_open, affine gap_extend in [1, gap_open], matrix shape
/// entries == size^2, a positive max entry, and a representable
/// alphabet (2..256 symbols).
[[nodiscard]] util::Status validate_scheme(
    const ScoringScheme& scheme, std::string_view field = "scoring.scheme");

/// Typed kInvalidInput naming `side`[k][i] when a code of `seqs` falls
/// outside scheme.alphabet() — what every front end checks before W2B. A
/// branch-free max reduction per sequence (encoding::find_code_at_least);
/// only a failing sequence is scanned for the position.
[[nodiscard]] util::Status validate_codes(
    std::span<const encoding::GenericSequence> seqs,
    const ScoringScheme& scheme, const char* side);

/// Number of bit slices `s` for pattern length m and text length n under
/// `scheme` — bit_width(max_positive * min(m, n)), floored so every
/// constant (gaps, wp, wn) is representable. Throws std::invalid_argument
/// above 32 slices. Note: the paper states ceil(log2(c1*m)), which is one
/// bit short when c1*m is a power of two (m = 128, c1 = 2 -> score 256
/// needs 9 bits); see DESIGN.md.
[[nodiscard]] unsigned scheme_required_slices(const ScoringScheme& scheme,
                                              std::size_t m, std::size_t n);

/// The "same scoring scheme" identity used by checkpoint-stream
/// fingerprints and the service request journal (a stream written under
/// a different scheme must never resume/replay). ScoreParams-expressible
/// schemes chain just match, mismatch and gap_open — the bytes every
/// stream written before the redesign carries; anything else chains a
/// domain tag, the gap model, both gap magnitudes, and the full matrix
/// bytes (symbols + entries) — a changed matrix cell is a different
/// scheme.
[[nodiscard]] std::uint64_t fingerprint_scheme(
    const ScoringScheme& scheme, std::uint64_t h = util::kFnvOffset);

}  // namespace swbpbc::sw
