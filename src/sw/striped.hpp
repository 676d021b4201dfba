// Striped-SIMD Smith-Waterman (Farrar) with lazy-F deconstruction — the
// rival wordwise engine the paper's Table IV/V comparison needs to be
// honest.
//
// Layout (Farrar 2007): the query is folded into `segments` vectors of
// `lanes` elements; vector i, lane k holds query position k*segments + i.
// The inner loop walks the text once per column and the segments once per
// vector, so consecutive query positions of one lane are `segments`
// vectors apart and the within-column F dependency only couples adjacent
// *vectors* — the cross-segment F carry is deferred.
//
// Lazy-F deconstruction (Snytsar & Mikkelsen 2019): instead of Farrar's
// data-dependent correction loop (re-walk the column until F stops
// rising), the cross-segment carry is an exact decayed max-scan. Because
// validate_scheme() guarantees gap_open >= gap_extend, an F-derived H can
// never seed a *larger* downstream F than the decay chain already
// carries, so log2(lanes) shift-and-max steps (decay = segments *
// gap_extend per whole segment crossed) compute every lane's incoming F
// exactly, and one bounded second pass applies it — with the matching E
// update, which SSW omits but bit-identity to the scalar Gotoh reference
// requires. The pass stops on Farrar's condition: once no lane's carry
// beats ssub(H, open), the column's own F dominates it to the end.
//
// Value semantics are exactly scalar.cpp's scheme_max_score(): unsigned
// saturating cells, diagonal term ssub(add(H, wp), wn) = max(0, H + w).
// Element widths (SSW's scheme, made exact): every pair runs first in
// 8-bit cells when the scheme's constants fit a byte; a result at or
// above 255 - max_positive means some add() may have wrapped, and the
// pair is rescored in the exact width — 16 bits, or 32 when the score
// bound max_positive * m needs it. An 8-bit result below that limit is
// exact: the first wrapping add needs an exact H >= 256 - max_positive,
// and the running max would hold it. So scores are bit-identical across
// element widths.
//
// Build: one column kernel over 128-bit GNU vectors (16 x u8, 8 x u16 or
// 4 x u32 lanes), compiled with the build's flags.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bulk/executor.hpp"
#include "encoding/alphabet.hpp"
#include "encoding/dna.hpp"
#include "sw/bpbc.hpp"
#include "sw/scoring.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {

class Backend;  // sw/backend.hpp

/// Register width of every striped build; lanes per vector are this over
/// the element bits.
inline constexpr unsigned kStripedVectorBits = 128;

/// The build a striped query runs: the element width of its first pass
/// (8 bits when the scheme's constants fit a byte) and of its exact pass
/// (16 or 32).
struct StripedBuild {
  unsigned first_bits = 16;
  unsigned exact_bits = 16;

  /// "16xu8>8xu16": the first pass as lanes x element, and the exact pass
  /// it escalates to (a single "8xu16" when there is no 8-bit pass).
  [[nodiscard]] std::string name() const;
};

/// The build StripedProfile(scheme, query of length m) runs. Throws
/// std::invalid_argument when the score bound overflows 32-bit cells,
/// like the profile.
[[nodiscard]] StripedBuild striped_build(const ScoringScheme& scheme,
                                         std::size_t m);

/// Counts of one striped batch: pairs the 8-bit first pass scored, and how
/// many of them reached 255 - max_positive and were rescored at the exact
/// width (the saturation rate is escalations / byte_pass_pairs).
struct StripedStats {
  std::uint64_t byte_pass_pairs = 0;
  std::uint64_t escalations = 0;
};

/// The precomputed query profile: per alphabet symbol c, the striped
/// positive/negative substitution magnitudes wp(q[p], c) / wn(q[p], c)
/// for every query position p (pad positions score ssub(add(H, 0), max)
/// = 0, and the striped layout keeps them in the top lanes where they
/// can never feed a real cell): one set of planes for the 8-bit pass,
/// one for the exact pass. Construction costs |alphabet| * m work per
/// width; score() amortizes it across every target — the striped analog
/// of the one-off W2B transpose.
///
/// Throws std::invalid_argument when the score bound max_positive * m
/// overflows 32-bit cells (the same budget style as scheme_required_slices) or
/// a query code falls outside the scheme's alphabet.
class StripedProfile {
 public:
  StripedProfile(const ScoringScheme& scheme,
                 std::span<const std::uint8_t> query);

  [[nodiscard]] std::size_t query_length() const { return m_; }
  /// Vectors per column of the exact pass (Farrar's segLen):
  /// ceil(m / lanes()).
  [[nodiscard]] std::size_t segments() const { return exact_.segments; }
  /// Elements per vector of the exact pass: 8 at 16-bit cells, 4 at
  /// 32-bit cells (wide_cells()).
  [[nodiscard]] unsigned lanes() const {
    return kStripedVectorBits / build_.exact_bits;
  }
  /// True when the score bound forced 32-bit cells.
  [[nodiscard]] bool wide_cells() const { return build_.exact_bits == 32; }
  /// True when pairs run first in 8-bit cells.
  [[nodiscard]] bool byte_pass() const { return build_.first_bits == 8; }
  [[nodiscard]] const StripedBuild& build() const { return build_; }

  /// Max local-alignment score of the profiled query against `y`.
  /// `rescored`, when non-null, is set to whether an 8-bit result was
  /// thrown away and the pair rescored at the exact width.
  /// Throws std::out_of_range on target codes outside the alphabet.
  [[nodiscard]] std::uint32_t score(std::span<const std::uint8_t> y,
                                    bool* rescored = nullptr) const;

 private:
  friend class StripedProfileCache;

  // One pass's planes in storage_: `segments` vectors per column, the
  // positive plane at byte offset p and the negative one at n, each
  // [symbol][vector][lane].
  struct Pass {
    std::size_t segments = 0;
    std::size_t p = 0;
    std::size_t n = 0;
  };

  template <class Elem>
  std::uint32_t run(const Pass& pass, std::span<const std::uint8_t> y) const;

  std::size_t m_ = 0;
  StripedBuild build_;
  std::size_t alphabet_size_ = 0;
  std::uint32_t gap_open_ = 0;
  std::uint32_t gap_extend_ = 0;
  // 8-bit results at or above this are rescored: 255 - max_positive.
  std::uint32_t byte_limit_ = 0;
  // Every plane in one allocation: the 8-bit pass's (byte_, when
  // byte_pass()) and the exact pass's (exact_, 16- or 32-bit cells).
  std::vector<unsigned char> storage_;
  Pass byte_;
  Pass exact_;
};

/// Keyed (scheme fingerprint, query) LRU of shared profiles so a
/// database screen — the same query against every chunk — builds its
/// profile once. Thread-safe; hits verify the stored query bytes, so a
/// fingerprint collision can never serve the wrong profile.
class StripedProfileCache {
 public:
  explicit StripedProfileCache(std::size_t capacity = 64);
  ~StripedProfileCache();

  StripedProfileCache(const StripedProfileCache&) = delete;
  StripedProfileCache& operator=(const StripedProfileCache&) = delete;

  std::shared_ptr<const StripedProfile> get(
      const ScoringScheme& scheme, std::span<const std::uint8_t> query) {
    return get(scheme, fingerprint_scheme(scheme), query);
  }

  /// The same lookup with the scheme's fingerprint_scheme() precomputed:
  /// a batch hashes its scheme once, not once per pair.
  std::shared_ptr<const StripedProfile> get(
      const ScoringScheme& scheme, std::uint64_t scheme_key,
      std::span<const std::uint8_t> query);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One pair of alphabet codes (DNA included). Convenience over a
/// throwaway StripedProfile.
[[nodiscard]] std::uint32_t striped_max_score(const encoding::Sequence& x,
                                              const encoding::Sequence& y,
                                              const ScoringScheme& scheme);

/// Bulk scoring of pairs (xs[k], ys[k]) — the striped mirror of
/// try_scheme_max_scores. Validates the scheme and batch shape with
/// typed kInvalidInput (pairs may differ in length, but an empty xs[k]
/// or ys[k] is rejected, as the BPBC front ends reject it); profile
/// construction lands in timings->w2b_ms (the input-prep phase) and the
/// DP in timings->swa_ms. `cache` (optional) amortizes profiles across
/// calls; without it a per-call cache still amortizes within the batch.
/// `stats`, when non-null, accumulates the 8-bit pass's counts.
util::Expected<std::vector<std::uint32_t>> try_striped_max_scores(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys,
    const ScoringScheme& scheme, bulk::Mode mode = bulk::Mode::kSerial,
    StripedProfileCache* cache = nullptr, PhaseTimings* timings = nullptr,
    StripedStats* stats = nullptr);

/// The striped engine as a first-class screening Backend (any valid
/// scheme, DNA or protein). Polls ChunkJob::stop
/// between pairs; reports profile/DP phase timings and the 8-bit pass's
/// counts (ChunkResult::striped_*). Holds its own profile cache unless
/// `cache` is supplied (not owned, must outlive the backend).
std::unique_ptr<Backend> make_striped_backend(
    const ScoringScheme& scheme, bulk::Mode mode = bulk::Mode::kSerial,
    StripedProfileCache* cache = nullptr);

}  // namespace swbpbc::sw
