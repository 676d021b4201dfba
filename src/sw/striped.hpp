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
// requires. Both passes early-exit the moment the carry decays to zero.
//
// Value semantics are exactly scalar.cpp's scheme_max_score(): unsigned
// saturating cells, diagonal term ssub(add(H, wp), wn) = max(0, H + w).
// Element width (16 vs 32 bits) is chosen deterministically from the
// score bound max_positive * m, so no cell ever wraps and no SSW-style
// overflow-and-rerun is needed; scores are bit-identical across element
// widths and across the SIMD/scalar representations (the
// bitsim::wide_word dispatch pattern: one GNU-vector kernel, one
// std::array kernel, same arithmetic).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bulk/executor.hpp"
#include "encoding/alphabet.hpp"
#include "encoding/dna.hpp"
#include "sw/bpbc.hpp"
#include "sw/scoring.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {

class Backend;  // sw/backend.hpp

/// Kernel representation: GNU vector extensions (SSE2-width, the
/// compiler's native 128-bit ops) or the portable std::array fallback.
/// kAuto picks the vector kernel when the build has it. Purely a
/// throughput knob — scores are bit-identical (the test suite asserts
/// the identity), mirroring bitsim::wide_word's Simd parameter.
enum class StripedRepr : std::uint8_t { kAuto = 0, kVector = 1, kScalar = 2 };

/// True when the build carries the GNU-vector striped kernel.
[[nodiscard]] bool striped_vector_compiled();

/// The precomputed query profile: per alphabet symbol c, the striped
/// positive/negative substitution magnitudes wp(q[p], c) / wn(q[p], c)
/// for every query position p (pad positions score ssub(add(H, 0), max)
/// = 0, and the striped layout keeps them in the top lanes where they
/// can never feed a real cell). Construction costs |alphabet| * m work;
/// score() amortizes it across every target — the striped analog of the
/// one-off W2B transpose.
///
/// Throws std::invalid_argument when the score bound max_positive * m
/// overflows 32-bit cells (the same budget style as scheme_required_slices) or
/// a query code falls outside the scheme's alphabet.
class StripedProfile {
 public:
  StripedProfile(const ScoringScheme& scheme,
                 std::span<const std::uint8_t> query,
                 StripedRepr repr = StripedRepr::kAuto);

  [[nodiscard]] std::size_t query_length() const { return m_; }
  /// Vectors per column (Farrar's segLen): ceil(m / lanes()).
  [[nodiscard]] std::size_t segments() const { return segments_; }
  /// Elements per vector: 8 at 16-bit cells, 4 at 32-bit cells.
  [[nodiscard]] unsigned lanes() const { return lanes_; }
  /// True when the score bound forced 32-bit cells.
  [[nodiscard]] bool wide_cells() const { return wide_; }
  /// The representation the kernel actually runs (kAuto resolved).
  [[nodiscard]] StripedRepr repr() const { return repr_; }

  /// Max local-alignment score of the profiled query against `y`.
  /// Throws std::out_of_range on target codes outside the alphabet.
  [[nodiscard]] std::uint32_t score(std::span<const std::uint8_t> y) const;

 private:
  friend class StripedProfileCache;

  std::size_t m_ = 0;
  std::size_t segments_ = 0;
  unsigned lanes_ = 0;
  bool wide_ = false;
  StripedRepr repr_ = StripedRepr::kAuto;
  std::size_t alphabet_size_ = 0;
  std::uint32_t gap_open_ = 0;
  std::uint32_t gap_extend_ = 0;
  // [symbol][vector][lane], one plane of positive and one of negative
  // substitution magnitudes; exactly one of profile_p16_/profile_p32_ is
  // populated (by wide_).
  std::vector<std::uint16_t> profile_p16_, profile_n16_;
  std::vector<std::uint32_t> profile_p32_, profile_n32_;
};

/// Keyed (scheme fingerprint, query, repr) LRU of shared profiles so a
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
      const ScoringScheme& scheme, std::span<const std::uint8_t> query,
      StripedRepr repr = StripedRepr::kAuto);

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

/// One pair, generic codes. Convenience over a throwaway StripedProfile.
[[nodiscard]] std::uint32_t striped_max_score(
    const encoding::GenericSequence& x, const encoding::GenericSequence& y,
    const ScoringScheme& scheme, StripedRepr repr = StripedRepr::kAuto);

/// One pair, DNA. The bases are their dense codes; a uniform scheme
/// scores them directly.
[[nodiscard]] std::uint32_t striped_max_score(
    const encoding::Sequence& x, const encoding::Sequence& y,
    const ScoringScheme& scheme, StripedRepr repr = StripedRepr::kAuto);

/// Bulk scoring of pairs (xs[k], ys[k]) — the striped mirror of
/// try_scheme_max_scores. Validates the scheme and batch shape with
/// typed kInvalidInput (pairs may differ in length, but an empty xs[k]
/// or ys[k] is rejected, as the BPBC front ends reject it); profile
/// construction lands in timings->w2b_ms (the input-prep phase) and the
/// DP in timings->swa_ms. `cache` (optional) amortizes profiles across
/// calls; without it a per-call cache still amortizes within the batch.
util::Expected<std::vector<std::uint32_t>> try_striped_max_scores(
    std::span<const encoding::GenericSequence> xs,
    std::span<const encoding::GenericSequence> ys,
    const ScoringScheme& scheme, bulk::Mode mode = bulk::Mode::kSerial,
    StripedProfileCache* cache = nullptr, PhaseTimings* timings = nullptr,
    StripedRepr repr = StripedRepr::kAuto);

/// The striped engine as a first-class screening Backend (DNA batch
/// boundary, any uniform scheme incl. affine). Polls ChunkJob::stop
/// between pairs; reports profile/DP phase timings. Holds its own
/// profile cache unless `cache` is supplied (not owned, must outlive the
/// backend).
std::unique_ptr<Backend> make_striped_backend(
    const ScoringScheme& scheme, bulk::Mode mode = bulk::Mode::kSerial,
    StripedProfileCache* cache = nullptr,
    StripedRepr repr = StripedRepr::kAuto);

}  // namespace swbpbc::sw
