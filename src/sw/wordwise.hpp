// Wordwise Smith-Waterman — the paper's conventional baseline, where each
// DP value occupies one machine word and instances are processed one per
// bulk-execution slot (Table IV, "Wordwise 32-bits").
//
// Not a screening engine: the striped-SIMD engine (sw/striped.hpp) is the
// wordwise rival the dispatcher picks — same one-word-per-cell model, but
// Farrar-striped across SIMD lanes with lazy-F deconstruction, and it
// covers affine gaps and substitution matrices. This deliberately plain
// cell-at-a-time loop (branchless, but unvectorized) stays for two uses:
// the self-check's independent fallback for linear schemes
// (sw/pipeline.cpp) and the Table IV baseline rows in bench/harness.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bulk/executor.hpp"
#include "encoding/dna.hpp"
#include "sw/params.hpp"

namespace swbpbc::sw {

/// Max DP score with unsigned saturating arithmetic — the exact value
/// semantics the BPBC circuit implements (subtract-and-clamp instead of
/// signed max-with-0). Provably equal to scalar max_score; the test suite
/// checks the equivalence property.
std::uint32_t wordwise_max_score(const encoding::Sequence& x,
                                 const encoding::Sequence& y,
                                 const ScoreParams& params);

/// Bulk wordwise scoring of pairs (xs[k], ys[k]).
std::vector<std::uint32_t> wordwise_max_scores(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys, const ScoreParams& params,
    bulk::Mode mode = bulk::Mode::kSerial);

}  // namespace swbpbc::sw
