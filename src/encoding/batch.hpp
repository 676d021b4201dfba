// W2B/B2W conversions of the BPBC pipeline (paper Section II): DNA
// string batches into bit-transpose format, and bit-sliced score values
// back to one integer per lane.
//
// DNA is the epsilon = 2 alphabet: a DNA batch is a 2-plane
// PlanarGenericBatch (generic_batch.hpp) — plane 0 holds the low bit and
// plane 1 the high bit of each base's 2-bit code — built by the same
// per-group transpose as transpose_generic_planar, reading the Base codes
// in place. The conversions run the liveness-specialized transpose plans
// of src/bitsim (paper Table I), or naively bit-by-bit for cross-checking.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bitsim/plan.hpp"
#include "bitsim/swapcopy.hpp"
#include "encoding/dna.hpp"
#include "encoding/generic_batch.hpp"
#include "util/status.hpp"

namespace swbpbc::encoding {

/// Converts equal-length DNA strings to bit-transpose format (the paper's
/// "W2B" step): a batch with planes == kBitsPerBase whose rows equal
/// transpose_generic_planar<W>(codes, 2). Returns kInvalidInput, naming
/// the offending index, if lengths differ.
template <bitsim::LaneWord W>
util::Expected<PlanarGenericBatch<W>> try_transpose_strings(
    std::span<const Sequence> seqs,
    TransposeMethod method = TransposeMethod::kPlanned);

/// Throwing convenience wrapper (throws util::StatusError).
template <bitsim::LaneWord W>
PlanarGenericBatch<W> transpose_strings(
    std::span<const Sequence> seqs,
    TransposeMethod method = TransposeMethod::kPlanned);

/// Converts `s`-bit bit-sliced values (slice l = bit l of all W lanes)
/// back to one integer per lane (the paper's "B2W" step).
/// `slices.size()` must equal `s`, and s <= 32.
template <bitsim::LaneWord W>
std::vector<std::uint32_t> untranspose_values(
    std::span<const W> slices, unsigned s,
    TransposeMethod method = TransposeMethod::kPlanned);

/// Inverse helper for tests: per-lane integer values -> `s` slice words.
template <bitsim::LaneWord W>
std::vector<W> transpose_values(std::span<const std::uint32_t> values,
                                unsigned s);

}  // namespace swbpbc::encoding
