// Bit-transpose ("bit-sliced") storage of string batches over an
// epsilon-bit alphabet — the BPBC input format of paper §II, generalized
// over epsilon as in §IV.
//
// A group packs one string from each of W instances (W = lane-word
// width): plane p of position i holds bit p of character i of all W
// lanes, one instance per bit lane. DNA is the epsilon = 2 instance
// (batch.hpp: plane 0 is the L bit, plane 1 the H bit); the protein
// alphabet is epsilon = 5. The W2B conversion runs the Table I transpose
// plans with the payload width set to epsilon, decomposed into 64-bit
// limb blocks for the wide SIMD lane words (PayloadTranspose), or naively
// bit-by-bit for cross-checking.
//
// The layout is plane-major (all positions of plane p are one contiguous
// row): what the bit-sliced kernel consumes and what the pre-transposed
// db store serves — the db shard format stores plane rows back-to-back,
// so a PlanarGenericView aliases a 64-bit shard mapping zero-copy.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "bitsim/plan.hpp"
#include "bitsim/swapcopy.hpp"
#include "bitsim/wide_transpose.hpp"
#include "encoding/alphabet.hpp"
#include "encoding/dna.hpp"

namespace swbpbc::encoding {

/// How W2B/B2W conversions are implemented.
enum class TransposeMethod {
  kPlanned,  // specialized swap/copy plan (paper's method, Table I)
  kNaive,    // bit-by-bit extraction (reference for tests)
};

/// Upper bound on epsilon accepted by the transposes (codes are bytes).
inline constexpr unsigned kMaxAlphabetPlanes = 8;

/// Non-owning plane-major view of one group of W strings: `row(p)[i]` is
/// plane p of character position i. Aliases a PlanarGeneric or a 64-bit
/// db shard mapping without copying.
template <bitsim::LaneWord W>
struct PlanarGenericView {
  std::size_t length = 0;
  unsigned planes = 0;
  std::array<std::span<const W>, kMaxAlphabetPlanes> rows{};

  [[nodiscard]] std::span<const W> row(unsigned p) const { return rows[p]; }
  [[nodiscard]] W plane(std::size_t i, unsigned p) const {
    return rows[p][i];
  }
};

/// One plane-major group: `rows[p * length + i]` is plane p of position i.
template <bitsim::LaneWord W>
struct PlanarGeneric {
  std::size_t length = 0;
  unsigned planes = 0;
  std::vector<W> rows;

  [[nodiscard]] std::span<const W> row(unsigned p) const {
    return {rows.data() + static_cast<std::size_t>(p) * length, length};
  }

  [[nodiscard]] PlanarGenericView<W> view() const {
    PlanarGenericView<W> v;
    v.length = length;
    v.planes = planes;
    for (unsigned p = 0; p < planes; ++p) v.rows[p] = row(p);
    return v;
  }
};

/// A batch of `count` equal-length strings, split into ceil(count/W)
/// groups. Unused lanes of the final group read as code 0 and must be
/// ignored by consumers.
template <bitsim::LaneWord W>
struct PlanarGenericBatch {
  std::size_t count = 0;
  std::size_t length = 0;
  unsigned planes = 0;
  std::vector<PlanarGeneric<W>> groups;
};

namespace detail {

/// Throws std::invalid_argument unless `bits` is in [1, 8] and every
/// sequence has `length` codes that fit in it (generic_batch.cpp).
void check_batch(std::span<const GenericSequence> seqs, unsigned bits,
                 std::size_t length);

// Transposes one group's characters position by position: gathers one
// epsilon-bit code per lane into a W-word scratch block, runs the Table I
// payload transpose `pt` (64-bit limb decomposition for the wide words),
// and stores the epsilon plane words of position i into the group's rows.
template <bitsim::LaneWord W>
void transpose_group(std::span<const GenericSequence> seqs, std::size_t first,
                     unsigned bits, TransposeMethod method,
                     const bitsim::PayloadTranspose<W>& pt,
                     PlanarGeneric<W>& group) {
  const std::size_t length = group.length;
  const auto emit = [&](std::size_t i, std::span<const W> planes) {
    for (unsigned p = 0; p < bits; ++p)
      group.rows[p * length + i] = planes[p];
  };
  constexpr unsigned kLanes = bitsim::word_bits_v<W>;
  const std::size_t lanes_used =
      std::min<std::size_t>(kLanes, seqs.size() - first);
  std::array<W, kLanes> scratch;

  if (method == TransposeMethod::kNaive) {
    for (std::size_t i = 0; i < length; ++i) {
      scratch.fill(0);
      for (std::size_t lane = 0; lane < lanes_used; ++lane) {
        const std::uint8_t c = seqs[first + lane][i];
        for (unsigned p = 0; p < bits; ++p) {
          if ((c >> p) & 1u) {
            W& w = scratch[p];
            bitsim::set_limb(
                w, static_cast<unsigned>(lane / 64),
                bitsim::get_limb(w, static_cast<unsigned>(lane / 64)) |
                    (std::uint64_t{1} << (lane % 64)));
          }
        }
      }
      emit(i, std::span<const W>(scratch.data(), bits));
    }
    return;
  }

  for (std::size_t i = 0; i < length; ++i) {
    scratch.fill(0);
    for (std::size_t lane = 0; lane < lanes_used; ++lane) {
      scratch[lane] = static_cast<W>(seqs[first + lane][i]);
    }
    pt.apply(std::span<W>(scratch));
    emit(i, std::span<const W>(scratch.data(), bits));
  }
}

// The batch W2B behind every front end, unchecked; `seqs` must share one
// length and every code must fit in `bits`.
template <bitsim::LaneWord W>
PlanarGenericBatch<W> transpose_batch(std::span<const GenericSequence> seqs,
                                      unsigned bits, TransposeMethod method) {
  constexpr unsigned kLanes = bitsim::word_bits_v<W>;
  PlanarGenericBatch<W> batch;
  batch.count = seqs.size();
  batch.length = seqs.empty() ? 0 : seqs.front().size();
  batch.planes = bits;
  const auto pt = method == TransposeMethod::kPlanned
                      ? bitsim::PayloadTranspose<W>::forward(bits)
                      : bitsim::PayloadTranspose<W>();

  const std::size_t n_groups = (seqs.size() + kLanes - 1) / kLanes;
  batch.groups.resize(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g) {
    auto& group = batch.groups[g];
    group.length = batch.length;
    group.planes = bits;
    group.rows.assign(batch.length * bits, 0);
    transpose_group<W>(seqs, g * kLanes, bits, method, pt, group);
  }
  return batch;
}

}  // namespace detail

/// W2B for generic sequences into the plane-major layout; `bits` is
/// epsilon (every character code must fit in it). Throws
/// std::invalid_argument on unequal lengths or out-of-range codes.
template <bitsim::LaneWord W>
PlanarGenericBatch<W> transpose_generic_planar(
    std::span<const GenericSequence> seqs, unsigned bits,
    TransposeMethod method = TransposeMethod::kPlanned) {
  detail::check_batch(seqs, bits, seqs.empty() ? 0 : seqs.front().size());
  return detail::transpose_batch<W>(seqs, bits, method);
}

/// Test/debug helper: reads character i of lane `lane` back out.
template <bitsim::LaneWord W>
std::uint8_t read_code(const PlanarGenericView<W>& group, std::size_t lane,
                       std::size_t i) {
  std::uint8_t c = 0;
  for (unsigned p = 0; p < group.planes; ++p) {
    const std::uint64_t limb =
        bitsim::get_limb(group.plane(i, p), static_cast<unsigned>(lane / 64));
    c = static_cast<std::uint8_t>(c | (((limb >> (lane % 64)) & 1u) << p));
  }
  return c;
}

#define SWBPBC_DECLARE_GENERIC_BATCH(...)                             \
  extern template PlanarGenericBatch<__VA_ARGS__>                     \
  transpose_generic_planar<__VA_ARGS__>(                              \
      std::span<const GenericSequence>, unsigned, TransposeMethod);

SWBPBC_DECLARE_GENERIC_BATCH(std::uint32_t)
SWBPBC_DECLARE_GENERIC_BATCH(std::uint64_t)
SWBPBC_DECLARE_GENERIC_BATCH(bitsim::simd_word<128>)
SWBPBC_DECLARE_GENERIC_BATCH(bitsim::simd_word<256>)
SWBPBC_DECLARE_GENERIC_BATCH(bitsim::simd_word<512>)
#undef SWBPBC_DECLARE_GENERIC_BATCH

}  // namespace swbpbc::encoding
