// W2B for every alphabet: generic epsilon-bit batches and DNA batches
// (the epsilon = 2 instance, declared in batch.hpp) run one per-group
// transpose, templated on the sequence element type so Base codes are
// read in place.
#include "encoding/generic_batch.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "bitsim/wide_transpose.hpp"
#include "encoding/batch.hpp"

namespace swbpbc::encoding {
namespace {

void check_batch(std::span<const GenericSequence> seqs, unsigned bits,
                 std::size_t length) {
  if (bits == 0 || bits > kMaxAlphabetPlanes)
    throw std::invalid_argument("character width must be in [1, 8] bits");
  const std::uint8_t max_code =
      bits >= 8 ? 0xFF : static_cast<std::uint8_t>((1u << bits) - 1);
  for (const auto& s : seqs) {
    if (s.size() != length)
      throw std::invalid_argument(
          "transpose_generic_planar requires equal-length sequences");
    for (std::uint8_t c : s) {
      if (c > max_code)
        throw std::invalid_argument("character code exceeds plane width");
    }
  }
}

// Character code of one sequence element: a Base is its 2-bit code.
std::uint8_t code_of(std::uint8_t c) { return c; }
std::uint8_t code_of(Base b) { return code(b); }

// Transposes one group's characters position by position: gathers one
// epsilon-bit code per lane into a W-word scratch block, runs the Table I
// payload transpose `pt` (64-bit limb decomposition for the wide words),
// and stores the epsilon plane words of position i into the group's rows.
template <bitsim::LaneWord W, class Seq>
void transpose_group(std::span<const Seq> seqs, std::size_t first,
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
        const std::uint8_t c = code_of(seqs[first + lane][i]);
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
      scratch[lane] = static_cast<W>(code_of(seqs[first + lane][i]));
    }
    pt.apply(std::span<W>(scratch));
    emit(i, std::span<const W>(scratch.data(), bits));
  }
}

// The batch W2B behind both front ends; `seqs` must share one length and
// every code must fit in `bits`.
template <bitsim::LaneWord W, class Seq>
PlanarGenericBatch<W> transpose_batch(std::span<const Seq> seqs,
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

}  // namespace

template <bitsim::LaneWord W>
PlanarGenericBatch<W> transpose_generic_planar(
    std::span<const GenericSequence> seqs, unsigned bits,
    TransposeMethod method) {
  check_batch(seqs, bits, seqs.empty() ? 0 : seqs.front().size());
  return transpose_batch<W>(seqs, bits, method);
}

template <bitsim::LaneWord W>
util::Expected<PlanarGenericBatch<W>> try_transpose_strings(
    std::span<const Sequence> seqs, TransposeMethod method) {
  const std::size_t length = seqs.empty() ? 0 : seqs.front().size();
  for (std::size_t k = 0; k < seqs.size(); ++k) {
    if (seqs[k].size() != length)
      return util::Status::invalid_input(
          "transpose_strings requires equal-length sequences: seqs[" +
          std::to_string(k) + "] has length " +
          std::to_string(seqs[k].size()) + ", batch requires " +
          std::to_string(length));
  }
  return transpose_batch<W>(seqs, kBitsPerBase, method);
}

template <bitsim::LaneWord W>
PlanarGenericBatch<W> transpose_strings(std::span<const Sequence> seqs,
                                        TransposeMethod method) {
  return try_transpose_strings<W>(seqs, method).value();
}

// Explicit instantiations for every lane width the library dispatches:
// builtin 32/64 plus the SIMD wide words and the forced-scalar fallback.
#define SWBPBC_INSTANTIATE_GENERIC_BATCH(...)                              \
  template PlanarGenericBatch<__VA_ARGS__>                                 \
  transpose_generic_planar<__VA_ARGS__>(                                   \
      std::span<const GenericSequence>, unsigned, TransposeMethod);        \
  template util::Expected<PlanarGenericBatch<__VA_ARGS__>>                 \
  try_transpose_strings<__VA_ARGS__>(std::span<const Sequence>,            \
                                     TransposeMethod);                     \
  template PlanarGenericBatch<__VA_ARGS__> transpose_strings<__VA_ARGS__>( \
      std::span<const Sequence>, TransposeMethod);

SWBPBC_INSTANTIATE_GENERIC_BATCH(std::uint32_t)
SWBPBC_INSTANTIATE_GENERIC_BATCH(std::uint64_t)
SWBPBC_INSTANTIATE_GENERIC_BATCH(bitsim::simd_word<128>)
SWBPBC_INSTANTIATE_GENERIC_BATCH(bitsim::simd_word<256>)
SWBPBC_INSTANTIATE_GENERIC_BATCH(bitsim::simd_word<512>)
SWBPBC_INSTANTIATE_GENERIC_BATCH(bitsim::wide_word<256, false>)
#undef SWBPBC_INSTANTIATE_GENERIC_BATCH

}  // namespace swbpbc::encoding
