#include "encoding/generic_batch.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "bitsim/wide_transpose.hpp"

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

// Transposes one group's characters position by position: gathers one
// epsilon-bit code per lane into a W-word scratch block, runs the Table I
// payload transpose (64-bit limb decomposition for the wide words), and
// stores the epsilon plane words of position i into the group's rows.
template <bitsim::LaneWord W>
void transpose_group(std::span<const GenericSequence> seqs,
                     std::size_t first, unsigned bits,
                     TransposeMethod method, PlanarGeneric<W>& group) {
  const std::size_t length = group.length;
  const auto emit = [&](std::size_t i, std::span<const W> planes) {
    for (unsigned p = 0; p < bits; ++p)
      group.rows[p * length + i] = planes[p];
  };
  constexpr unsigned kLanes = bitsim::word_bits_v<W>;
  const std::size_t lanes_used =
      first < seqs.size()
          ? std::min<std::size_t>(kLanes, seqs.size() - first)
          : 0;
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

  const bitsim::PayloadTranspose<W> pt =
      bitsim::PayloadTranspose<W>::forward(bits);
  for (std::size_t i = 0; i < length; ++i) {
    scratch.fill(0);
    for (std::size_t lane = 0; lane < lanes_used; ++lane) {
      scratch[lane] = static_cast<W>(seqs[first + lane][i]);
    }
    pt.apply(std::span<W>(scratch));
    emit(i, std::span<const W>(scratch.data(), bits));
  }
}

}  // namespace

template <bitsim::LaneWord W>
PlanarGenericBatch<W> transpose_generic_planar(
    std::span<const GenericSequence> seqs, unsigned bits,
    TransposeMethod method) {
  constexpr unsigned kLanes = bitsim::word_bits_v<W>;
  PlanarGenericBatch<W> batch;
  batch.count = seqs.size();
  batch.length = seqs.empty() ? 0 : seqs.front().size();
  batch.planes = bits;
  check_batch(seqs, bits, batch.length);

  const std::size_t n_groups = (seqs.size() + kLanes - 1) / kLanes;
  batch.groups.resize(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g) {
    auto& group = batch.groups[g];
    group.length = batch.length;
    group.planes = bits;
    group.rows.assign(batch.length * bits, 0);
    transpose_group<W>(seqs, g * kLanes, bits, method, group);
  }
  return batch;
}

#define SWBPBC_INSTANTIATE_GENERIC_BATCH(...)                         \
  template PlanarGenericBatch<__VA_ARGS__>                            \
  transpose_generic_planar<__VA_ARGS__>(                              \
      std::span<const GenericSequence>, unsigned, TransposeMethod);

SWBPBC_INSTANTIATE_GENERIC_BATCH(std::uint32_t)
SWBPBC_INSTANTIATE_GENERIC_BATCH(std::uint64_t)
SWBPBC_INSTANTIATE_GENERIC_BATCH(bitsim::simd_word<128>)
SWBPBC_INSTANTIATE_GENERIC_BATCH(bitsim::simd_word<256>)
SWBPBC_INSTANTIATE_GENERIC_BATCH(bitsim::simd_word<512>)
SWBPBC_INSTANTIATE_GENERIC_BATCH(bitsim::wide_word<256, false>)
#undef SWBPBC_INSTANTIATE_GENERIC_BATCH

}  // namespace swbpbc::encoding
