// FNV-1a hashing shared by the checkpoint stream (record checksums, batch
// fingerprints) and the device pipeline's in-band copy-integrity checks.
// Not cryptographic — the adversary is a flipped bit, not an attacker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

namespace swbpbc::util {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// FNV-1a over raw bytes, chainable via `h`.
inline std::uint64_t fnv1a_bytes(const void* data, std::size_t size,
                                 std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a over `Lanes` independent ranges of one common length, in
/// lock-step: the byte-serial multiply chains of different ranges overlap
/// in the pipeline, so several ranges hash in about the time of one. Each
/// h[l] ends as fnv1a_bytes(data[l], size, h[l]) would leave it.
template <std::size_t Lanes>
void fnv1a_lockstep(const std::uint8_t* const (&data)[Lanes],
                    std::size_t size, std::uint64_t (&h)[Lanes]) {
  // Local copies: the byte loads may alias `h`, which would otherwise
  // pin the chains to memory.
  const std::uint8_t* p[Lanes];
  std::uint64_t acc[Lanes];
  for (std::size_t l = 0; l < Lanes; ++l) {
    p[l] = data[l];
    acc[l] = h[l];
  }
  for (std::size_t i = 0; i < size; ++i)
    for (std::size_t l = 0; l < Lanes; ++l)
      acc[l] = (acc[l] ^ p[l][i]) * kFnvPrime;
  for (std::size_t l = 0; l < Lanes; ++l) h[l] = acc[l];
}

/// FNV-1a over the object representation of a span of trivially copyable
/// elements (byte order is the host's; checkpoints are host-local files).
template <typename T>
std::uint64_t fnv1a_span(std::span<const T> data,
                         std::uint64_t h = kFnvOffset) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a_bytes(data.data(), data.size_bytes(), h);
}

/// Chains one trivially copyable value into a running hash.
template <typename T>
std::uint64_t fnv1a_value(const T& v, std::uint64_t h = kFnvOffset) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a_bytes(&v, sizeof(T), h);
}

}  // namespace swbpbc::util
