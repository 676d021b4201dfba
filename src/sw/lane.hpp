// Lane-width selection and runtime dispatch.
//
// The BPBC bulk factor is the lane-word width: 32/64 instances per builtin
// word, 128/256/512 per bitsim::wide_word. LaneWidth names the width for
// the non-template front ends (try_scheme_max_scores, the device
// pipeline, the engine, the screening configs); resolve_lane_width turns
// a request into a concrete width:
//
//   1. SWBPBC_FORCE_LANE_WIDTH (one of "32", "64", "128", "256", "512",
//      "auto") overrides everything — including explicit widths — so CI
//      can drive the whole matrix through unmodified binaries. Parsed
//      once; an unparsable value throws kInvalidInput.
//   2. An explicit width resolves to itself.
//   3. kAuto probes the CPU (cpuid via __builtin_cpu_supports) and picks
//      the widest width it has native registers for (auto_lane_width;
//      DESIGN.md decisions 13 and 25).
//
// Scores are bit-identical across widths (asserted by tests and the CI
// dispatch-matrix smoke), so the choice is purely a throughput knob.
//
// with_lane_word is the one place a LaneWidth becomes a lane-word type:
// every template front end dispatches through it (a CI fence keeps other
// src/ files from switching on the widths themselves). The host kernel's
// front ends ask it for native words: at 256 and 512 lanes it then passes
// the ISA-tagged word that sw/kernel_avx2.cpp or sw/kernel_avx512.cpp
// compiled under -mavx2 / -mavx512f, when cpuid reports that ISA.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "bitsim/wide_word.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {

/// Lane-word width selector for the non-template front ends.
///
/// The values are explicit because batch_fingerprint (sw/pipeline.cpp)
/// hashes the requested width's value into every checkpoint stream:
/// kAuto stays 6, where it sat after the retired 256-lane portable
/// width (value 5), so streams written with width auto keep resuming.
enum class LaneWidth {
  k32 = 0,    // 32 instances per word (paper's GPU-preferred width)
  k64 = 1,    // 64 instances per word (paper's CPU-preferred width)
  k128 = 2,   // bitsim::simd_word<128> (SSE2-class registers)
  k256 = 3,   // 256-bit wide word (AVX2-class registers)
  k512 = 4,   // 512-bit wide word (AVX-512-class registers)
  kAuto = 6,  // resolve_lane_width picks the widest profitable width
};
static_assert(static_cast<int>(LaneWidth::kAuto) == 6,
              "checkpoint fingerprints hash LaneWidth::kAuto as 6");

/// Lanes carried per word at `width` (kAuto resolves first).
[[nodiscard]] unsigned lane_width_bits(LaneWidth width);

/// Stable display/parse name: "32", ..., "512", "auto".
[[nodiscard]] const char* lane_width_name(LaneWidth width);

/// Inverse of lane_width_name; nullopt for anything else.
[[nodiscard]] std::optional<LaneWidth> parse_lane_width(std::string_view s);

/// parse_lane_width for a user-supplied value: a valid name is that
/// width, anything else is a typed kInvalidInput naming `source` (the
/// flag or variable the value came from), the value and the accepted
/// spellings.
[[nodiscard]] util::Expected<LaneWidth> try_parse_lane_width(
    std::string_view value, std::string_view source);

/// Validates a SWBPBC_FORCE_LANE_WIDTH-style override value without
/// touching the process environment: nullptr/empty means "no override"
/// (nullopt), anything else is try_parse_lane_width's result. This is the
/// exact policy resolve_lane_width applies to the real variable — exposed
/// pure so tests and tools can exercise it directly.
[[nodiscard]] util::Expected<std::optional<LaneWidth>>
parse_forced_lane_width(const char* value);

/// Concrete width for `requested` under the policy above. Never returns
/// kAuto. Throws util::StatusError(kInvalidInput) if
/// SWBPBC_FORCE_LANE_WIDTH is set to an unparsable value.
[[nodiscard]] LaneWidth resolve_lane_width(LaneWidth requested);

/// The CPU features the kAuto policy and the kernel selection read.
/// On x86 they are cpuid bits; elsewhere `sse2` stands for 128-bit vector
/// registers (NEON/AltiVec class) and the AVX bits stay false.
struct CpuFeatures {
  bool sse2 = false;
  bool avx2 = false;
  bool avx512f = false;
};

/// This host's features: probed once (__builtin_cpu_supports, which also
/// checks that the OS saves the AVX/AVX-512 register state), then cached.
[[nodiscard]] const CpuFeatures& host_cpu_features();

/// The kAuto policy, a pure function of the CPU: avx512f -> k512, avx2
/// -> k256, sse2 -> k128, otherwise k64. Each wide width runs a kernel
/// compiled for its ISA (kernel_isa), so the widest native registers win.
[[nodiscard]] LaneWidth auto_lane_width(const CpuFeatures& cpu);

/// The ISA the host kernel runs `width` with on `cpu`: kAvx512 for k512
/// under avx512f, kAvx2 for k256 under avx2, kBaseline otherwise (every
/// other width, and a forced wide width on a CPU without its ISA).
[[nodiscard]] bitsim::Isa kernel_isa(LaneWidth width, const CpuFeatures& cpu);

/// Stable display name: "baseline", "avx2", "avx512".
[[nodiscard]] const char* isa_name(bitsim::Isa isa);

/// The ISA-tagged lane words of the per-ISA kernel TUs: bit-identical to
/// simd_word<256> / simd_word<512>, but code for them exists only where
/// kernel_avx2.cpp / kernel_avx512.cpp instantiate it (sw/kernel.hpp).
using Avx2Word = bitsim::isa_word<256, bitsim::Isa::kAvx2>;
using Avx512Word = bitsim::isa_word<512, bitsim::Isa::kAvx512>;

/// Which words with_lane_word passes at 256 and 512 lanes.
enum class LaneWords {
  kBaseline,  // simd_word<256/512>, compiled with the build's flags
  kNative,    // Avx2Word / Avx512Word when kernel_isa says the host runs
              // them; only for callees sw/kernel.hpp declares extern
};

/// Calls `f(std::type_identity<W>{})` with the lane-word type W of a
/// concrete `width` (resolve_lane_width's output) and returns its result;
/// kAuto throws std::invalid_argument. Callers pass a generic lambda, e.g.
/// `[&]<class W>(std::type_identity<W>) { return run<W>(...); }`.
template <LaneWords kWords = LaneWords::kBaseline, class F>
decltype(auto) with_lane_word(LaneWidth width, F&& f) {
  constexpr bool kNative = kWords == LaneWords::kNative;
  switch (width) {
    case LaneWidth::k32:
      return f(std::type_identity<std::uint32_t>{});
    case LaneWidth::k64:
      return f(std::type_identity<std::uint64_t>{});
    case LaneWidth::k128:
      return f(std::type_identity<bitsim::simd_word<128>>{});
    case LaneWidth::k256:
      if constexpr (kNative) {
        if (kernel_isa(width, host_cpu_features()) == bitsim::Isa::kAvx2)
          return f(std::type_identity<Avx2Word>{});
      }
      return f(std::type_identity<bitsim::simd_word<256>>{});
    case LaneWidth::k512:
      if constexpr (kNative) {
        if (kernel_isa(width, host_cpu_features()) == bitsim::Isa::kAvx512)
          return f(std::type_identity<Avx512Word>{});
      }
      return f(std::type_identity<bitsim::simd_word<512>>{});
    case LaneWidth::kAuto:
      break;
  }
  throw std::invalid_argument("with_lane_word needs a resolved lane width");
}

}  // namespace swbpbc::sw
