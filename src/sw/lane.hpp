// Lane-width selection and runtime dispatch.
//
// The BPBC bulk factor is the lane-word width: 32/64 instances per builtin
// word, 128/256/512 per bitsim::wide_word. LaneWidth names the width for
// the non-template front ends (bpbc_max_scores, the device pipeline, the
// engine, the screening configs); resolve_lane_width turns a request into
// a concrete width:
//
//   1. SWBPBC_FORCE_LANE_WIDTH (one of "32", "64", "128", "256", "512",
//      "scalar-wide", "auto") overrides everything — including explicit
//      widths — so CI can drive the whole matrix through unmodified
//      binaries. Parsed once; an unparsable value throws kInvalidInput.
//   2. An explicit width resolves to itself.
//   3. kAuto probes the CPU (cpuid via __builtin_cpu_supports) and picks
//      the widest width measured profitable for the compiled codegen; see
//      DESIGN.md decision 13 and the EXPERIMENTS.md lane-width ablation.
//
// Scores are bit-identical across widths (asserted by tests and the CI
// dispatch-matrix smoke), so the choice is purely a throughput knob.
//
// with_lane_word is the one place a LaneWidth becomes a lane-word type:
// every template front end dispatches through it (a CI fence keeps other
// src/ files from switching on the widths themselves).
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
enum class LaneWidth {
  k32,   // 32 instances per word (paper's GPU-preferred width)
  k64,   // 64 instances per word (paper's CPU-preferred width)
  k128,  // bitsim::simd_word<128> (SSE2-class registers)
  k256,  // bitsim::simd_word<256> (AVX2-class registers)
  k512,  // bitsim::simd_word<512> (AVX-512-class registers)
  // 256 lanes on the portable array-of-uint64 representation — the no-SIMD
  // fallback, kept dispatchable so it stays compiled, tested, and
  // measurable on any host.
  kScalarWide,
  kAuto,  // resolve_lane_width picks the widest profitable width
};

/// Lanes carried per word at `width` (kAuto resolves first).
[[nodiscard]] unsigned lane_width_bits(LaneWidth width);

/// Stable display/parse name: "32", ..., "512", "scalar-wide", "auto".
[[nodiscard]] const char* lane_width_name(LaneWidth width);

/// Inverse of lane_width_name; nullopt for anything else.
[[nodiscard]] std::optional<LaneWidth> parse_lane_width(std::string_view s);

/// Validates a SWBPBC_FORCE_LANE_WIDTH-style override value without
/// touching the process environment: nullptr/empty means "no override"
/// (nullopt), a valid name is that width, anything else is a typed
/// kInvalidInput naming the value and the accepted spellings. This is the
/// exact policy resolve_lane_width applies to the real variable — exposed
/// pure so tests and tools can exercise it directly.
[[nodiscard]] util::Expected<std::optional<LaneWidth>>
parse_forced_lane_width(const char* value);

/// Concrete width for `requested` under the policy above. Never returns
/// kAuto. Throws util::StatusError(kInvalidInput) if
/// SWBPBC_FORCE_LANE_WIDTH is set to an unparsable value.
[[nodiscard]] LaneWidth resolve_lane_width(LaneWidth requested);

/// Calls `f(std::type_identity<W>{})` with the lane-word type W of a
/// concrete `width` (resolve_lane_width's output) and returns its result;
/// kAuto throws std::invalid_argument. Callers pass a generic lambda, e.g.
/// `[&]<class W>(std::type_identity<W>) { return run<W>(...); }`.
template <class F>
decltype(auto) with_lane_word(LaneWidth width, F&& f) {
  switch (width) {
    case LaneWidth::k32:
      return f(std::type_identity<std::uint32_t>{});
    case LaneWidth::k64:
      return f(std::type_identity<std::uint64_t>{});
    case LaneWidth::k128:
      return f(std::type_identity<bitsim::simd_word<128>>{});
    case LaneWidth::k256:
      return f(std::type_identity<bitsim::simd_word<256>>{});
    case LaneWidth::k512:
      return f(std::type_identity<bitsim::simd_word<512>>{});
    case LaneWidth::kScalarWide:
      return f(std::type_identity<bitsim::wide_word<256, false>>{});
    case LaneWidth::kAuto:
      break;
  }
  throw std::invalid_argument("with_lane_word needs a resolved lane width");
}

}  // namespace swbpbc::sw
