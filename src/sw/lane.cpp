#include "sw/lane.hpp"

#include <cstdlib>
#include <string>

#include "bitsim/wide_word.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {

unsigned lane_width_bits(LaneWidth width) {
  switch (width) {
    case LaneWidth::k32: return 32;
    case LaneWidth::k64: return 64;
    case LaneWidth::k128: return 128;
    case LaneWidth::k256: return 256;
    case LaneWidth::k512: return 512;
    case LaneWidth::kScalarWide: return 256;
    case LaneWidth::kAuto: return lane_width_bits(resolve_lane_width(width));
  }
  return 64;
}

const char* lane_width_name(LaneWidth width) {
  switch (width) {
    case LaneWidth::k32: return "32";
    case LaneWidth::k64: return "64";
    case LaneWidth::k128: return "128";
    case LaneWidth::k256: return "256";
    case LaneWidth::k512: return "512";
    case LaneWidth::kScalarWide: return "scalar-wide";
    case LaneWidth::kAuto: return "auto";
  }
  return "?";
}

std::optional<LaneWidth> parse_lane_width(std::string_view s) {
  if (s == "32") return LaneWidth::k32;
  if (s == "64") return LaneWidth::k64;
  if (s == "128") return LaneWidth::k128;
  if (s == "256") return LaneWidth::k256;
  if (s == "512") return LaneWidth::k512;
  if (s == "scalar-wide") return LaneWidth::kScalarWide;
  if (s == "auto") return LaneWidth::kAuto;
  return std::nullopt;
}

util::Expected<std::optional<LaneWidth>> parse_forced_lane_width(
    const char* value) {
  if (value == nullptr || *value == '\0') return std::optional<LaneWidth>{};
  const std::optional<LaneWidth> parsed = parse_lane_width(value);
  if (!parsed) {
    return util::Status::invalid_input(
        std::string("SWBPBC_FORCE_LANE_WIDTH: unknown lane width \"") +
        value + "\" (expected 32|64|128|256|512|scalar-wide|auto)");
  }
  return std::optional<LaneWidth>(parsed);
}

namespace {

// The env override is read and validated once: screening hot paths resolve
// the width per chunk, and a mid-run env change must not flip the width.
std::optional<LaneWidth> forced_lane_width() {
  static const std::optional<LaneWidth> cached =
      parse_forced_lane_width(std::getenv("SWBPBC_FORCE_LANE_WIDTH")).value();
  return cached;
}

// kAuto policy: the widest width BOTH the CPU (cpuid at runtime) and the
// compiled codegen (ISA macros at compile time) can execute natively.
// The two gates matter independently: without -march flags GCC lowers a
// 256/512-bit GNU vector to split SSE2 sequences — still ahead of uint64
// on SWA throughput (1.3-1.6x per instance, EXPERIMENTS.md ablation), but
// the native-register 128-bit word wins outright (~2.2-2.4x on the
// AVX-512 CI host) because every bitwise op is one instruction and the
// W2B limb decomposition stays cheap. So k256/k512 are only auto-picked
// when __AVX2__/__AVX512F__ say the codegen actually targets those
// registers; explicit widths and SWBPBC_FORCE_LANE_WIDTH still dispatch
// any width on any host.
LaneWidth auto_lane_width() {
  static const LaneWidth cached = []() -> LaneWidth {
    if constexpr (!bitsim::kWideSimdCompiled) return LaneWidth::k64;
#if defined(__x86_64__) || defined(__i386__)
#if defined(__AVX512F__)
    if (__builtin_cpu_supports("avx512f")) return LaneWidth::k512;
#endif
#if defined(__AVX2__)
    if (__builtin_cpu_supports("avx2")) return LaneWidth::k256;
#endif
    if (__builtin_cpu_supports("sse2")) return LaneWidth::k128;
    return LaneWidth::k64;
#else
    // Non-x86 with GNU vectors: 128-bit vectors are the safe, broadly
    // profitable choice (NEON/AltiVec class registers).
    return LaneWidth::k128;
#endif
  }();
  return cached;
}

}  // namespace

LaneWidth resolve_lane_width(LaneWidth requested) {
  if (const std::optional<LaneWidth> forced = forced_lane_width()) {
    return *forced == LaneWidth::kAuto ? auto_lane_width() : *forced;
  }
  if (requested != LaneWidth::kAuto) return requested;
  return auto_lane_width();
}

}  // namespace swbpbc::sw
