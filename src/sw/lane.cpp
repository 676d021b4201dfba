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
  if (s == "auto") return LaneWidth::kAuto;
  return std::nullopt;
}

util::Expected<LaneWidth> try_parse_lane_width(std::string_view value,
                                               std::string_view source) {
  if (const std::optional<LaneWidth> parsed = parse_lane_width(value))
    return *parsed;
  return util::Status::invalid_input(
      std::string(source) + ": unknown lane width \"" + std::string(value) +
      "\" (expected 32|64|128|256|512|auto)");
}

util::Expected<std::optional<LaneWidth>> parse_forced_lane_width(
    const char* value) {
  if (value == nullptr || *value == '\0') return std::optional<LaneWidth>{};
  util::Expected<LaneWidth> parsed =
      try_parse_lane_width(value, "SWBPBC_FORCE_LANE_WIDTH");
  if (!parsed.has_value()) return parsed.status();
  return std::optional<LaneWidth>(*parsed);
}

namespace {

// The env override is read and validated once: screening hot paths resolve
// the width per chunk, and a mid-run env change must not flip the width.
std::optional<LaneWidth> forced_lane_width() {
  static const std::optional<LaneWidth> cached =
      parse_forced_lane_width(std::getenv("SWBPBC_FORCE_LANE_WIDTH")).value();
  return cached;
}

}  // namespace

const CpuFeatures& host_cpu_features() {
  static const CpuFeatures cached = [] {
    CpuFeatures cpu;
#if defined(__x86_64__) || defined(__i386__)
    cpu.sse2 = __builtin_cpu_supports("sse2") != 0;
    cpu.avx2 = __builtin_cpu_supports("avx2") != 0;
    cpu.avx512f = __builtin_cpu_supports("avx512f") != 0;
#else
    cpu.sse2 = true;
#endif
    return cpu;
  }();
  return cached;
}

// Every wide width runs native registers where the CPU has them: k256
// and k512 dispatch to the kernel TUs compiled for AVX2 and AVX-512, so
// the widest ISA the CPU reports wins (EXPERIMENTS.md lane-width
// ablation). A 128-bit GNU vector is one SSE2 register on any x86-64.
LaneWidth auto_lane_width(const CpuFeatures& cpu) {
  if (cpu.avx512f) return LaneWidth::k512;
  if (cpu.avx2) return LaneWidth::k256;
  if (cpu.sse2) return LaneWidth::k128;
  return LaneWidth::k64;
}

bitsim::Isa kernel_isa(LaneWidth width, const CpuFeatures& cpu) {
  if (width == LaneWidth::k512 && cpu.avx512f) return bitsim::Isa::kAvx512;
  if (width == LaneWidth::k256 && cpu.avx2) return bitsim::Isa::kAvx2;
  return bitsim::Isa::kBaseline;
}

const char* isa_name(bitsim::Isa isa) {
  switch (isa) {
    case bitsim::Isa::kBaseline: return "baseline";
    case bitsim::Isa::kAvx2: return "avx2";
    case bitsim::Isa::kAvx512: return "avx512";
  }
  return "?";
}

LaneWidth resolve_lane_width(LaneWidth requested) {
  if (const std::optional<LaneWidth> forced = forced_lane_width()) {
    return *forced == LaneWidth::kAuto ? auto_lane_width(host_cpu_features())
                                       : *forced;
  }
  if (requested != LaneWidth::kAuto) return requested;
  return auto_lane_width(host_cpu_features());
}

}  // namespace swbpbc::sw
