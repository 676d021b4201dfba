// SWBPBC_FORCE_LANE_WIDTH override parsing: every accepted spelling, the
// no-override cases, and the ISSUE's negative case — an unknown value is
// a typed kInvalidInput naming the variable, never a silent default. Also
// the kAuto policy and the per-ISA kernel choice as pure functions of the
// CPU features, so every row runs whatever CPU the tests run on.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "sw/lane.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {
namespace {

TEST(ForcedLaneWidth, UnsetAndEmptyMeanNoOverride) {
  const auto unset = parse_forced_lane_width(nullptr);
  ASSERT_TRUE(unset.has_value());
  EXPECT_FALSE(unset->has_value());
  const auto empty = parse_forced_lane_width("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_FALSE(empty->has_value());
}

TEST(ForcedLaneWidth, AcceptsEverySpelling) {
  const struct {
    const char* value;
    LaneWidth width;
  } cases[] = {
      {"32", LaneWidth::k32},   {"64", LaneWidth::k64},
      {"128", LaneWidth::k128}, {"256", LaneWidth::k256},
      {"512", LaneWidth::k512}, {"auto", LaneWidth::kAuto},
  };
  for (const auto& c : cases) {
    const auto parsed = parse_forced_lane_width(c.value);
    ASSERT_TRUE(parsed.has_value()) << c.value;
    ASSERT_TRUE(parsed->has_value()) << c.value;
    EXPECT_EQ(**parsed, c.width) << c.value;
  }
}

TEST(ForcedLaneWidth, UnknownValueIsTypedInvalidInput) {
  for (const char* bad : {"96", "64 ", "wide", "AUTO", "0"}) {
    const auto parsed = parse_forced_lane_width(bad);
    ASSERT_FALSE(parsed.has_value()) << bad;
    EXPECT_EQ(parsed.status().code(), util::ErrorCode::kInvalidInput) << bad;
    // The message must name the variable and the value, so the error is
    // actionable when it surfaces from deep inside a screening run.
    EXPECT_NE(parsed.status().message().find("SWBPBC_FORCE_LANE_WIDTH"),
              std::string::npos);
    EXPECT_NE(parsed.status().message().find(bad), std::string::npos);
  }
}

// The retired 256-lane portable width ("scalar-wide") is an unknown
// spelling like any other, from the variable and from a --width flag, and
// the message lists the widths that remain.
TEST(ForcedLaneWidth, RetiredScalarWideIsTypedInvalidInput) {
  const auto forced = parse_forced_lane_width("scalar-wide");
  ASSERT_FALSE(forced.has_value());
  EXPECT_EQ(forced.status().code(), util::ErrorCode::kInvalidInput);
  EXPECT_NE(forced.status().message().find("32|64|128|256|512|auto"),
            std::string::npos)
      << forced.status().message();
  const auto flag = try_parse_lane_width("scalar-wide", "--width");
  ASSERT_FALSE(flag.has_value());
  EXPECT_EQ(flag.status().code(), util::ErrorCode::kInvalidInput);
  EXPECT_EQ(flag.status().message(),
            "--width: unknown lane width \"scalar-wide\" "
            "(expected 32|64|128|256|512|auto)");
  EXPECT_FALSE(parse_lane_width("scalar-wide").has_value());
  ASSERT_TRUE(try_parse_lane_width("256", "--width").has_value());
  EXPECT_EQ(*try_parse_lane_width("256", "--width"), LaneWidth::k256);
}

TEST(ForcedLaneWidth, ThrowingAccessorSurfacesTypedError) {
  EXPECT_THROW(parse_forced_lane_width("banana").value(), util::StatusError);
}

TEST(AutoLaneWidth, WidestNativeRegistersWin) {
  const struct {
    CpuFeatures cpu;
    LaneWidth want;
  } rows[] = {
      {{.avx512f = true}, LaneWidth::k512},
      {{.avx2 = true}, LaneWidth::k256},
      {{.sse2 = true}, LaneWidth::k128},
      {{}, LaneWidth::k64},
      {{.sse2 = true, .avx2 = true, .avx512f = true}, LaneWidth::k512},
      {{.sse2 = true, .avx2 = true}, LaneWidth::k256},
  };
  for (const auto& r : rows) {
    EXPECT_EQ(auto_lane_width(r.cpu), r.want)
        << "sse2=" << r.cpu.sse2 << " avx2=" << r.cpu.avx2
        << " avx512f=" << r.cpu.avx512f;
  }
}

TEST(AutoLaneWidth, KernelIsaNeedsWidthAndCpu) {
  const CpuFeatures all{.sse2 = true, .avx2 = true, .avx512f = true};
  const CpuFeatures avx2{.sse2 = true, .avx2 = true};
  const CpuFeatures sse2{.sse2 = true};
  EXPECT_EQ(kernel_isa(LaneWidth::k512, all), bitsim::Isa::kAvx512);
  EXPECT_EQ(kernel_isa(LaneWidth::k256, all), bitsim::Isa::kAvx2);
  EXPECT_EQ(kernel_isa(LaneWidth::k256, avx2), bitsim::Isa::kAvx2);
  // A forced wide width on a CPU without its ISA runs the baseline build.
  EXPECT_EQ(kernel_isa(LaneWidth::k512, avx2), bitsim::Isa::kBaseline);
  EXPECT_EQ(kernel_isa(LaneWidth::k256, sse2), bitsim::Isa::kBaseline);
  EXPECT_EQ(kernel_isa(LaneWidth::k512, {}), bitsim::Isa::kBaseline);
  // Every other width has one build.
  for (LaneWidth w : {LaneWidth::k32, LaneWidth::k64, LaneWidth::k128}) {
    EXPECT_EQ(kernel_isa(w, all), bitsim::Isa::kBaseline)
        << lane_width_name(w);
  }
  EXPECT_STREQ(isa_name(bitsim::Isa::kBaseline), "baseline");
  EXPECT_STREQ(isa_name(bitsim::Isa::kAvx2), "avx2");
  EXPECT_STREQ(isa_name(bitsim::Isa::kAvx512), "avx512");
}

TEST(AutoLaneWidth, NativeDispatchFollowsKernelIsa) {
  // with_lane_word hands out the tagged word exactly when kernel_isa
  // names its ISA on this host, and never without kNative.
  const CpuFeatures& host = host_cpu_features();
  const auto native_is = [](LaneWidth w, auto tagged) {
    return with_lane_word<LaneWords::kNative>(
        w, [&]<class W>(std::type_identity<W>) {
          return std::is_same_v<W, typename decltype(tagged)::type>;
        });
  };
  EXPECT_EQ(native_is(LaneWidth::k256, std::type_identity<Avx2Word>{}),
            kernel_isa(LaneWidth::k256, host) == bitsim::Isa::kAvx2);
  EXPECT_EQ(native_is(LaneWidth::k512, std::type_identity<Avx512Word>{}),
            kernel_isa(LaneWidth::k512, host) == bitsim::Isa::kAvx512);
  EXPECT_TRUE(with_lane_word(LaneWidth::k512, []<class W>(std::type_identity<W>) {
    return std::is_same_v<W, bitsim::simd_word<512>>;
  }));
}

}  // namespace
}  // namespace swbpbc::sw
