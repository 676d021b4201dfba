// The cost-model backend dispatcher: name/parse round-trips, the
// SWBPBC_FORCE_BACKEND policy function (every spelling, the no-override
// cases, the typed negative naming the variable), auto-resolution
// determinism (never kAuto, follows the cheaper engine for both cost
// orderings), and end-to-end screen bit-identity whichever host engine
// backend_choice selects, linear or affine.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sw/backend.hpp"
#include "sw/dispatch.hpp"
#include "sw/pipeline.hpp"
#include "sw/scoring.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {
namespace {

using encoding::Sequence;

TEST(BackendChoiceNames, ParseRoundTripsEveryName) {
  const BackendChoice all[] = {BackendChoice::kAuto, BackendChoice::kBpbc,
                               BackendChoice::kStriped};
  for (const BackendChoice c : all) {
    const auto parsed = parse_backend_choice(backend_choice_name(c));
    ASSERT_TRUE(parsed.has_value()) << backend_choice_name(c);
    EXPECT_EQ(*parsed, c);
  }
  EXPECT_FALSE(parse_backend_choice("BPBC").has_value());
  EXPECT_FALSE(parse_backend_choice("").has_value());
  EXPECT_FALSE(parse_backend_choice("striped ").has_value());
  EXPECT_FALSE(parse_backend_choice("wordwise-naive").has_value());
}

TEST(ForcedBackend, UnsetAndEmptyMeanNoOverride) {
  const auto unset = parse_forced_backend(nullptr);
  ASSERT_TRUE(unset.has_value());
  EXPECT_FALSE(unset->has_value());
  const auto empty = parse_forced_backend("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_FALSE(empty->has_value());
}

TEST(ForcedBackend, AcceptsEverySpelling) {
  const struct {
    const char* value;
    BackendChoice choice;
  } cases[] = {
      {"bpbc", BackendChoice::kBpbc},
      {"striped", BackendChoice::kStriped},
      {"auto", BackendChoice::kAuto},
  };
  for (const auto& c : cases) {
    const auto parsed = parse_forced_backend(c.value);
    ASSERT_TRUE(parsed.has_value()) << c.value;
    ASSERT_TRUE(parsed->has_value()) << c.value;
    EXPECT_EQ(**parsed, c.choice) << c.value;
  }
}

TEST(ForcedBackend, UnknownValueIsTypedInvalidInput) {
  for (const char* bad :
       {"farrar", "STRIPED", "bpbc ", "0", "wordwise", "wordwise-naive"}) {
    const auto parsed = parse_forced_backend(bad);
    ASSERT_FALSE(parsed.has_value()) << bad;
    EXPECT_EQ(parsed.status().code(), util::ErrorCode::kInvalidInput) << bad;
    // Actionable from deep inside a screening run: the message names the
    // variable, the offending value, and the accepted spellings.
    EXPECT_NE(parsed.status().message().find("SWBPBC_FORCE_BACKEND"),
              std::string::npos);
    EXPECT_NE(parsed.status().message().find(bad), std::string::npos);
  }
}

TEST(ForcedBackend, ThrowingAccessorSurfacesTypedError) {
  EXPECT_THROW(parse_forced_backend("banana").value(), util::StatusError);
}

DispatchWorkload dna_workload() {
  ScoringScheme s;  // defaults: +2/-1 linear, gap 1
  return DispatchWorkload::from(s, 1024, 64, 256, LaneWidth::k64);
}

TEST(DispatchWorkloadTest, FromCapturesSchemeShape) {
  ScoringScheme affine;
  affine.gap_model = GapModel::kAffine;
  affine.gap_open = 3;
  affine.gap_extend = 1;
  const DispatchWorkload w =
      DispatchWorkload::from(affine, 10, 24, 48, LaneWidth::k512);
  EXPECT_EQ(w.pairs, 10u);
  EXPECT_EQ(w.m, 24u);
  EXPECT_EQ(w.n, 48u);
  EXPECT_EQ(w.lane_bits, 512u);
  EXPECT_TRUE(w.affine);
  EXPECT_FALSE(w.matrix);
  EXPECT_FALSE(w.wide_cells);
  EXPECT_GT(w.slices, 0u);

  ScoringScheme protein;
  protein.matrix = blosum62();
  protein.gap_model = GapModel::kAffine;
  protein.gap_open = 11;
  protein.gap_extend = 1;
  const DispatchWorkload p =
      DispatchWorkload::from(protein, 1, 8000, 100, LaneWidth::k64);
  EXPECT_TRUE(p.matrix);
  EXPECT_EQ(p.alphabet_bits, 5u);
  EXPECT_TRUE(p.wide_cells);  // 11 * 8000 blows the 16-bit bound
}

// Explicit requests pass straight through — the model never overrides a
// non-auto choice.
TEST(ResolveBackend, ExplicitChoicePassesThrough) {
  const DispatchWorkload w = dna_workload();
  EXPECT_EQ(resolve_backend_choice(BackendChoice::kBpbc, w),
            BackendChoice::kBpbc);
  EXPECT_EQ(resolve_backend_choice(BackendChoice::kStriped, w),
            BackendChoice::kStriped);
}

// Auto follows the cheaper engine for both cost orderings and never
// returns kAuto.
TEST(ResolveBackend, AutoFollowsTheCostModel) {
  const DispatchWorkload w = dna_workload();
  CostModel bpbc_wins;
  bpbc_wins.bpbc_base_ns = 0.01;
  bpbc_wins.bpbc_slice_ns = 0.0;
  bpbc_wins.striped_cell_ns = 100.0;
  EXPECT_EQ(resolve_backend_choice(BackendChoice::kAuto, w, bpbc_wins),
            BackendChoice::kBpbc);
  CostModel striped_wins;
  striped_wins.bpbc_base_ns = 100.0;
  striped_wins.striped_cell_ns = 0.01;
  striped_wins.striped_profile_ns = 0.0;
  EXPECT_EQ(resolve_backend_choice(BackendChoice::kAuto, w, striped_wins),
            BackendChoice::kStriped);
  // The agreement property the dispatcher rests on, stated directly.
  for (const CostModel& m : {bpbc_wins, striped_wins}) {
    const BackendChoice c = resolve_backend_choice(BackendChoice::kAuto, w, m);
    EXPECT_NE(c, BackendChoice::kAuto);
    EXPECT_EQ(c == BackendChoice::kStriped,
              m.striped_cost_ns(w) < m.bpbc_cost_ns(w));
  }
}

TEST(ResolveBackend, AutoIsDeterministic) {
  const DispatchWorkload w = dna_workload();
  const BackendChoice first = resolve_backend_choice(BackendChoice::kAuto, w);
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(resolve_backend_choice(BackendChoice::kAuto, w), first);
  EXPECT_NE(first, BackendChoice::kAuto);
}

// The cost model's measured shape: BPBC's per-cell price rises with the
// slice count and falls with lane width; striped's is flat in both. The
// crossover surface in BENCH_crossover.json depends on these monotonic
// directions, not the absolute coefficients.
TEST(CostModelTest, MonotoneInSlicesAndLaneWidth) {
  const CostModel& m = CostModel::measured();
  DispatchWorkload w = dna_workload();
  const double base = m.bpbc_cost_ns(w);
  DispatchWorkload more_slices = w;
  more_slices.slices = w.slices + 8;
  EXPECT_GT(m.bpbc_cost_ns(more_slices), base);
  DispatchWorkload wider = w;
  wider.lane_bits = 512;
  EXPECT_LT(m.bpbc_cost_ns(wider), base);
  EXPECT_EQ(m.striped_cost_ns(more_slices), m.striped_cost_ns(w));
  EXPECT_EQ(m.striped_cost_ns(wider), m.striped_cost_ns(w));
  // GE, not GT: the measured table's wide-cell multiplier is clamped at
  // 1 (the memory system hid the halved vector occupancy on the bench
  // host); the model just must never price wide cells *cheaper*.
  DispatchWorkload wide_cells = w;
  wide_cells.wide_cells = true;
  EXPECT_GE(m.striped_cost_ns(wide_cells), m.striped_cost_ns(w));
  CostModel penalized;
  penalized.striped_wide_mul = 2.0;
  EXPECT_GT(penalized.striped_cost_ns(wide_cells),
            penalized.striped_cost_ns(w));
}

// BPBC pays for padded lanes: a batch smaller than the lane count costs
// the same word ops as a full word, and the cost is flat until the batch
// spills into a second word. This under-fill term is what hands small
// batches to striped (the crossover bench's m6000 region).
TEST(CostModelTest, BpbcPricesPaddedLanes) {
  const CostModel& m = CostModel::measured();
  DispatchWorkload w = dna_workload();
  w.lane_bits = 128;
  w.pairs = 4;
  const double four = m.bpbc_cost_ns(w);
  w.pairs = 128;
  EXPECT_EQ(m.bpbc_cost_ns(w), four);  // same single word, padded or full
  w.pairs = 129;
  EXPECT_EQ(m.bpbc_cost_ns(w), 2 * four);  // spills into a second word
}

// Striped charges a fixed per-column overhead, so at equal cell counts a
// short-query workload (more columns) costs more than a long-query one —
// the term that prices protein_screen's m=24 shape into BPBC territory.
TEST(CostModelTest, StripedChargesPerColumnOverhead) {
  const CostModel& m = CostModel::measured();
  DispatchWorkload short_q = dna_workload();
  short_q.m = 32;
  short_q.n = 1024;
  DispatchWorkload long_q = dna_workload();
  long_q.m = 1024;
  long_q.n = 32;
  ASSERT_EQ(short_q.m * short_q.n, long_q.m * long_q.n);
  EXPECT_GT(m.striped_cost_ns(short_q), m.striped_cost_ns(long_q));
}

TEST(MakeDispatchBackend, BuildsEveryHostEngine) {
  ScoringScheme affine;
  affine.gap_model = GapModel::kAffine;
  affine.gap_open = 3;
  affine.gap_extend = 1;
  for (const ScoringScheme& s : {ScoringScheme{}, affine}) {
    const DispatchWorkload w =
        DispatchWorkload::from(s, 4, 16, 32, LaneWidth::k64);
    for (const BackendChoice c : {BackendChoice::kAuto, BackendChoice::kBpbc,
                                  BackendChoice::kStriped}) {
      const DispatchedBackend made =
          make_dispatch_backend(s, LaneWidth::k64, bulk::Mode::kSerial, c, w);
      EXPECT_NE(made.backend, nullptr) << backend_choice_name(c);
      EXPECT_NE(made.choice, BackendChoice::kAuto);
      if (c != BackendChoice::kAuto) EXPECT_EQ(made.choice, c);
    }
  }
}

// The property the whole PR rests on: whichever engine backend_choice
// selects, the screen's scores are bit-identical. Runs the same batch
// through every choice (auto resolves to bpbc or striped) and a chunked
// variant, linear and affine.
TEST(DispatchScreen, ScoresBitIdenticalAcrossEveryChoice) {
  util::Xoshiro256 rng(31);
  const auto random_dna = [&rng](std::size_t len) {
    Sequence s(len);
    for (auto& b : s) b = static_cast<encoding::Base>(rng.below(4));
    return s;
  };
  const std::size_t pairs = 48, m = 20, n = 96;
  std::vector<Sequence> xs, ys;
  for (std::size_t k = 0; k < pairs; ++k) {
    xs.push_back(random_dna(m));
    ys.push_back(random_dna(n));
  }
  for (const bool affine : {false, true}) {
    ScoringScheme scheme;
    if (affine) {
      scheme.gap_model = GapModel::kAffine;
      scheme.gap_open = 3;
      scheme.gap_extend = 1;
    }
    ScreenConfig base;
    base.scheme = scheme;
    base.traceback = false;
    base.backend_choice = BackendChoice::kBpbc;
    const auto want = try_screen(xs, ys, base);
    ASSERT_TRUE(want.has_value()) << want.status().to_string();

    for (const BackendChoice c :
         {BackendChoice::kStriped, BackendChoice::kAuto}) {
      ScreenConfig cfg = base;
      cfg.backend_choice = c;
      cfg.chunk_pairs = 16;
      const auto got = try_screen(xs, ys, cfg);
      ASSERT_TRUE(got.has_value())
          << backend_choice_name(c) << ": " << got.status().to_string();
      EXPECT_EQ(got->scores, want->scores)
          << backend_choice_name(c) << " affine=" << affine;
    }
  }
}

}  // namespace
}  // namespace swbpbc::sw
