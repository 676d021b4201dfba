// The cost-model backend dispatcher: name/parse round-trips, the
// SWBPBC_FORCE_BACKEND policy function (every spelling, the no-override
// cases, the typed negative naming the variable), auto-resolution
// determinism (never kAuto, follows the cheaper engine for both cost
// orderings), the committed model's decisions on the shapes it was
// fitted for, the screen span that records them, and end-to-end screen
// bit-identity whichever host engine backend_choice selects, linear or
// affine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sw/backend.hpp"
#include "sw/dispatch.hpp"
#include "sw/pipeline.hpp"
#include "sw/scoring.hpp"
#include "telemetry/telemetry.hpp"
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
  EXPECT_EQ(w.symbols, 4u);
  EXPECT_EQ(w.mux_planes, 0u);
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
  EXPECT_EQ(p.symbols, 20u);
  // Sign-split magnitudes: bit_width(11) positive + bit_width(4) negative.
  EXPECT_EQ(p.mux_planes, 7u);
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
  bpbc_wins.bpbc_op_ns = 1e-4;
  bpbc_wins.bpbc_w2b_ns = 0.0;
  bpbc_wins.striped_cell_ns = 100.0;
  EXPECT_EQ(resolve_backend_choice(BackendChoice::kAuto, w, bpbc_wins),
            BackendChoice::kBpbc);
  CostModel striped_wins;
  striped_wins.bpbc_op_ns = 100.0;
  striped_wins.striped_cell_ns = 0.01;
  striped_wins.striped_profile_ns = 0.0;
  striped_wins.striped_profile_base_ns = 0.0;
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

// The cost model's measured shape: BPBC's price rises with the slice
// count, the Gotoh chains and the matrix mux (each adds word ops to the
// cell) and falls with lane width; striped's is flat in s and width.
// The crossover surface in BENCH_crossover.json depends on these
// monotonic directions, not the absolute coefficients.
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
  DispatchWorkload affine = w;
  affine.affine = true;
  EXPECT_GT(m.bpbc_cost_ns(affine), base);
  DispatchWorkload matrix = w;
  matrix.matrix = true;
  matrix.symbols = 20;
  DispatchWorkload muxed = matrix;
  muxed.mux_planes = 7;
  EXPECT_GT(m.bpbc_cost_ns(muxed), m.bpbc_cost_ns(matrix));
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

ScoringScheme blosum62_affine() {
  ScoringScheme s;
  s.matrix = blosum62();
  s.gap_model = GapModel::kAffine;
  s.gap_open = 11;
  s.gap_extend = 1;
  return s;
}

// The committed model on the protein-search workload's shapes: 48
// log-spaced query lengths from 30 to 600 residues against each of its
// three target bins (128 x 96, 48 x 224, 16 x 448 residues), BLOSUM62
// affine 11/1 at 512 lanes. Striped is faster on every one (measured:
// 4.8x on the closest, the 128-target bin at m = 30), so auto must
// never pick BPBC there.
TEST(CommittedModel, SendsEveryProteinSearchShapeToStriped) {
  const CostModel& model = CostModel::measured();
  const ScoringScheme scheme = blosum62_affine();
  const struct {
    std::size_t pairs, n;
  } bins[] = {{128, 96}, {48, 224}, {16, 448}};
  for (int i = 0; i < 48; ++i) {
    const auto m = static_cast<std::size_t>(
        std::lround(30.0 * std::pow(600.0 / 30.0, i / 47.0)));
    for (const auto& bin : bins) {
      const DispatchWorkload w =
          DispatchWorkload::from(scheme, bin.pairs, m, bin.n, LaneWidth::k512);
      EXPECT_LT(model.striped_cost_ns(w), model.bpbc_cost_ns(w))
          << "m=" << m << " bin " << bin.pairs << "x" << bin.n;
    }
  }
}

// ...and BPBC keeps the region it wins by 1.5-2.3x at full lane fill:
// one short DNA query against 512 targets, linear +2/-1/-1 at 512 lanes.
TEST(CommittedModel, SendsFullLaneShortDnaToBpbc) {
  const CostModel& model = CostModel::measured();
  const DispatchWorkload w = DispatchWorkload::from(
      ScoringScheme::from_params({2, 1, 1}), 512, 24, 256, LaneWidth::k512);
  EXPECT_LT(model.bpbc_cost_ns(w), model.striped_cost_ns(w));
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

// `pairs` random DNA pairs of lengths m and n.
void random_dna_batch(util::Xoshiro256& rng, std::size_t pairs, std::size_t m,
                      std::size_t n, std::vector<Sequence>& xs,
                      std::vector<Sequence>& ys) {
  const auto random_dna = [&rng](std::size_t len) {
    Sequence s(len);
    for (auto& b : s) b = static_cast<encoding::Base>(rng.below(4));
    return s;
  };
  for (std::size_t k = 0; k < pairs; ++k) {
    xs.push_back(random_dna(m));
    ys.push_back(random_dna(n));
  }
}

// The property the whole PR rests on: whichever engine backend_choice
// selects, the screen's scores are bit-identical. Runs the same batch
// through every choice (auto resolves to bpbc or striped) and a chunked
// variant, linear and affine.
TEST(DispatchScreen, ScoresBitIdenticalAcrossEveryChoice) {
  util::Xoshiro256 rng(31);
  std::vector<Sequence> xs, ys;
  random_dna_batch(rng, 48, 20, 96, xs, ys);
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

// A dispatched screen explains itself: its screen span names the engine
// and carries both engines' predicted cost, and recording that changes
// no score.
TEST(DispatchScreen, ScreenSpanCarriesBothPredictions) {
  util::Xoshiro256 rng(47);
  std::vector<Sequence> xs, ys;
  random_dna_batch(rng, 40, 24, 128, xs, ys);
  ScreenConfig off;
  off.traceback = false;
  off.backend_choice = BackendChoice::kAuto;
  const auto want = try_screen(xs, ys, off);
  ASSERT_TRUE(want.has_value()) << want.status().to_string();

  telemetry::TelemetryConfig tcfg;
  tcfg.enabled = true;
  telemetry::Telemetry session(tcfg);
  ScreenConfig on = off;
  on.telemetry = &session;
  const auto got = try_screen(xs, ys, on);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  EXPECT_EQ(got->scores, want->scores);

  std::map<std::string, std::int64_t> args;
  for (const telemetry::TraceEvent& e : session.tracer()->events()) {
    if (std::string(e.name) != "screen") continue;
    for (std::size_t i = 0; i < telemetry::kSpanArgSlots; ++i)
      if (e.arg_names[i] != nullptr) args[e.arg_names[i]] = e.arg_values[i];
  }
  ASSERT_EQ(args.count("backend"), 1u);
  ASSERT_EQ(args.count("bpbc_cost_ns"), 1u);
  ASSERT_EQ(args.count("striped_cost_ns"), 1u);
  EXPECT_EQ(args.count("pairs"), 1u);
  EXPECT_GT(args["bpbc_cost_ns"], 0);
  EXPECT_GT(args["striped_cost_ns"], 0);
  const DispatchWorkload w =
      DispatchWorkload::from(ScoringScheme::from_params(off.params),
                             xs.size(), 24, 128, resolve_lane_width(off.width));
  const CostModel& model = CostModel::measured();
  EXPECT_EQ(args["bpbc_cost_ns"],
            static_cast<std::int64_t>(model.bpbc_cost_ns(w)));
  EXPECT_EQ(args["striped_cost_ns"],
            static_cast<std::int64_t>(model.striped_cost_ns(w)));
  EXPECT_EQ(args["backend"], static_cast<std::int64_t>(resolve_backend_choice(
                                 BackendChoice::kAuto, w)));
}

}  // namespace
}  // namespace swbpbc::sw
