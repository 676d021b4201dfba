// Randomized cross-checks of the striped-SIMD (Farrar, lazy-F
// deconstructed) engine against the scalar Gotoh reference: DNA and
// protein alphabets, linear and affine gaps, query lengths chosen to
// straddle the segment boundaries of every lane count (16/8/4 lanes and
// their multiples), every element width
// (the 8-bit first pass, its escalation to 16 bits at exactly
// 255 - max_positive, and 32-bit cells), the lazy-F stress shapes (cheap
// gaps, rich matches — maximal cross-segment carry), the degenerate
// inputs, the per-thread scratch, the profile cache, and the Backend
// registration through the chunked screening pipeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sw/backend.hpp"
#include "sw/bpbc.hpp"
#include "sw/pipeline.hpp"
#include "sw/scalar.hpp"
#include "sw/scheme_aligner.hpp"
#include "sw/scoring.hpp"
#include "sw/striped.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace swbpbc::sw {
namespace {

using encoding::GenericSequence;
using encoding::Sequence;

GenericSequence random_generic(util::Xoshiro256& rng, std::size_t len,
                               std::size_t sigma) {
  GenericSequence s(len);
  for (auto& c : s) c = static_cast<std::uint8_t>(rng.below(sigma));
  return s;
}

ScoringScheme dna_linear(std::uint32_t match = 2, std::uint32_t mismatch = 1,
                         std::uint32_t gap = 1) {
  ScoringScheme s;
  s.match = match;
  s.mismatch = mismatch;
  s.gap_model = GapModel::kLinear;
  s.gap_open = gap;
  return s;
}

ScoringScheme dna_affine(std::uint32_t open = 3, std::uint32_t extend = 1) {
  ScoringScheme s;
  s.gap_model = GapModel::kAffine;
  s.gap_open = open;
  s.gap_extend = extend;
  return s;
}

ScoringScheme protein_blosum62(GapModel gaps = GapModel::kAffine) {
  ScoringScheme s;
  s.matrix = blosum62();
  s.gap_model = gaps;
  s.gap_open = gaps == GapModel::kAffine ? 11 : 4;
  s.gap_extend = 1;
  return s;
}

// The striped kernel must score (x, y) exactly as scalar Gotoh. Returns
// the reference score.
std::uint32_t expect_pair_identity(const GenericSequence& x,
                                   const GenericSequence& y,
                                   const ScoringScheme& scheme,
                                   const std::string& label) {
  const std::uint32_t want = scheme_max_score(x, y, scheme);
  EXPECT_EQ(striped_max_score(x, y, scheme), want)
      << label << " m=" << x.size() << " n=" << y.size();
  return want;
}

// The randomized matrix: every scheme kind x query lengths that straddle
// the segment boundaries of every lane count (16/8/4 lanes and their
// multiples: 1, 2, and k-1 .. k+1 for k = 8, 16, 32, 64, 128) x assorted
// target lengths. The schemes drive every element width: small scores stay in the 8-bit pass, "dna-rich" (max_positive 120) escalates
// most pairs to 16 bits, "dna-wide-constant" (a penalty over 16 bits)
// runs 32-bit cells with no 8-bit pass, and "dna-no-byte" (match 300)
// runs 16-bit cells directly.
TEST(StripedCross, RandomizedMatrixMatchesScalarGotoh) {
  struct Case {
    const char* name;
    ScoringScheme scheme;
    std::size_t sigma;
    unsigned first_bits;  // the profile's first pass at m = 17
  };
  const Case cases[] = {
      {"dna-linear", dna_linear(), 4, 8},
      {"dna-linear-steep", dna_linear(5, 4, 3), 4, 8},
      {"dna-affine", dna_affine(), 4, 8},
      {"dna-rich", dna_linear(120, 60, 70), 4, 8},
      {"dna-wide-constant", dna_linear(3, 70000, 2), 4, 32},
      {"dna-no-byte", dna_linear(300, 100, 120), 4, 16},
      {"blosum62-linear", protein_blosum62(GapModel::kLinear), 20, 8},
      {"blosum62-affine", protein_blosum62(), 20, 8},
  };
  const std::size_t query_lengths[] = {1,  2,  7,  8,  9,  15,  16,  17,
                                       31, 32, 33, 63, 64, 65, 127, 128,
                                       129};
  const std::size_t target_lengths[] = {1, 3, 17, 64, 130};
  util::Xoshiro256 rng(20260809);
  for (const Case& c : cases) {
    EXPECT_EQ(striped_build(c.scheme, 17).first_bits, c.first_bits)
        << c.name;
    for (const std::size_t m : query_lengths) {
      for (const std::size_t n : target_lengths) {
        const GenericSequence x = random_generic(rng, m, c.sigma);
        const GenericSequence y = random_generic(rng, n, c.sigma);
        expect_pair_identity(x, y, c.scheme, c.name);
      }
    }
  }
}

// The 8-bit pass hands a pair to the exact width iff its score reaches
// 255 - max_positive: pairs scoring one below, exactly at, and one above
// that limit, under a unit-match DNA scheme (limit 254) and BLOSUM62
// (limit 244). x = y, so the optimum is the diagonal.
TEST(StripedCross, BytePassEscalatesExactlyAtTheLimit) {
  const ScoringScheme unit = dna_linear(1, 3, 3);
  const std::uint32_t unit_limit = 255 - unit.max_positive();
  for (const std::uint32_t target :
       {unit_limit - 1, unit_limit, unit_limit + 1}) {
    const GenericSequence x(target, 1);  // every diagonal cell scores 1
    const std::uint32_t got = expect_pair_identity(x, x, unit, "unit-limit");
    EXPECT_EQ(got, target);
    const StripedProfile profile(unit, x);
    ASSERT_TRUE(profile.byte_pass());
    bool rescored = false;
    EXPECT_EQ(profile.score(x, &rescored), target);
    EXPECT_EQ(rescored, target >= unit_limit) << "score " << target;
  }

  // BLOSUM62: 21 W (11 each) plus residues whose self-scores add up to
  // the last 12-14 points: A-A is 4, R-R is 5, C-C is 9.
  const ScoringScheme blosum = protein_blosum62();
  const encoding::Alphabet& aa = blosum.alphabet();
  const std::uint32_t blosum_limit = 255 - blosum.max_positive();
  const struct {
    const char* tail;
    std::uint32_t score;
  } cases[] = {{"AAA", blosum_limit - 1},  // 231 + 12 = 243
               {"CA", blosum_limit},       // 231 + 13 = 244
               {"CR", blosum_limit + 1}};  // 231 + 14 = 245
  for (const auto& c : cases) {
    GenericSequence x(21, aa.code('W'));
    for (const char* t = c.tail; *t != '\0'; ++t) x.push_back(aa.code(*t));
    const std::uint32_t got = expect_pair_identity(x, x, blosum, c.tail);
    EXPECT_EQ(got, c.score) << c.tail;
    const StripedProfile profile(blosum, x);
    bool rescored = false;
    EXPECT_EQ(profile.score(x, &rescored), got);
    EXPECT_EQ(rescored, got >= blosum_limit) << c.tail;
  }
}

// Optima made of gaps: pairs whose every alignment is negative score 0
// (no diagonal cell survives), and optima that must bridge a gap — a
// block split by junk in x and contiguous in y, under linear and affine
// gaps, with the split straddling segment boundaries.
TEST(StripedCross, GapOptimaMatchScalar) {
  const ScoringScheme schemes[] = {dna_linear(2, 3, 1), dna_affine(3, 1),
                                   protein_blosum62()};
  for (const ScoringScheme& s : schemes) {
    for (const std::size_t m : {16u, 33u, 65u}) {
      const GenericSequence all_a(m, 0), all_c(m, 1);
      if (!s.matrix) {
        EXPECT_EQ(expect_pair_identity(all_a, all_c, s, "zero"), 0u);
      }
      // x = block + junk + block, y = block + block.
      GenericSequence block(m / 2, 2), x = block, y = block;
      x.insert(x.end(), 5, 3);
      x.insert(x.end(), block.begin(), block.end());
      y.insert(y.end(), block.begin(), block.end());
      expect_pair_identity(x, y, s, "gap-bridge");
      expect_pair_identity(y, x, s, "gap-bridge-transposed");
    }
  }
}

// The extreme BLOSUM62 entries: runs of the pair with the largest entry
// (the W-W diagonal, 11) and of the pair with the most negative one (-4),
// alone and interleaved, so the profile's positive and negative planes
// hold their extreme values in every lane.
TEST(StripedCross, ExtremeBlosumEntriesMatchScalar) {
  const ScoringScheme s = protein_blosum62();
  const std::size_t sigma = s.alphabet().size();
  std::uint8_t hi_a = 0, hi_b = 0, lo_a = 0, lo_b = 0;
  for (std::size_t a = 0; a < sigma; ++a) {
    for (std::size_t b = 0; b < sigma; ++b) {
      const auto ca = static_cast<std::uint8_t>(a);
      const auto cb = static_cast<std::uint8_t>(b);
      if (s.substitution(ca, cb) > s.substitution(hi_a, hi_b)) {
        hi_a = ca;
        hi_b = cb;
      }
      if (s.substitution(ca, cb) < s.substitution(lo_a, lo_b)) {
        lo_a = ca;
        lo_b = cb;
      }
    }
  }
  ASSERT_EQ(s.substitution(hi_a, hi_b),
            static_cast<int>(s.max_positive()));
  ASSERT_EQ(-s.substitution(lo_a, lo_b),
            static_cast<int>(s.max_negative()));
  util::Xoshiro256 rng(62);
  for (const std::size_t m : {15u, 32u, 64u, 129u}) {
    const GenericSequence hi_x(m, hi_a), hi_y(m + 7, hi_b);
    const GenericSequence lo_x(m, lo_a), lo_y(m + 7, lo_b);
    expect_pair_identity(hi_x, hi_y, s, "max-entry");
    expect_pair_identity(lo_x, lo_y, s, "min-entry");
    GenericSequence mix_x(m), mix_y(m + 7);
    for (std::size_t i = 0; i < m; ++i) mix_x[i] = rng.below(2) ? hi_a : lo_a;
    for (std::size_t i = 0; i < m + 7; ++i)
      mix_y[i] = rng.below(2) ? hi_b : lo_b;
    expect_pair_identity(mix_x, mix_y, s, "mixed-extremes");
  }
}

// Lazy-F stress: a cheap extension against a rich diagonal maximizes the
// cross-segment F carry (the correction pass runs, and runs deep), and a
// homopolymer query against a matching run keeps F saturated for whole
// columns. These shapes are exactly where Farrar's engines historically
// under-scored when the E update after correction was skipped.
TEST(StripedCross, LazyFCarryHeavyShapes) {
  ScoringScheme rich = dna_linear(16, 1, 1);
  ScoringScheme cheap_affine = dna_affine(1, 1);  // open == extend == 1
  util::Xoshiro256 rng(99);
  for (const std::size_t m : {17u, 33u, 64u}) {
    // Homopolymer query, matching-run target.
    GenericSequence poly_x(m, 0);
    GenericSequence poly_y(3 * m, 0);
    expect_pair_identity(poly_x, poly_y, rich, "rich-homopolymer");
    expect_pair_identity(poly_x, poly_y, cheap_affine, "cheap-homopolymer");
    // Random with a planted long match block mid-target.
    GenericSequence x = random_generic(rng, m, 4);
    GenericSequence y = random_generic(rng, 4 * m, 4);
    for (std::size_t i = 0; i < m; ++i) y[m + i] = x[i];
    expect_pair_identity(x, y, rich, "rich-planted");
    expect_pair_identity(x, y, cheap_affine, "cheap-planted");
  }
}

// The lazy-F early exits must never fire on columns that still carry: a
// mismatch-free workload where every column's F survives the full second
// pass, at a segment count > 1.
TEST(StripedCross, AllMatchColumnsKeepCorrecting) {
  ScoringScheme s = dna_affine(2, 1);
  const GenericSequence x(40, 2);
  const GenericSequence y(80, 2);
  expect_pair_identity(x, y, s, "all-match");
}

TEST(StripedCross, EmptyAndSingleResidueInputs) {
  const ScoringScheme s = dna_linear();
  const GenericSequence empty;
  const GenericSequence one(1, 3);
  const GenericSequence some{0, 1, 2, 3, 0, 1};
  EXPECT_EQ(striped_max_score(empty, some, s), 0u);
  EXPECT_EQ(striped_max_score(some, empty, s), 0u);
  EXPECT_EQ(striped_max_score(empty, empty, s), 0u);
  expect_pair_identity(one, some, s, "one-residue-query");
  expect_pair_identity(some, one, s, "one-residue-target");
  expect_pair_identity(one, one, s, "one-by-one");
}

// A large-magnitude scheme forces the 32-bit element escalation (score
// bound over 16 bits); the wide kernel must stay bit-identical too. The
// kernel runs 128-bit vectors: 4 lanes of 32-bit cells, 8 of 16-bit cells
// and 16 of 8-bit cells.
TEST(StripedCross, WideCellEscalationMatchesScalar) {
  ScoringScheme s = dna_linear(300, 100, 120);
  util::Xoshiro256 rng(7);
  const GenericSequence x = random_generic(rng, 300, 4);
  const GenericSequence y = random_generic(rng, 90, 4);
  const StripedProfile profile(s, x);
  EXPECT_TRUE(profile.wide_cells());
  EXPECT_FALSE(profile.byte_pass());  // match 300 does not fit a byte
  EXPECT_EQ(profile.lanes(), 4u);
  EXPECT_EQ(profile.segments(), 75u);
  // And the 16-bit cells are exercised by the small schemes.
  const StripedProfile narrow(dna_linear(), x);
  EXPECT_FALSE(narrow.wide_cells());
  EXPECT_TRUE(narrow.byte_pass());
  EXPECT_EQ(narrow.lanes(), 8u);
  EXPECT_EQ(narrow.build().name(), "16xu8>8xu16");
  expect_pair_identity(x, y, s, "wide-cells");

  // 8-bit first pass escalating straight to 32-bit cells: the constants
  // fit a byte, the bound 200 * 400 does not fit 16 bits.
  const ScoringScheme rich = dna_linear(200, 50, 60);
  const GenericSequence long_x = random_generic(rng, 400, 4);
  GenericSequence long_y = random_generic(rng, 120, 4);
  for (std::size_t i = 0; i < 60; ++i) long_y[30 + i] = long_x[100 + i];
  const StripedProfile escalating(rich, long_x);
  EXPECT_TRUE(escalating.byte_pass());
  EXPECT_TRUE(escalating.wide_cells());
  bool rescored = false;
  EXPECT_EQ(escalating.score(long_y, &rescored),
            scheme_max_score(long_x, long_y, rich));
  EXPECT_TRUE(rescored);
}

// A penalty too large for 16-bit cells must not be truncated into one: a
// gap cost of 65537 splatted into 16 bits would cost 1, and the planted
// gapped match below would then outscore the ungapped optimum.
TEST(StripedCross, LargeConstantsPickWideCells) {
  const ScoringScheme s = dna_linear(2, 65537, 65537);
  GenericSequence x(20, 0), y(20, 0);
  x[10] = 1;  // y matches x with one base deleted
  y.resize(19);
  const StripedProfile profile(s, x);
  EXPECT_TRUE(profile.wide_cells());
  EXPECT_FALSE(profile.byte_pass());
  EXPECT_EQ(expect_pair_identity(x, y, s, "large-gap"), 20u);
}

// A build's name gives each pass's lanes x element width.
TEST(StripedBuildTest, NameGivesPassWidths) {
  StripedBuild b;
  b.first_bits = 8;
  b.exact_bits = 16;
  EXPECT_EQ(b.name(), "16xu8>8xu16");
  b.first_bits = 16;
  EXPECT_EQ(b.name(), "8xu16");
  b.first_bits = 8;
  b.exact_bits = 32;
  EXPECT_EQ(b.name(), "16xu8>4xu32");
  EXPECT_EQ(striped_build(dna_linear(), 10).name(), "16xu8>8xu16");
  EXPECT_EQ(striped_build(dna_linear(300, 100, 120), 300).name(), "4xu32");
}

// Each thread keeps its DP scratch for the next call only up to a fixed
// size; a query past it scores with a scratch of its own. A long query
// (past the kept size at both the 8- and the 16-bit pass) between short
// ones must leave every score bit-identical.
TEST(StripedProfileTest, LongQueryBetweenShortOnesStaysExact) {
  const ScoringScheme s = dna_linear();
  util::Xoshiro256 rng(23);
  const GenericSequence long_x = random_generic(rng, 24000, 4);
  GenericSequence long_y = random_generic(rng, 300, 4);
  for (std::size_t i = 0; i < 200; ++i) long_y[50 + i] = long_x[9000 + i];
  std::vector<GenericSequence> short_xs, short_ys;
  for (const std::size_t m : {17u, 64u, 129u}) {
    short_xs.push_back(random_generic(rng, m, 4));
    short_ys.push_back(short_xs.back());  // scores 2m: escalates at 129
  }
  for (int round = 0; round < 2; ++round) {
    for (std::size_t k = 0; k < short_xs.size(); ++k)
      EXPECT_EQ(striped_max_score(short_xs[k], short_ys[k], s),
                2 * short_xs[k].size())
          << "m=" << short_xs[k].size();
    const StripedProfile profile(s, long_x);
    bool rescored = false;
    EXPECT_EQ(profile.score(long_y, &rescored),
              scheme_max_score(long_x, long_y, s));
    EXPECT_TRUE(rescored);
  }
}

TEST(StripedProfileTest, RejectsOutOfAlphabetCodes) {
  const ScoringScheme s = protein_blosum62();
  GenericSequence bad{0, 1, 200};
  EXPECT_THROW(StripedProfile(s, bad), std::invalid_argument);
  const GenericSequence ok{0, 1, 2};
  const StripedProfile profile(s, ok);
  const GenericSequence bad_target{0, 25};
  EXPECT_THROW((void)profile.score(bad_target), std::out_of_range);
}

TEST(StripedProfileCacheTest, HitsVerifyAndEvict) {
  StripedProfileCache cache(2);
  const ScoringScheme s = dna_linear();
  util::Xoshiro256 rng(11);
  const GenericSequence q1 = random_generic(rng, 24, 4);
  const GenericSequence q2 = random_generic(rng, 24, 4);
  const GenericSequence q3 = random_generic(rng, 24, 4);
  const auto p1 = cache.get(s, q1);
  const auto p1_again = cache.get(s, q1);
  EXPECT_EQ(p1.get(), p1_again.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  (void)cache.get(s, q2);
  (void)cache.get(s, q3);  // capacity 2: q1 evicted
  EXPECT_EQ(cache.stats().evictions, 1u);
  const auto p1_rebuilt = cache.get(s, q1);
  EXPECT_NE(p1_rebuilt.get(), p1.get());
  // A different scheme is a different key even for the same query.
  const auto p1_affine = cache.get(dna_affine(), q1);
  EXPECT_NE(p1_affine.get(), p1_rebuilt.get());
}

TEST(StripedBulkTest, BatchMatchesScalarAndFillsTimings) {
  const ScoringScheme s = protein_blosum62();
  util::Xoshiro256 rng(5);
  const GenericSequence query = random_generic(rng, 24, 20);
  std::vector<GenericSequence> xs(32, query), ys;
  for (std::size_t k = 0; k < xs.size(); ++k)
    ys.push_back(random_generic(rng, 64, 20));
  StripedProfileCache cache;
  PhaseTimings timings;
  const auto scores =
      try_striped_max_scores(xs, ys, s, bulk::Mode::kSerial, &cache, &timings);
  ASSERT_TRUE(scores.has_value()) << scores.status().to_string();
  for (std::size_t k = 0; k < xs.size(); ++k)
    EXPECT_EQ((*scores)[k], scheme_max_score(xs[k], ys[k], s)) << k;
  // One distinct query: one profile build, the rest cache hits.
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, xs.size() - 1);
  EXPECT_GE(timings.swa_ms, 0.0);
}

// StripedStats counts the 8-bit pass: every pair of a byte-sized scheme
// runs it, and exactly the pairs scoring >= 255 - max_positive escalate.
// The per-thread DP scratch makes parallel scoring identical to serial.
TEST(StripedBulkTest, StatsCountEscalationsAndParallelMatchesSerial) {
  const ScoringScheme s = dna_linear();  // limit 253
  util::Xoshiro256 rng(17);
  std::vector<GenericSequence> xs, ys;
  for (std::size_t k = 0; k < 48; ++k) {
    xs.push_back(random_generic(rng, 40 + k, 4));
    ys.push_back(random_generic(rng, 90, 4));
  }
  xs.push_back(GenericSequence(200, 1));  // scores 400: escalates
  ys.push_back(GenericSequence(210, 1));
  std::uint64_t want_escalations = 0;
  for (std::size_t k = 0; k < xs.size(); ++k)
    if (scheme_max_score(xs[k], ys[k], s) >= 255 - s.max_positive())
      ++want_escalations;
  ASSERT_GE(want_escalations, 1u);
  StripedStats serial_stats, parallel_stats;
  const auto serial =
      try_striped_max_scores(xs, ys, s, bulk::Mode::kSerial, nullptr,
                             nullptr, &serial_stats);
  const auto parallel =
      try_striped_max_scores(xs, ys, s, bulk::Mode::kParallel, nullptr,
                             nullptr, &parallel_stats);
  ASSERT_TRUE(serial.has_value());
  ASSERT_TRUE(parallel.has_value());
  EXPECT_EQ(*serial, *parallel);
  for (std::size_t k = 0; k < xs.size(); ++k)
    EXPECT_EQ((*serial)[k], scheme_max_score(xs[k], ys[k], s)) << k;
  EXPECT_EQ(serial_stats.byte_pass_pairs, xs.size());
  EXPECT_EQ(serial_stats.escalations, want_escalations);
  EXPECT_EQ(parallel_stats.escalations, want_escalations);
}

TEST(StripedBulkTest, ShapeAndSchemeValidation) {
  const ScoringScheme s = dna_linear();
  const std::vector<GenericSequence> one(1, GenericSequence{0, 1});
  const std::vector<GenericSequence> two(2, GenericSequence{0, 1});
  EXPECT_FALSE(try_striped_max_scores(one, two, s).has_value());
  ScoringScheme bad = dna_linear(0);
  EXPECT_FALSE(try_striped_max_scores(one, one, bad).has_value());
}

// m or n = 0 is the same typed error from every batch front end, so the
// dispatcher's choice between BPBC and striped cannot change the outcome.
TEST(StripedBulkTest, EmptySequenceIsTheSameErrorInEveryFrontEnd) {
  const ScoringScheme s = dna_linear();
  const std::vector<Sequence> full(2, Sequence{0, 1, 2});
  const std::vector<Sequence> none(2);
  const struct {
    const char* shape;
    const std::vector<Sequence>& xs;
    const std::vector<Sequence>& ys;
  } cases[] = {{"m = 0", none, full}, {"n = 0", full, none}};
  ScreenConfig cfg;
  cfg.scheme = s;
  for (const auto& c : cases) {
    const auto striped = try_striped_max_scores(c.xs, c.ys, s);
    const auto bpbc = try_scheme_max_scores(c.xs, c.ys, s);
    const auto screen = try_screen(c.xs, c.ys, cfg);
    ASSERT_FALSE(striped.has_value()) << c.shape;
    ASSERT_FALSE(bpbc.has_value()) << c.shape;
    ASSERT_FALSE(screen.has_value()) << c.shape;
    EXPECT_EQ(striped.status().code(), util::ErrorCode::kInvalidInput)
        << c.shape;
    EXPECT_EQ(bpbc.status().code(), striped.status().code()) << c.shape;
    EXPECT_EQ(screen.status().code(), striped.status().code()) << c.shape;
    EXPECT_NE(striped.status().message().find("non-empty"), std::string::npos)
        << c.shape;
  }
}

// The Backend registration: a chunked screen through make_striped_backend
// must be bit-identical to the default BPBC screen, and its par-mode
// scores identical to serial.
TEST(StripedBackendTest, ChunkedScreenBitIdenticalToBpbc) {
  util::Xoshiro256 rng(21);
  const auto random_dna = [&rng](std::size_t len) {
    Sequence s(len);
    for (auto& c : s) c = static_cast<std::uint8_t>(rng.below(4));
    return s;
  };
  const std::size_t pairs = 96, m = 24, n = 120;
  std::vector<Sequence> xs, ys;
  for (std::size_t k = 0; k < pairs; ++k) {
    xs.push_back(random_dna(m));
    ys.push_back(random_dna(n));
  }
  for (const bool affine : {false, true}) {
    const ScoringScheme scheme = affine ? dna_affine() : dna_linear();
    ScreenConfig reference;
    reference.scheme = scheme;
    reference.traceback = false;
    const auto want = try_screen(xs, ys, reference);
    ASSERT_TRUE(want.has_value()) << want.status().to_string();

    auto striped = make_striped_backend(scheme);
    ScreenConfig cfg;
    cfg.scheme = scheme;
    cfg.traceback = false;
    cfg.backend = striped.get();
    cfg.chunk_pairs = 32;
    const auto got = try_screen(xs, ys, cfg);
    ASSERT_TRUE(got.has_value()) << got.status().to_string();
    EXPECT_EQ(got->scores, want->scores) << "affine=" << affine;
  }
}

// A telemetry-enabled screen through the striped backend exports the
// 8-bit pass's counts.
TEST(StripedBackendTest, CapsAndCountersNameTheBuild) {
  const ScoringScheme scheme = dna_linear();
  auto backend = make_striped_backend(scheme);

  const Sequence same(140, encoding::code(encoding::Base::G));  // 280
  std::vector<Sequence> xs(8, same), ys(8, same);
  telemetry::Telemetry session({.enabled = true});
  ScreenConfig cfg;
  cfg.scheme = scheme;
  cfg.traceback = false;
  cfg.backend = backend.get();
  cfg.telemetry = session.sink();
  const auto got = try_screen(xs, ys, cfg);
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  const auto counters = session.snapshot().counters;
  EXPECT_EQ(counters.at("sw.striped.byte_pass_pairs"), 8u);
  EXPECT_EQ(counters.at("sw.striped.escalations"), 8u);
}

}  // namespace
}  // namespace swbpbc::sw
