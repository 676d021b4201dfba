// Randomized cross-checks of the striped-SIMD (Farrar, lazy-F
// deconstructed) engine against the scalar Gotoh reference: DNA and
// protein alphabets, linear and affine gaps, query lengths chosen to
// straddle segment boundaries (m % lanes != 0, m < lanes, m >> lanes),
// both kernel representations (GNU vector and the std::array fallback),
// both element widths (16-bit and the 32-bit escalation), the lazy-F
// stress shapes (cheap gaps, rich matches — maximal cross-segment
// carry), the degenerate inputs, the profile cache, and the v2 Backend
// registration through the chunked screening pipeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sw/backend.hpp"
#include "sw/pipeline.hpp"
#include "sw/scalar.hpp"
#include "sw/scoring.hpp"
#include "sw/striped.hpp"
#include "util/rng.hpp"

namespace swbpbc::sw {
namespace {

using encoding::GenericSequence;
using encoding::Sequence;

const StripedRepr kBothReprs[] = {StripedRepr::kVector, StripedRepr::kScalar};

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

void expect_pair_identity(const GenericSequence& x, const GenericSequence& y,
                          const ScoringScheme& scheme,
                          const std::string& label) {
  const std::uint32_t want = scheme_max_score(x, y, scheme);
  for (const StripedRepr repr : kBothReprs) {
    const std::uint32_t got = striped_max_score(x, y, scheme, repr);
    EXPECT_EQ(got, want)
        << label << " repr=" << static_cast<int>(repr) << " m=" << x.size()
        << " n=" << y.size();
  }
}

// The randomized matrix: every scheme kind x query lengths that straddle
// the 8-lane and 4-lane segment boundaries (1, lanes-1, lanes, lanes+1,
// several non-multiples, and a long tail) x assorted target lengths.
TEST(StripedCross, RandomizedMatrixMatchesScalarGotoh) {
  struct Case {
    const char* name;
    ScoringScheme scheme;
    std::size_t sigma;
  };
  const Case cases[] = {
      {"dna-linear", dna_linear(), 4},
      {"dna-linear-steep", dna_linear(5, 4, 3), 4},
      {"dna-affine", dna_affine(), 4},
      {"blosum62-linear", protein_blosum62(GapModel::kLinear), 20},
      {"blosum62-affine", protein_blosum62(), 20},
  };
  const std::size_t query_lengths[] = {1, 2, 5, 7, 8, 9, 15, 16, 17,
                                       23, 24, 31, 33, 50, 64, 100};
  const std::size_t target_lengths[] = {1, 3, 17, 64, 130};
  util::Xoshiro256 rng(20260809);
  for (const Case& c : cases) {
    for (const std::size_t m : query_lengths) {
      for (const std::size_t n : target_lengths) {
        const GenericSequence x = random_generic(rng, m, c.sigma);
        const GenericSequence y = random_generic(rng, n, c.sigma);
        expect_pair_identity(x, y, c.scheme, c.name);
      }
    }
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
  for (const std::size_t m : {17, 33, 64}) {
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
// bound over 16 bits); the wide kernel must stay bit-identical too.
TEST(StripedCross, WideCellEscalationMatchesScalar) {
  ScoringScheme s = dna_linear(300, 100, 120);
  util::Xoshiro256 rng(7);
  const GenericSequence x = random_generic(rng, 300, 4);
  const GenericSequence y = random_generic(rng, 90, 4);
  const StripedProfile profile(s, x);
  EXPECT_TRUE(profile.wide_cells());
  EXPECT_EQ(profile.lanes(), 4u);
  expect_pair_identity(x, y, s, "wide-cells");
  // And the 16-bit path is actually exercised by the small schemes.
  const StripedProfile narrow(dna_linear(), x);
  EXPECT_FALSE(narrow.wide_cells());
  EXPECT_EQ(narrow.lanes(), 8u);
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

TEST(StripedBulkTest, ShapeAndSchemeValidation) {
  const ScoringScheme s = dna_linear();
  const std::vector<GenericSequence> one(1, GenericSequence{0, 1});
  const std::vector<GenericSequence> two(2, GenericSequence{0, 1});
  EXPECT_FALSE(try_striped_max_scores(one, two, s).has_value());
  ScoringScheme bad = dna_linear(0);
  EXPECT_FALSE(try_striped_max_scores(one, one, bad).has_value());
}

// The Backend registration: a chunked screen through make_striped_backend
// must be bit-identical to the default BPBC screen, and its par-mode
// scores identical to serial.
TEST(StripedBackendTest, ChunkedScreenBitIdenticalToBpbc) {
  util::Xoshiro256 rng(21);
  const auto random_dna = [&rng](std::size_t len) {
    Sequence s(len);
    for (auto& b : s)
      b = static_cast<encoding::Base>(rng.below(4));
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

}  // namespace
}  // namespace swbpbc::sw
