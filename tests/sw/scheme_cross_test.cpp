// Randomized cross-checks of the bitwise ScoringScheme kernels against
// the scalar Gotoh references: affine gaps and substitution-matrix lookup
// over DNA and protein alphabets, at every lane width (32/64/128/256/512)
// and on sequence lengths at each width's lane-count boundaries, through
// the host backend, the chunked screening pipeline, the database-store
// serve path (including corruption quarantine + re-ingest), and the
// device wavefront engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "db/builder.hpp"
#include "db/reader.hpp"
#include "device/engine.hpp"
#include "device/fault.hpp"
#include "encoding/random.hpp"
#include "sw/backend.hpp"
#include "sw/pipeline.hpp"
#include "sw/scalar.hpp"
#include "sw/scheme_aligner.hpp"
#include "sw/scoring.hpp"
#include "util/rng.hpp"

namespace swbpbc::sw {
namespace {

using encoding::GenericSequence;
using encoding::Sequence;

const LaneWidth kAllWidths[] = {LaneWidth::k32, LaneWidth::k64,
                                LaneWidth::k128, LaneWidth::k256,
                                LaneWidth::k512};

GenericSequence random_generic(util::Xoshiro256& rng, std::size_t len,
                               std::size_t sigma) {
  GenericSequence s(len);
  for (auto& c : s) c = static_cast<std::uint8_t>(rng.below(sigma));
  return s;
}

std::vector<GenericSequence> random_batch(util::Xoshiro256& rng,
                                          std::size_t count, std::size_t len,
                                          std::size_t sigma) {
  std::vector<GenericSequence> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k)
    out.push_back(random_generic(rng, len, sigma));
  return out;
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

std::vector<std::uint32_t> scalar_reference(
    const std::vector<GenericSequence>& xs,
    const std::vector<GenericSequence>& ys, const ScoringScheme& scheme) {
  std::vector<std::uint32_t> out(xs.size());
  for (std::size_t k = 0; k < xs.size(); ++k)
    out[k] = scheme_max_score(xs[k], ys[k], scheme);
  return out;
}

void expect_cross_width_identity(const std::vector<GenericSequence>& xs,
                                 const std::vector<GenericSequence>& ys,
                                 const ScoringScheme& scheme,
                                 const std::string& what) {
  const std::vector<std::uint32_t> want = scalar_reference(xs, ys, scheme);
  for (LaneWidth width : kAllWidths) {
    auto got = try_scheme_max_scores(xs, ys, scheme, width);
    ASSERT_TRUE(got.has_value())
        << what << " @ " << lane_width_name(width) << ": "
        << got.status().to_string();
    EXPECT_EQ(*got, want) << what << " @ " << lane_width_name(width);
  }
}

// Every width on lengths at its own lane-count boundaries: m or n in
// {1, lanes - 1, lanes, lanes + 1} against a short other side. Pair 0
// carries a planted diagonal so high scores (long carry chains) occur.
// A ScoreParams-expressible scheme also checks against the linear scalar
// reference.
void expect_boundary_shapes(const ScoringScheme& scheme, std::size_t sigma,
                            std::uint64_t seed, const std::string& what) {
  util::Xoshiro256 rng(seed);
  const auto params = scheme.to_params();
  for (LaneWidth width : kAllWidths) {
    const std::size_t lanes = lane_width_bits(width);
    for (std::size_t len : {std::size_t{1}, lanes - 1, lanes, lanes + 1}) {
      for (const auto& [m, n] : {std::pair{len, std::size_t{7}},
                                 std::pair{std::size_t{7}, len}}) {
        const auto xs = random_batch(rng, 5, m, sigma);
        auto ys = random_batch(rng, 5, n, sigma);
        std::copy_n(xs[0].begin(), std::min(m, n), ys[0].begin());
        const std::string where = what + " @ " + lane_width_name(width) +
                                  " m=" + std::to_string(m) +
                                  " n=" + std::to_string(n);
        auto got = try_scheme_max_scores(xs, ys, scheme, width);
        ASSERT_TRUE(got.has_value()) << where << ": "
                                     << got.status().to_string();
        EXPECT_EQ(*got, scalar_reference(xs, ys, scheme)) << where;
        if (!params) continue;
        for (std::size_t k = 0; k < xs.size(); ++k)
          EXPECT_EQ((*got)[k], max_score(xs[k], ys[k], *params))
              << where << " (linear reference) pair " << k;
      }
    }
  }
}

TEST(SchemeCross, DnaAffineMatchesScalarGotohAtEveryWidth) {
  util::Xoshiro256 rng(101);
  // 70 pairs spans two 32-lane groups even at k32 and a partial group at
  // every width; lengths exercise multi-slice carries.
  const auto xs = random_batch(rng, 70, 9, 4);
  const auto ys = random_batch(rng, 70, 33, 4);
  expect_cross_width_identity(xs, ys, dna_affine(3, 1), "dna affine 3/1");
  expect_cross_width_identity(xs, ys, dna_affine(5, 2), "dna affine 5/2");
  // open == extend degenerates to linear costs; still the Gotoh circuit.
  expect_cross_width_identity(xs, ys, dna_affine(2, 2), "dna affine 2/2");
  expect_boundary_shapes(dna_affine(3, 1), 4, 102, "dna affine 3/1");
}

TEST(SchemeCross, ProteinBlosum62MatchesScalarAtEveryWidth) {
  util::Xoshiro256 rng(202);
  const auto xs = random_batch(rng, 70, 8, 20);
  const auto ys = random_batch(rng, 70, 24, 20);
  expect_cross_width_identity(xs, ys, protein_blosum62(GapModel::kAffine),
                              "blosum62 affine");
  expect_cross_width_identity(xs, ys, protein_blosum62(GapModel::kLinear),
                              "blosum62 linear");
  expect_boundary_shapes(protein_blosum62(GapModel::kAffine), 20, 203,
                         "blosum62 affine");
}

TEST(SchemeCross, ExpressibleSchemeIsBitIdenticalToLegacyKernels) {
  util::Xoshiro256 rng(303);
  const std::size_t count = 70;
  const auto xs = encoding::random_sequences(rng, count, 10);
  const auto ys = encoding::random_sequences(rng, count, 40);
  const ScoringScheme scheme;  // 2/1/1 linear
  const auto params = scheme.to_params().value();
  for (LaneWidth width : kAllWidths) {
    auto got = try_scheme_max_scores(xs, ys, scheme, width);
    ASSERT_TRUE(got.has_value());
    for (std::size_t k = 0; k < count; ++k)
      EXPECT_EQ((*got)[k], max_score(xs[k], ys[k], params))
          << lane_width_name(width) << " pair " << k;
  }
  expect_boundary_shapes(scheme, 4, 304, "dna linear 2/1/1");

  // A score of exactly 2^s - 1, the largest the slices hold: match 3 over
  // an identical 21-mer pair is 63 at s = 6.
  ScoringScheme top;
  top.match = 3;
  ASSERT_EQ(scheme_required_slices(top, 21, 21), 6u);
  const std::vector<Sequence> same(3, encoding::random_sequence(rng, 21));
  for (LaneWidth width : kAllWidths) {
    auto got = try_scheme_max_scores(same, same, top, width);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, std::vector<std::uint32_t>(3, 63u))
        << lane_width_name(width);
  }
  EXPECT_EQ(scheme_max_score(same[0], same[0], top), 63u);
}

TEST(SchemeCross, ParallelModeMatchesSerial) {
  util::Xoshiro256 rng(404);
  const auto xs = random_batch(rng, 200, 8, 20);
  const auto ys = random_batch(rng, 200, 20, 20);
  const ScoringScheme scheme = protein_blosum62();
  auto serial = try_scheme_max_scores(xs, ys, scheme, LaneWidth::k64,
                                      bulk::Mode::kSerial);
  auto parallel = try_scheme_max_scores(xs, ys, scheme, LaneWidth::k64,
                                        bulk::Mode::kParallel);
  ASSERT_TRUE(serial.has_value());
  ASSERT_TRUE(parallel.has_value());
  EXPECT_EQ(*serial, *parallel);
}

TEST(SchemeCross, TypedErrorsNameTheDefect) {
  const ScoringScheme scheme = protein_blosum62();
  std::vector<GenericSequence> xs = {{0, 1, 2}};
  std::vector<GenericSequence> ys = {{3, 4, 5, 6}};

  // Out-of-alphabet code (20 alphabet symbols, code 25 is garbage).
  std::vector<GenericSequence> bad_ys = {{3, 25, 5, 6}};
  auto r = try_scheme_max_scores(xs, bad_ys, scheme);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.status().code(), util::ErrorCode::kInvalidInput);
  EXPECT_NE(r.status().message().find("alphabet"), std::string::npos);

  // Count mismatch.
  std::vector<GenericSequence> extra = {{0, 1, 2}, {0, 1, 2}};
  r = try_scheme_max_scores(extra, ys, scheme);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.status().code(), util::ErrorCode::kInvalidInput);

  // Non-uniform lengths.
  std::vector<GenericSequence> xs2 = {{0, 1, 2}, {0, 1}};
  std::vector<GenericSequence> ys2 = {{3, 4}, {3, 4}};
  r = try_scheme_max_scores(xs2, ys2, scheme);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.status().code(), util::ErrorCode::kInvalidInput);

  // An invalid scheme is refused before any kernel runs.
  ScoringScheme invalid = dna_affine(1, 3);  // extend > open
  std::vector<GenericSequence> dx = {{0, 1}};
  std::vector<GenericSequence> dy = {{2, 3}};
  r = try_scheme_max_scores(dx, dy, invalid);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.status().code(), util::ErrorCode::kInvalidInput);
}

TEST(SchemeCross, ScreenPipelineRunsAffineSchemeChunked) {
  // The DNA screening pipeline accepts uniform affine schemes end to end:
  // chunked runs match the unchunked host path and the scalar reference.
  util::Xoshiro256 rng(505);
  const auto xs = encoding::random_sequences(rng, 150, 9);
  const auto ys = encoding::random_sequences(rng, 150, 30);
  const ScoringScheme scheme = dna_affine(3, 1);

  ScreenConfig cfg;
  cfg.scheme = scheme;
  cfg.threshold = 10;
  auto whole = try_screen(xs, ys, cfg);
  ASSERT_TRUE(whole.has_value()) << whole.status().to_string();

  for (std::size_t k = 0; k < xs.size(); ++k)
    EXPECT_EQ(whole->scores[k], scheme_max_score(xs[k], ys[k], scheme))
        << "pair " << k;
  // Hits carry the affine traceback detail (score equals the screen).
  for (const ScreenHit& hit : whole->hits) {
    EXPECT_TRUE(hit.detailed);
    EXPECT_EQ(hit.detail.score, whole->scores[hit.index]);
  }

  ScreenConfig chunked = cfg;
  chunked.chunk_pairs = 64;
  auto parts = try_screen(xs, ys, chunked);
  ASSERT_TRUE(parts.has_value());
  EXPECT_EQ(parts->scores, whole->scores);

  // Self-check enabled: the verifier's scalar reference is the Gotoh
  // scheme path, so a healthy run verifies clean with zero mismatches.
  ScreenConfig checked = chunked;
  checked.check.enabled = true;
  checked.check.sample_every = 8;
  auto verified = try_screen(xs, ys, checked);
  ASSERT_TRUE(verified.has_value()) << verified.status().to_string();
  EXPECT_EQ(verified->scores, whole->scores);
  EXPECT_EQ(verified->reliability.mismatches_detected, 0u);
  EXPECT_GT(verified->reliability.lanes_verified, 0u);
}

TEST(SchemeCross, ScreenScoresMatrixSchemeLikeScalarGotoh) {
  // try_screen is the screen entry for every alphabet: a BLOSUM62 batch
  // scores like scalar Gotoh, and its hits carry the matrix traceback.
  util::Xoshiro256 rng(606);
  const auto xs = random_batch(rng, 40, 6, 20);
  const auto ys = random_batch(rng, 40, 12, 20);
  ScreenConfig cfg;
  cfg.scheme = protein_blosum62();
  cfg.threshold = 8;
  auto r = try_screen(xs, ys, cfg);
  ASSERT_TRUE(r.has_value()) << r.status().to_string();
  EXPECT_EQ(r->scores, scalar_reference(xs, ys, *cfg.scheme));
  for (const ScreenHit& hit : r->hits) {
    EXPECT_TRUE(hit.detailed);
    EXPECT_EQ(hit.detail.score, r->scores[hit.index]);
  }
}

// --- database-store serve path -----------------------------------------

struct DbFixture {
  GenericSequence query;
  std::vector<GenericSequence> entries;
  std::string path;
};

DbFixture make_protein_db(const std::string& name, std::size_t count,
                          std::size_t m, std::size_t n,
                          std::uint64_t seed = 808) {
  util::Xoshiro256 rng(seed);
  DbFixture f;
  f.query = random_generic(rng, m, 20);
  f.entries = random_batch(rng, count, n, 20);
  f.path = testing::TempDir() + "swbpbc_scheme_" + name;
  EXPECT_TRUE(db::build_generic_database(f.entries, 5, f.path).ok());
  return f;
}

// A one-query screen of a protein store through try_screen.
ScreenConfig store_config(const ScoringScheme& scheme, db::Reader& reader,
                          LaneWidth width) {
  ScreenConfig cfg;
  cfg.scheme = scheme;
  cfg.database = &reader;
  cfg.width = width;
  cfg.traceback = false;
  return cfg;
}

TEST(SchemeDb, ServesProteinStoreBitIdenticallyAtEveryWidth) {
  const DbFixture f = make_protein_db("widths.swdb", 190, 11, 28);
  const ScoringScheme scheme = protein_blosum62();
  const std::vector<GenericSequence> xs(f.entries.size(), f.query);
  const std::vector<std::uint32_t> want =
      scalar_reference(xs, f.entries, scheme);

  for (LaneWidth width : kAllWidths) {
    auto reader = db::Reader::open(f.path);
    ASSERT_TRUE(reader.has_value()) << reader.status().to_string();
    auto got = try_screen(xs, f.entries, store_config(scheme, *reader, width));
    ASSERT_TRUE(got.has_value())
        << lane_width_name(width) << ": " << got.status().to_string();
    EXPECT_EQ(got->scores, want) << lane_width_name(width);
    // Every width serves at itself: 32 lanes read half shards.
    EXPECT_EQ(got->lane_width, resolve_lane_width(width))
        << lane_width_name(width);
    EXPECT_GT(got->reliability.db_shards_served, 0u);
    EXPECT_EQ(got->reliability.db_shards_quarantined, 0u);
    EXPECT_EQ(got->reliability.db_pairs_fallback, 0u);
  }
  std::remove(f.path.c_str());
}

TEST(SchemeDb, QuarantinesCorruptShardAndReingestsFromCorpus) {
  const DbFixture f = make_protein_db("rot.swdb", 192, 10, 26);
  const ScoringScheme scheme = protein_blosum62();
  const std::vector<GenericSequence> xs(f.entries.size(), f.query);
  const std::vector<std::uint32_t> want =
      scalar_reference(xs, f.entries, scheme);

  // On-disk rot inside shard 1's payload: the damaged 64-entry slice
  // re-ingests from the screened sequences and the run stays
  // bit-identical.
  ASSERT_TRUE(db::corrupt_shard_for_testing(f.path, 1, 7, 3).ok());
  auto reader = db::Reader::open(f.path);
  ASSERT_TRUE(reader.has_value());
  auto got =
      try_screen(xs, f.entries, store_config(scheme, *reader, LaneWidth::k64));
  ASSERT_TRUE(got.has_value()) << got.status().to_string();
  EXPECT_EQ(got->scores, want);
  EXPECT_EQ(got->reliability.db_shards_quarantined, 1u);
  EXPECT_EQ(got->reliability.db_pairs_reingested, 64u);
  std::remove(f.path.c_str());
}

TEST(SchemeDb, StaleCorpusIsTypedRejection) {
  // A quarantined shard re-ingests from the screened sequences, so
  // sequences that are not the store's content must not be scored.
  const DbFixture f = make_protein_db("stale.swdb", 130, 10, 30);
  ASSERT_TRUE(db::corrupt_shard_for_testing(f.path, 0, 5, 2).ok());
  std::vector<GenericSequence> stale = f.entries;
  for (std::uint8_t& c : stale[0]) c = static_cast<std::uint8_t>((c + 1) % 20);

  auto reader = db::Reader::open(f.path);
  ASSERT_TRUE(reader.has_value());
  const std::vector<GenericSequence> xs(stale.size(), f.query);
  auto got = try_screen(
      xs, stale, store_config(protein_blosum62(), *reader, LaneWidth::k64));
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.status().code(), util::ErrorCode::kDbMismatch);
  std::remove(f.path.c_str());
}

TEST(SchemeDb, RejectsPlaneCountMismatchTyped) {
  // A 2-plane DNA store cannot serve a 5-plane protein scheme, even
  // though every DNA code is also a protein code.
  util::Xoshiro256 rng(909);
  const auto dna = encoding::random_sequences(rng, 64, 20);
  const std::string path = testing::TempDir() + "swbpbc_scheme_planes.swdb";
  ASSERT_TRUE(db::build_database(dna, path).ok());
  auto reader = db::Reader::open(path);
  ASSERT_TRUE(reader.has_value());
  const std::vector<GenericSequence> xs(dna.size(), random_generic(rng, 8, 20));
  auto got = try_screen(
      xs, dna, store_config(protein_blosum62(), *reader, LaneWidth::kAuto));
  ASSERT_FALSE(got.has_value());
  EXPECT_EQ(got.status().code(), util::ErrorCode::kDbMismatch);
  std::remove(path.c_str());
}

// --- device wavefront engine -------------------------------------------

TEST(SchemeEngine, AffineWavefrontMatchesScalarGotoh) {
  util::Xoshiro256 rng(111);
  const auto xs = encoding::random_sequences(rng, 130, 8);
  const auto ys = encoding::random_sequences(rng, 130, 24);
  const ScoringScheme scheme = dna_affine(3, 1);

  device::EngineOptions options;
  options.scheme = scheme;
  options.width = LaneWidth::k64;
  device::PipelineEngine engine(options);

  sw::ChunkJob job;
  job.xs = xs;
  job.ys = ys;
  const sw::ChunkResult result = engine.run(job);
  ASSERT_EQ(result.scores.size(), xs.size());
  for (std::size_t k = 0; k < xs.size(); ++k)
    EXPECT_EQ(result.scores[k], scheme_max_score(xs[k], ys[k], scheme))
        << "pair " << k;
}

TEST(SchemeEngine, ChunkedAffineUnderFaultsMatchesScalarGotoh) {
  util::Xoshiro256 rng(222);
  const auto xs = encoding::random_sequences(rng, 256, 8);
  const auto ys = encoding::random_sequences(rng, 256, 20);
  const ScoringScheme scheme = dna_affine(4, 2);

  device::FaultConfig fc;
  fc.seed = 33;
  fc.flip_probability = 0.01;
  fc.copy_flip_probability = 0.005;
  device::FaultInjector faults(fc);
  device::IntegrityConfig integ;
  integ.enabled = true;
  integ.sample_every = 4;

  device::EngineOptions options;
  options.scheme = scheme;
  options.width = LaneWidth::k64;
  options.faults = &faults;
  options.integrity = integ;
  device::PipelineEngine engine(options);
  ScreenConfig cfg;
  cfg.scheme = scheme;
  cfg.backend = &engine;
  cfg.chunk_pairs = 64;
  cfg.traceback = false;
  cfg.threshold = ~std::uint32_t{0};
  // A 64-pair chunk fills the k64 lane group exactly, so no spare lanes
  // exist for canaries and an in-kernel flip can slip past the engine's
  // own checks — the scheme-aware host self-check is the last line.
  cfg.check.enabled = true;
  cfg.check.sample_every = 1;
  cfg.check.max_retries = 8;

  const auto report = try_screen(xs, ys, cfg);
  ASSERT_TRUE(report.has_value()) << report.status().to_string();
  EXPECT_GT(faults.log().total(), 0u) << "no fault was injected";
  // Retries and rescores draw (chunk, attempt) campaigns and land on the
  // scalar Gotoh scores, faults notwithstanding.
  for (std::size_t k = 0; k < xs.size(); ++k)
    EXPECT_EQ(report->scores[k], scheme_max_score(xs[k], ys[k], scheme))
        << "pair " << k;
}

TEST(SchemeEngine, LinearSchemeMatchesWordwiseBaseline) {
  // The engine's linear BPBC cell and its wordwise row, which runs the
  // scheme as the paper's (c1, c2, gap) triple, score alike.
  util::Xoshiro256 rng(333);
  const auto xs = encoding::random_sequences(rng, 70, 8);
  const auto ys = encoding::random_sequences(rng, 70, 20);

  device::EngineOptions options;
  options.scheme.match = 3;
  options.scheme.mismatch = 2;
  device::PipelineEngine engine(options);

  sw::ChunkJob job;
  job.xs = xs;
  job.ys = ys;
  EXPECT_EQ(engine.run(job).scores, engine.run_wordwise(job).scores);
}

TEST(SchemeEngine, RejectsZeroGapSchemeTyped) {
  device::EngineOptions options;
  options.scheme.gap_open = 0;
  try {
    device::PipelineEngine engine(options);
    FAIL() << "a zero gap must not construct a device engine";
  } catch (const util::StatusError& e) {
    EXPECT_EQ(e.status().code(), util::ErrorCode::kInvalidInput);
    EXPECT_NE(e.status().message().find("EngineOptions::scheme.gap_open"),
              std::string::npos)
        << e.status().to_string();
  }
}

TEST(SchemeEngine, RejectsMatrixSchemeTyped) {
  device::EngineOptions options;
  options.scheme = protein_blosum62();
  try {
    device::PipelineEngine engine(options);
    FAIL() << "matrix scheme must not construct a device engine";
  } catch (const util::StatusError& e) {
    EXPECT_EQ(e.status().code(), util::ErrorCode::kInvalidInput);
    EXPECT_NE(e.status().message().find("try_screen"), std::string::npos);
  }
}

}  // namespace
}  // namespace swbpbc::sw
