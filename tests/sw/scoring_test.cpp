// The redesigned ScoringScheme API: the ScoreParams lift (lossless in
// both directions), field-naming validation, the BLOSUM62 preset, scheme
// naming, slice budgeting, and the fingerprint compatibility contract
// (the scheme fingerprints are pinned literally so existing checkpoint
// streams and request journals keep resuming).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "encoding/alphabet.hpp"
#include "sw/params.hpp"
#include "sw/scoring.hpp"
#include "util/status.hpp"

namespace swbpbc::sw {
namespace {

ScoringScheme affine_scheme(std::uint32_t open, std::uint32_t extend) {
  ScoringScheme s;
  s.gap_model = GapModel::kAffine;
  s.gap_open = open;
  s.gap_extend = extend;
  return s;
}

ScoringScheme blosum62_affine(std::uint32_t open = 11,
                              std::uint32_t extend = 1) {
  ScoringScheme s = affine_scheme(open, extend);
  s.matrix = blosum62();
  return s;
}

TEST(ScoringScheme, FromParamsIsLossless) {
  const ScoreParams params{3, 2, 4};
  const ScoringScheme scheme = ScoringScheme::from_params(params);
  EXPECT_TRUE(scheme.uniform());
  EXPECT_FALSE(scheme.affine());
  EXPECT_TRUE(scheme.params_expressible());
  const auto back = scheme.to_params();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->match, params.match);
  EXPECT_EQ(back->mismatch, params.mismatch);
  EXPECT_EQ(back->gap, params.gap);
}

TEST(ScoringScheme, AffineAndMatrixAreNotParamsExpressible) {
  EXPECT_FALSE(affine_scheme(3, 1).params_expressible());
  EXPECT_FALSE(affine_scheme(3, 1).to_params().has_value());
  ScoringScheme matrix;
  matrix.matrix = blosum62();
  EXPECT_FALSE(matrix.params_expressible());
  EXPECT_FALSE(matrix.to_params().has_value());
}

TEST(ScoringScheme, AlphabetFollowsSubstitutionModel) {
  ScoringScheme uniform;
  EXPECT_EQ(uniform.alphabet_bits(), 2u);
  EXPECT_EQ(&uniform.alphabet(), &encoding::dna_alphabet());
  ScoringScheme protein = blosum62_affine();
  EXPECT_EQ(protein.alphabet_bits(), 5u);
  EXPECT_EQ(protein.alphabet().size(), 20u);
}

TEST(ScoringScheme, SubstitutionLooksUpSignedEntries) {
  const ScoringScheme protein = blosum62_affine();
  const encoding::Alphabet& aa = protein.alphabet();
  // Classic BLOSUM62 anchors: W/W = 11, the most negative entries are -4.
  EXPECT_EQ(protein.substitution(aa.code('W'), aa.code('W')), 11);
  EXPECT_EQ(protein.substitution(aa.code('W'), aa.code('N')), -4);
  EXPECT_EQ(protein.max_positive(), 11u);
  EXPECT_EQ(protein.max_negative(), 4u);
  // Symmetric, as a substitution matrix must be.
  for (std::uint8_t a = 0; a < 20; ++a)
    for (std::uint8_t b = 0; b < 20; ++b)
      EXPECT_EQ(protein.substitution(a, b), protein.substitution(b, a));
}

TEST(ScoringScheme, ValidateNamesTheOffendingField) {
  ScoringScheme zero_open;
  zero_open.gap_open = 0;
  util::Status s = validate_scheme(zero_open, "cfg.scheme");
  EXPECT_EQ(s.code(), util::ErrorCode::kInvalidInput);
  EXPECT_NE(s.message().find("cfg.scheme.gap_open"), std::string::npos);

  ScoringScheme zero_extend = affine_scheme(3, 1);
  zero_extend.gap_extend = 0;
  s = validate_scheme(zero_extend);
  EXPECT_EQ(s.code(), util::ErrorCode::kInvalidInput);
  EXPECT_NE(s.message().find("gap_extend"), std::string::npos);

  // Opening a gap cannot be cheaper than extending one.
  s = validate_scheme(affine_scheme(2, 5));
  EXPECT_EQ(s.code(), util::ErrorCode::kInvalidInput);
  EXPECT_NE(s.message().find("gap_extend"), std::string::npos);

  ScoringScheme zero_match;
  zero_match.match = 0;
  s = validate_scheme(zero_match);
  EXPECT_EQ(s.code(), util::ErrorCode::kInvalidInput);
  EXPECT_NE(s.message().find("match"), std::string::npos);
}

TEST(ScoringScheme, ValidateChecksMatrixShapeAndContent) {
  ScoringScheme bad_shape;
  bad_shape.matrix = std::make_shared<const SubstitutionMatrix>(
      "truncated", "abc", std::vector<std::int8_t>{1, 2, 3});
  util::Status s = validate_scheme(bad_shape);
  EXPECT_EQ(s.code(), util::ErrorCode::kInvalidInput);
  EXPECT_NE(s.message().find("matrix shape"), std::string::npos);

  ScoringScheme no_positive;
  no_positive.matrix = std::make_shared<const SubstitutionMatrix>(
      "hopeless", "ab", std::vector<std::int8_t>{-1, -1, -1, -1});
  s = validate_scheme(no_positive);
  EXPECT_EQ(s.code(), util::ErrorCode::kInvalidInput);
  EXPECT_NE(s.message().find("positive entry"), std::string::npos);

  EXPECT_TRUE(validate_scheme(blosum62_affine()).ok());
  EXPECT_TRUE(validate_scheme(ScoringScheme{}).ok());
}

TEST(ScoringScheme, SchemeNameIsHumanReadable) {
  EXPECT_EQ(scheme_name(ScoringScheme{}), "linear/match-mismatch");
  EXPECT_EQ(scheme_name(affine_scheme(3, 1)), "affine/match-mismatch");
  EXPECT_EQ(scheme_name(blosum62_affine()), "affine/blosum62");
}

TEST(ScoringScheme, RequiredSlicesCoverScoreRangeAndConstants) {
  // Uniform DNA: match drives the growth bound, 2 * min(8, 100) = 16
  // needs 5 bits.
  ScoringScheme uniform;  // match = 2
  EXPECT_EQ(scheme_required_slices(uniform, 8, 100), 5u);
  // BLOSUM62: growth bound 11 * min(m, n); gap/entry constants fit too.
  const ScoringScheme protein = blosum62_affine();
  const unsigned s = scheme_required_slices(protein, 10, 50);
  EXPECT_GE(std::uint64_t{1} << s, std::uint64_t{11} * 10);
  // Overflow of the 32-slice budget is refused, not wrapped.
  EXPECT_THROW((void)scheme_required_slices(protein, 1u << 30, 1u << 30),
               std::invalid_argument);
}

TEST(SchemeFingerprint, ExpressibleSchemesHashLikeParams) {
  // The resume-compatibility contract: checkpoint streams and request
  // journals already written must keep replaying, so the fingerprints are
  // pinned to the values every earlier build produced. DNA 2/1/1 linear
  // hashes the bare (match, mismatch, gap) triple, as ScoreParams always
  // did.
  EXPECT_EQ(fingerprint_scheme(ScoringScheme{}), 0xbfee9d1a1df34867ull);
  EXPECT_EQ(fingerprint_scheme(affine_scheme(3, 1)), 0xd403db540b77edaeull);
  EXPECT_EQ(fingerprint_scheme(blosum62_affine(11, 1)),
            0x4ff5551c5fbd5ac9ull);
}

TEST(SchemeFingerprint, DistinguishesGapModelsAndMatrixBytes) {
  const ScoringScheme linear;  // expressible
  const ScoringScheme affine = affine_scheme(1, 1);
  // Same magnitudes, different gap model: must not collide.
  EXPECT_NE(fingerprint_scheme(linear), fingerprint_scheme(affine));
  EXPECT_NE(fingerprint_scheme(affine_scheme(3, 1)),
            fingerprint_scheme(affine_scheme(3, 2)));

  // A single changed matrix cell is a different scheme.
  ScoringScheme blosum = blosum62_affine();
  std::vector<std::int8_t> tweaked = blosum62()->entries();
  tweaked[0] = static_cast<std::int8_t>(tweaked[0] + 1);
  ScoringScheme mutant = blosum;
  mutant.matrix = std::make_shared<const SubstitutionMatrix>(
      "blosum62", blosum62()->symbols(), std::move(tweaked));
  EXPECT_NE(fingerprint_scheme(blosum), fingerprint_scheme(mutant));

  // And the fingerprint chains the incoming hash.
  EXPECT_NE(fingerprint_scheme(blosum, 1), fingerprint_scheme(blosum, 2));
}

}  // namespace
}  // namespace swbpbc::sw
