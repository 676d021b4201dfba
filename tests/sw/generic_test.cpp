// Generic epsilon-bit alphabet support: alphabets, plane batches, and the
// bit-sliced kernel over 1-, 5- and 8-bit alphabets against the scalar
// reference.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "encoding/alphabet.hpp"
#include "encoding/generic_batch.hpp"
#include "encoding/random.hpp"
#include "sw/bpbc.hpp"
#include "sw/scalar.hpp"
#include "sw/scheme_aligner.hpp"
#include "util/rng.hpp"

namespace swbpbc::sw {
namespace {

using encoding::Alphabet;
using encoding::GenericSequence;

TEST(Alphabet, DnaMatchesPaperCodes) {
  const Alphabet& dna = encoding::dna_alphabet();
  EXPECT_EQ(dna.bits(), 2u);
  EXPECT_EQ(dna.code('A'), 0b00);
  EXPECT_EQ(dna.code('T'), 0b01);
  EXPECT_EQ(dna.code('G'), 0b10);
  EXPECT_EQ(dna.code('C'), 0b11);
}

TEST(Alphabet, ProteinUsesFiveBits) {
  const Alphabet& prot = encoding::protein_alphabet();
  EXPECT_EQ(prot.size(), 20u);
  EXPECT_EQ(prot.bits(), 5u);
  EXPECT_EQ(prot.decode(prot.encode("KWVTFISLL")), "KWVTFISLL");
}

TEST(Alphabet, RejectsBadConstruction) {
  EXPECT_THROW(Alphabet(""), std::invalid_argument);
  EXPECT_THROW(Alphabet("AAB"), std::invalid_argument);
}

TEST(Alphabet, RejectsUnknownSymbolsAndCodes) {
  const Alphabet abc("abc");
  EXPECT_EQ(abc.bits(), 2u);
  EXPECT_THROW((void)abc.code('z'), std::invalid_argument);
  EXPECT_THROW((void)abc.symbol(3), std::out_of_range);
}

GenericSequence random_generic(util::Xoshiro256& rng, std::size_t len,
                               std::size_t alphabet_size) {
  GenericSequence s(len);
  for (auto& c : s)
    c = static_cast<std::uint8_t>(rng.below(alphabet_size));
  return s;
}

TEST(GenericBatch, RoundTripAllWidths) {
  util::Xoshiro256 rng(11);
  for (unsigned bits : {1u, 2u, 3u, 5u, 8u}) {
    const std::size_t size = std::size_t{1} << bits;
    std::vector<GenericSequence> seqs;
    for (int k = 0; k < 40; ++k)
      seqs.push_back(random_generic(rng, 13, size));
    const auto planned = encoding::transpose_generic_planar<std::uint32_t>(
        seqs, bits, encoding::TransposeMethod::kPlanned);
    const auto naive = encoding::transpose_generic_planar<std::uint32_t>(
        seqs, bits, encoding::TransposeMethod::kNaive);
    ASSERT_EQ(planned.groups.size(), naive.groups.size());
    for (std::size_t g = 0; g < planned.groups.size(); ++g) {
      EXPECT_EQ(planned.groups[g].rows, naive.groups[g].rows)
          << "bits=" << bits << " group=" << g;
    }
    for (std::size_t k = 0; k < seqs.size(); ++k) {
      const auto group = planned.groups[k / 32].view();
      for (std::size_t i = 0; i < 13; ++i) {
        ASSERT_EQ(encoding::read_code(group, k % 32, i), seqs[k][i])
            << "bits=" << bits << " k=" << k << " i=" << i;
      }
    }
  }
}

TEST(GenericBatch, ValidatesInput) {
  std::vector<GenericSequence> bad = {{0, 1}, {0}};
  EXPECT_THROW(encoding::transpose_generic_planar<std::uint32_t>(bad, 2),
               std::invalid_argument);
  std::vector<GenericSequence> out_of_range = {{7}};
  EXPECT_THROW(
      encoding::transpose_generic_planar<std::uint32_t>(out_of_range, 2),
      std::invalid_argument);
  std::vector<GenericSequence> ok = {{0, 1, 2}};
  EXPECT_THROW(encoding::transpose_generic_planar<std::uint32_t>(ok, 0),
               std::invalid_argument);
}

// Uniform +2/-1 substitution with unit linear gaps over an alphabet of
// `size` symbols (codes 0..size-1), as a matrix scheme: the kernel's
// epsilon-bit path for alphabets other than DNA.
ScoringScheme uniform_matrix_scheme(std::size_t size) {
  std::string symbols(size, '\0');
  for (std::size_t a = 0; a < size; ++a)
    symbols[a] = static_cast<char>(a);
  std::vector<std::int8_t> entries(size * size, -1);
  for (std::size_t a = 0; a < size; ++a) entries[a * size + a] = 2;
  ScoringScheme scheme;
  scheme.matrix = std::make_shared<const SubstitutionMatrix>(
      "uniform", symbols, std::move(entries));
  scheme.gap_open = 1;
  return scheme;
}

void check_generic_vs_scalar(LaneWidth width, std::size_t count,
                             std::size_t m, std::size_t n,
                             std::size_t alphabet_size, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<GenericSequence> xs, ys;
  for (std::size_t k = 0; k < count; ++k) {
    xs.push_back(random_generic(rng, m, alphabet_size));
    ys.push_back(random_generic(rng, n, alphabet_size));
  }
  // Plant a homolog so high scores exist.
  for (std::size_t k = 0; k < count; k += 5) {
    std::copy(xs[k].begin(), xs[k].end(),
              ys[k].begin() + static_cast<std::ptrdiff_t>(k % (n - m)));
  }
  const ScoringScheme scheme = uniform_matrix_scheme(alphabet_size);
  const auto scores = try_scheme_max_scores(xs, ys, scheme, width);
  ASSERT_TRUE(scores.has_value()) << scores.status().to_string();
  ASSERT_EQ(scores->size(), count);
  for (std::size_t k = 0; k < count; ++k) {
    EXPECT_EQ((*scores)[k], scheme_max_score(xs[k], ys[k], scheme))
        << "instance " << k;
  }
}

TEST(GenericBpbc, ProteinAlphabetMatchesScalar32) {
  check_generic_vs_scalar(LaneWidth::k32, 40, 10, 40, 20, 101);
}

TEST(GenericBpbc, ProteinAlphabetMatchesScalar64) {
  check_generic_vs_scalar(LaneWidth::k64, 70, 8, 30, 20, 102);
}

TEST(GenericBpbc, BinaryAlphabet) {
  check_generic_vs_scalar(LaneWidth::k32, 33, 6, 20, 2, 103);
}

TEST(GenericBpbc, FullByteAlphabet) {
  check_generic_vs_scalar(LaneWidth::k32, 32, 5, 18, 256, 104);
}

TEST(GenericBpbc, DnaViaGenericPathMatchesSpecializedPath) {
  // DNA strands are dna_alphabet() codes: the one front end scores them
  // like the DNA-specialized linear reference.
  util::Xoshiro256 rng(105);
  const auto xs = encoding::random_sequences(rng, 32, 9);
  const auto ys = encoding::random_sequences(rng, 32, 27);
  const ScoreParams params{2, 1, 1};
  const ScoringScheme scheme;  // the same 2/1/1 linear rules
  const auto generic = try_scheme_max_scores(xs, ys, scheme, LaneWidth::k32);
  ASSERT_TRUE(generic.has_value());
  for (std::size_t k = 0; k < 32; ++k) {
    EXPECT_EQ((*generic)[k], max_score(xs[k], ys[k], params));
  }
}

TEST(GenericBpbc, ValidatesShapes) {
  const SchemeBpbcAligner<std::uint32_t> aligner(uniform_matrix_scheme(20),
                                                 5, 10);
  EXPECT_EQ(aligner.slices(), 4u);
  EXPECT_EQ(aligner.planes(), 5u);
  util::Xoshiro256 rng(106);
  std::vector<GenericSequence> xs{random_generic(rng, 6, 20)};  // wrong m
  std::vector<GenericSequence> ys{random_generic(rng, 10, 20)};
  const auto bx = encoding::transpose_generic_planar<std::uint32_t>(xs, 5);
  const auto by = encoding::transpose_generic_planar<std::uint32_t>(ys, 5);
  std::vector<std::uint32_t> slices(aligner.slices());
  EXPECT_THROW(aligner.max_score_slices(bx.groups[0].view(),
                                        by.groups[0].view(),
                                        std::span<std::uint32_t>(slices)),
               std::invalid_argument);
}

}  // namespace
}  // namespace swbpbc::sw
