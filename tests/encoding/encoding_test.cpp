#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "encoding/batch.hpp"
#include "encoding/dna.hpp"
#include "encoding/fasta.hpp"
#include "encoding/random.hpp"

namespace swbpbc::encoding {
namespace {

TEST(Dna, PaperEncoding) {
  // Paper §II: A = 00, G = 10, C = 11, T = 01.
  EXPECT_EQ(code(Base::A), 0b00);
  EXPECT_EQ(code(Base::T), 0b01);
  EXPECT_EQ(code(Base::G), 0b10);
  EXPECT_EQ(code(Base::C), 0b11);
}

TEST(Dna, HighLowBitPlanes) {
  EXPECT_EQ(high_bit(Base::G), 1);
  EXPECT_EQ(low_bit(Base::G), 0);
  EXPECT_EQ(high_bit(Base::T), 0);
  EXPECT_EQ(low_bit(Base::T), 1);
}

TEST(Dna, CharRoundTrip) {
  for (char ch : {'A', 'C', 'G', 'T'}) {
    EXPECT_EQ(to_char(base_from_char(ch)), ch);
  }
  EXPECT_EQ(base_from_char('a'), Base::A);
  EXPECT_THROW(base_from_char('N'), std::invalid_argument);
  EXPECT_THROW(base_from_char('x'), std::invalid_argument);
}

TEST(Dna, StringRoundTrip) {
  const std::string text = "ATTCGGCA";
  EXPECT_EQ(to_string(sequence_from_string(text)), text);
}

TEST(Random, DeterministicAndUniformish) {
  util::Xoshiro256 rng(42);
  const Sequence s = random_sequence(rng, 4000);
  ASSERT_EQ(s.size(), 4000u);
  int counts[4] = {0, 0, 0, 0};
  for (std::uint8_t c : s) counts[c]++;
  for (int c : counts) EXPECT_GT(c, 800);  // roughly uniform

  util::Xoshiro256 rng2(42);
  EXPECT_EQ(random_sequence(rng2, 4000), s);
}

TEST(Random, MutateRateZeroAndOne) {
  util::Xoshiro256 rng(1);
  const Sequence s = random_sequence(rng, 200);
  EXPECT_EQ(mutate(s, 0.0, rng), s);
  const Sequence all = mutate(s, 1.0, rng);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_NE(all[i], s[i]);
  EXPECT_THROW(mutate(s, 1.5, rng), std::invalid_argument);
}

TEST(Random, PlantMotif) {
  util::Xoshiro256 rng(2);
  Sequence host = random_sequence(rng, 100);
  const Sequence motif = sequence_from_string("ACGTACGT");
  plant_motif(host, motif, 10);
  for (std::size_t i = 0; i < motif.size(); ++i)
    EXPECT_EQ(host[10 + i], motif[i]);
  EXPECT_THROW(plant_motif(host, motif, 95), std::out_of_range);
}

// Row-by-row equality through the 64-bit limbs (wide words have no
// scalar operator==).
template <bitsim::LaneWord W>
bool same_rows(const std::vector<W>& a, const std::vector<W>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (unsigned t = 0; t < bitsim::lane_limbs_v<W>; ++t) {
      if (bitsim::get_limb(a[i], t) != bitsim::get_limb(b[i], t))
        return false;
    }
  }
  return true;
}

template <bitsim::LaneWord W>
void check_transpose_roundtrip(std::size_t count, std::size_t length) {
  util::Xoshiro256 rng(count * 131 + length);
  const auto seqs = random_sequences(rng, count, length);
  const auto planned = transpose_strings<W>(seqs, TransposeMethod::kPlanned);
  const auto naive = transpose_strings<W>(seqs, TransposeMethod::kNaive);
  // DNA is the epsilon = 2 alphabet: the batch equals the generic
  // 2-plane transpose of the same codes.
  const auto generic = transpose_generic_planar<W>(seqs, kBitsPerBase);
  EXPECT_EQ(planned.planes, kBitsPerBase);
  ASSERT_EQ(planned.groups.size(), naive.groups.size());
  ASSERT_EQ(planned.groups.size(), generic.groups.size());
  for (std::size_t g = 0; g < planned.groups.size(); ++g) {
    EXPECT_TRUE(same_rows(planned.groups[g].rows, naive.groups[g].rows))
        << "group " << g;
    EXPECT_TRUE(same_rows(planned.groups[g].rows, generic.groups[g].rows))
        << "group " << g;
  }
  // Read back every character.
  constexpr unsigned kLanes = bitsim::word_bits_v<W>;
  for (std::size_t k = 0; k < count; ++k) {
    const auto group = planned.groups[k / kLanes].view();
    for (std::size_t i = 0; i < length; ++i) {
      ASSERT_EQ(read_code(group, k % kLanes, i), code(seqs[k][i]))
          << "instance " << k << " pos " << i;
    }
  }
}

TEST(Batch, TransposePlannedEqualsNaive32) {
  check_transpose_roundtrip<std::uint32_t>(32, 40);
}

TEST(Batch, TransposePlannedEqualsNaive64) {
  check_transpose_roundtrip<std::uint64_t>(64, 17);
}

// The wide lane words, each with a partially used tail group.
TEST(Batch, TransposePlannedEqualsNaive128) {
  check_transpose_roundtrip<bitsim::simd_word<128>>(130, 9);
}

TEST(Batch, TransposePlannedEqualsNaive256) {
  check_transpose_roundtrip<bitsim::simd_word<256>>(300, 7);
}

TEST(Batch, TransposePlannedEqualsNaive512) {
  check_transpose_roundtrip<bitsim::simd_word<512>>(520, 5);
}

TEST(Batch, TailGroupHandling) {
  // 70 instances with 32 lanes -> 3 groups, last one partially used.
  check_transpose_roundtrip<std::uint32_t>(70, 8);
}

TEST(Batch, SingleInstance) {
  check_transpose_roundtrip<std::uint32_t>(1, 5);
}

TEST(Batch, RejectsUnequalLengths) {
  std::vector<Sequence> seqs = {sequence_from_string("ACGT"),
                                sequence_from_string("ACG")};
  EXPECT_THROW(transpose_strings<std::uint32_t>(seqs),
               std::invalid_argument);
}

TEST(Batch, EmptyBatch) {
  const std::vector<Sequence> seqs;
  const auto batch = transpose_strings<std::uint32_t>(seqs);
  EXPECT_EQ(batch.count, 0u);
  EXPECT_TRUE(batch.groups.empty());
}

template <bitsim::LaneWord W>
void check_value_roundtrip(unsigned s) {
  constexpr unsigned kLanes = bitsim::word_bits_v<W>;
  util::Xoshiro256 rng(777 + s);
  std::vector<std::uint32_t> values(kLanes);
  const std::uint32_t mask = s >= 32 ? ~0u : ((std::uint32_t{1} << s) - 1);
  for (auto& v : values) v = static_cast<std::uint32_t>(rng.next()) & mask;
  const auto slices = transpose_values<W>(values, s);
  for (auto method : {TransposeMethod::kPlanned, TransposeMethod::kNaive}) {
    const auto back = untranspose_values<W>(
        std::span<const W>(slices), s, method);
    EXPECT_EQ(back, values) << "s=" << s;
  }
}

TEST(Batch, ValueRoundTrip32) {
  for (unsigned s : {1u, 2u, 9u, 16u, 32u}) {
    check_value_roundtrip<std::uint32_t>(s);
  }
}

TEST(Batch, ValueRoundTrip64) {
  for (unsigned s : {1u, 9u, 20u}) {
    check_value_roundtrip<std::uint64_t>(s);
  }
}

TEST(Batch, UntransposeValidatesArguments) {
  std::vector<std::uint32_t> slices(4, 0);
  EXPECT_THROW(
      untranspose_values<std::uint32_t>(std::span<const std::uint32_t>(slices),
                                        5),
      std::invalid_argument);
}

TEST(Fasta, ParseAndRoundTrip) {
  const std::string text =
      ">seq1 description\nACGT\nACGT\n\n>seq2\nTTTT\n";
  const auto records = read_fasta_string(text);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].name, "seq1 description");
  EXPECT_EQ(to_string(records[0].sequence), "ACGTACGT");
  EXPECT_EQ(to_string(records[1].sequence), "TTTT");

  std::ostringstream out;
  write_fasta(out, records, 4);
  const auto reparsed = read_fasta_string(out.str());
  ASSERT_EQ(reparsed.size(), 2u);
  EXPECT_EQ(reparsed[0].sequence, records[0].sequence);
  EXPECT_EQ(reparsed[1].sequence, records[1].sequence);
}

TEST(Fasta, RejectsMalformedInput) {
  EXPECT_THROW(read_fasta_string("ACGT\n"), std::invalid_argument);
  EXPECT_THROW(read_fasta_string(">x\nACGN\n"), std::invalid_argument);
}

TEST(Fasta, HandlesCrlf) {
  const auto records = read_fasta_string(">a\r\nAC\r\nGT\r\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(to_string(records[0].sequence), "ACGT");
}

}  // namespace
}  // namespace swbpbc::encoding
