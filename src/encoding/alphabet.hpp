// Generic fixed-width alphabets.
//
// §IV of the paper parameterizes the BPBC machinery over epsilon, "the
// number of bits necessary to encode the characters of the input
// strings" (DNA: epsilon = 2). This module supplies that generality: an
// Alphabet maps symbols to dense codes of bit_width(|Sigma|-1) bits, and
// generic_batch.hpp stores batches as epsilon bit planes. The protein
// alphabet (20 amino acids, epsilon = 5) is the canonical non-DNA
// instance.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace swbpbc::encoding {

/// A sequence over an arbitrary alphabet, one dense code per element.
using GenericSequence = std::vector<std::uint8_t>;

class Alphabet {
 public:
  /// Builds an alphabet from its symbol list; code of symbols[i] is i.
  /// Throws std::invalid_argument on duplicates, empty input, or more
  /// than 256 symbols.
  explicit Alphabet(std::string_view symbols);

  /// Bits per character (epsilon in the paper): bit_width(size() - 1),
  /// at least 1.
  [[nodiscard]] unsigned bits() const { return bits_; }
  [[nodiscard]] std::size_t size() const { return symbols_.size(); }

  [[nodiscard]] std::uint8_t code(char symbol) const;  // throws on unknown
  [[nodiscard]] char symbol(std::uint8_t code) const;  // throws on range

  [[nodiscard]] GenericSequence encode(std::string_view text) const;
  [[nodiscard]] std::string decode(const GenericSequence& seq) const;

 private:
  std::string symbols_;
  unsigned bits_ = 1;
  std::int16_t code_of_[256];  // -1 = not in alphabet
};

/// A code at or above some limit, located in a batch of sequences.
struct CodeAt {
  std::size_t seq = 0;    // index of the sequence in the batch
  std::size_t index = 0;  // position inside that sequence
  std::uint8_t code = 0;
};

/// The first code of `seqs` that is >= `limit` (an alphabet size or a
/// plane-width bound), or nullopt when every code is below it. Each
/// sequence is screened by a branch-free max reduction; only a failing
/// sequence is scanned for the offending position.
[[nodiscard]] std::optional<CodeAt> find_code_at_least(
    std::span<const GenericSequence> seqs, std::size_t limit);

/// The DNA alphabet with the paper's §II code assignment
/// (A=00, T=01, G=10, C=11).
const Alphabet& dna_alphabet();

/// The 20 proteinogenic amino acids (one-letter codes), epsilon = 5.
const Alphabet& protein_alphabet();

}  // namespace swbpbc::encoding
