// 2-bit DNA alphabet used throughout the library.
//
// The paper (Section II) fixes the encoding A=00, T=01, G=10, C=11; the
// low bit is the "L" plane and the high bit the "H" plane of the
// bit-transpose format. A DNA strand is the epsilon = 2 instance of the
// one sequence type, a vector of dense alphabet codes (alphabet.hpp):
// its bytes are the dna_alphabet() codes. Base names those four codes at
// the FASTA, string and wire boundary.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "encoding/alphabet.hpp"

namespace swbpbc::encoding {

enum class Base : std::uint8_t {
  A = 0b00,
  T = 0b01,
  G = 0b10,
  C = 0b11,
};

inline constexpr unsigned kBitsPerBase = 2;  // epsilon in the paper

/// A DNA strand: one dna_alphabet() code per base.
using Sequence = GenericSequence;

/// 2-bit code of a base.
constexpr std::uint8_t code(Base b) { return static_cast<std::uint8_t>(b); }

/// A sequence element is already its code.
constexpr std::uint8_t code(std::uint8_t c) { return c; }

/// High ("H") bit of a base's 2-bit code.
constexpr std::uint8_t high_bit(Base b) {
  return static_cast<std::uint8_t>((code(b) >> 1) & 1);
}

/// Low ("L") bit of a base's 2-bit code.
constexpr std::uint8_t low_bit(Base b) {
  return static_cast<std::uint8_t>(code(b) & 1);
}

/// IUPAC character -> Base. Throws std::invalid_argument on anything
/// outside {A,C,G,T,a,c,g,t}.
Base base_from_char(char ch);

/// Non-throwing variant: writes the base and returns true, or returns
/// false for anything outside {A,C,G,T,a,c,g,t} (parsers that need to
/// report position information use this instead of catching).
bool try_base_from_char(char ch, Base& out);

/// Base -> uppercase character ('?' for a value outside the four codes).
char to_char(Base b);

/// "ACGT..." -> Sequence. Throws on invalid characters.
Sequence sequence_from_string(std::string_view text);

/// Sequence -> "ACGT..." string ('?' for a code outside the alphabet).
std::string to_string(const Sequence& seq);

}  // namespace swbpbc::encoding
