#include "encoding/alphabet.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace swbpbc::encoding {

Alphabet::Alphabet(std::string_view symbols) : symbols_(symbols) {
  if (symbols_.empty())
    throw std::invalid_argument("alphabet must not be empty");
  if (symbols_.size() > 256)
    throw std::invalid_argument("alphabet too large");
  for (auto& c : code_of_) c = -1;
  for (std::size_t i = 0; i < symbols_.size(); ++i) {
    const auto uc = static_cast<unsigned char>(symbols_[i]);
    if (code_of_[uc] != -1)
      throw std::invalid_argument("duplicate alphabet symbol");
    code_of_[uc] = static_cast<std::int16_t>(i);
  }
  bits_ = symbols_.size() == 1
              ? 1u
              : static_cast<unsigned>(std::bit_width(symbols_.size() - 1));
}

std::uint8_t Alphabet::code(char symbol) const {
  const std::int16_t c = code_of_[static_cast<unsigned char>(symbol)];
  if (c < 0)
    throw std::invalid_argument(std::string("symbol not in alphabet: '") +
                                symbol + "'");
  return static_cast<std::uint8_t>(c);
}

char Alphabet::symbol(std::uint8_t code) const {
  if (code >= symbols_.size())
    throw std::out_of_range("code outside alphabet");
  return symbols_[code];
}

GenericSequence Alphabet::encode(std::string_view text) const {
  GenericSequence seq;
  seq.reserve(text.size());
  for (char ch : text) seq.push_back(code(ch));
  return seq;
}

std::string Alphabet::decode(const GenericSequence& seq) const {
  std::string out;
  out.reserve(seq.size());
  for (std::uint8_t c : seq) out.push_back(symbol(c));
  return out;
}

std::optional<CodeAt> find_code_at_least(
    std::span<const GenericSequence> seqs, std::size_t limit) {
  if (limit > 0xFF) return std::nullopt;
  for (std::size_t k = 0; k < seqs.size(); ++k) {
    std::uint8_t top = 0;
    for (const std::uint8_t c : seqs[k]) top = std::max(top, c);
    if (top < limit) continue;
    const auto it =
        std::find_if(seqs[k].begin(), seqs[k].end(),
                     [limit](std::uint8_t c) { return c >= limit; });
    return CodeAt{k, static_cast<std::size_t>(it - seqs[k].begin()), *it};
  }
  return std::nullopt;
}

const Alphabet& dna_alphabet() {
  // Order fixes the paper's codes: A=0b00, T=0b01, G=0b10, C=0b11.
  static const Alphabet alphabet("ATGC");
  return alphabet;
}

const Alphabet& protein_alphabet() {
  static const Alphabet alphabet("ACDEFGHIKLMNPQRSTVWY");
  return alphabet;
}

}  // namespace swbpbc::encoding
