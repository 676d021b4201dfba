#include "encoding/dna.hpp"

namespace swbpbc::encoding {

Base base_from_char(char ch) {
  Base b;
  if (!try_base_from_char(ch, b))
    throw std::invalid_argument(std::string("not a DNA base: '") + ch + "'");
  return b;
}

bool try_base_from_char(char ch, Base& out) {
  switch (ch) {
    case 'A':
    case 'a':
      out = Base::A;
      return true;
    case 'C':
    case 'c':
      out = Base::C;
      return true;
    case 'G':
    case 'g':
      out = Base::G;
      return true;
    case 'T':
    case 't':
      out = Base::T;
      return true;
    default:
      return false;
  }
}

char to_char(Base b) {
  switch (b) {
    case Base::A:
      return 'A';
    case Base::C:
      return 'C';
    case Base::G:
      return 'G';
    case Base::T:
      return 'T';
  }
  return '?';  // unreachable for valid Base values
}

Sequence sequence_from_string(std::string_view text) {
  Sequence seq;
  seq.reserve(text.size());
  for (char ch : text) seq.push_back(code(base_from_char(ch)));
  return seq;
}

std::string to_string(const Sequence& seq) {
  std::string out;
  out.reserve(seq.size());
  for (std::uint8_t c : seq) out.push_back(to_char(Base{c}));
  return out;
}

}  // namespace swbpbc::encoding
