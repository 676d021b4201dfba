#include "encoding/random.hpp"

#include <stdexcept>

namespace swbpbc::encoding {

Sequence random_sequence(util::Xoshiro256& rng, std::size_t length) {
  Sequence seq;
  seq.reserve(length);
  // Draw 2 bits per base from 64-bit outputs, 32 bases per draw.
  std::uint64_t pool = 0;
  unsigned left = 0;
  for (std::size_t i = 0; i < length; ++i) {
    if (left == 0) {
      pool = rng.next();
      left = 32;
    }
    seq.push_back(static_cast<std::uint8_t>(pool & 0b11));
    pool >>= 2;
    --left;
  }
  return seq;
}

std::vector<Sequence> random_sequences(util::Xoshiro256& rng,
                                       std::size_t count,
                                       std::size_t length) {
  std::vector<Sequence> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(random_sequence(rng, length));
  return out;
}

Sequence mutate(const Sequence& seq, double rate, util::Xoshiro256& rng) {
  if (rate < 0.0 || rate > 1.0)
    throw std::invalid_argument("mutation rate must be in [0, 1]");
  Sequence out = seq;
  // rate < 1 guarantees the scaled threshold fits in 64 bits; rate == 1
  // must mutate unconditionally (casting 2^64 would be UB).
  const bool always = rate >= 1.0;
  const auto threshold = always ? std::uint64_t{0}
                                : static_cast<std::uint64_t>(
                                      rate * 18446744073709551616.0);
  for (std::uint8_t& c : out) {
    if (always || rng.next() < threshold) {
      // Shift by 1..3 (mod 4) to guarantee a *different* base.
      const auto delta = static_cast<std::uint8_t>(1 + rng.below(3));
      c = static_cast<std::uint8_t>((c + delta) & 0b11);
    }
  }
  return out;
}

void plant_motif(Sequence& host, const Sequence& motif, std::size_t pos) {
  if (pos + motif.size() > host.size())
    throw std::out_of_range("motif does not fit in host sequence");
  for (std::size_t i = 0; i < motif.size(); ++i) host[pos + i] = motif[i];
}

}  // namespace swbpbc::encoding
