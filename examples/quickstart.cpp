// Quickstart: score one batch of DNA pairs with the BPBC Smith-Waterman
// and print the best local alignment of the top hit.
//
//   ./quickstart
//
// Walks through the three core API layers:
//   1. encoding::  — strings and the bit-transpose batch format,
//   2. sw::try_scheme_max_scores — the bulk BPBC screening pass,
//   3. sw::align_scheme — the detailed scalar alignment for interesting
//      pairs.
#include <cstdio>

#include "encoding/random.hpp"
#include "sw/scheme_aligner.hpp"
#include "sw/scalar.hpp"

int main() {
  using namespace swbpbc;

  // 64 random pattern/text pairs; plant one strong homology so there is
  // something to find.
  util::Xoshiro256 rng(2026);
  const std::size_t m = 24, n = 160;
  auto patterns = encoding::random_sequences(rng, 64, m);
  auto texts = encoding::random_sequences(rng, 64, n);
  const auto noisy = encoding::mutate(patterns[17], 0.08, rng);
  encoding::plant_motif(texts[17], noisy, 40);

  // Bulk BPBC pass: 64 alignments advanced simultaneously in one
  // 64-bit-lane group (use LaneWidth::k32 for two 32-lane groups).
  const sw::ScoringScheme scheme;  // +2 match, -1 mismatch, -1 linear gap
  const auto scores =
      sw::try_scheme_max_scores(patterns, texts, scheme, sw::LaneWidth::k64)
          .value();

  std::size_t best = 0;
  for (std::size_t k = 1; k < scores.size(); ++k) {
    if (scores[k] > scores[best]) best = k;
  }
  std::printf("scored %zu pairs; best pair #%zu with max score %u\n",
              scores.size(), best, scores[best]);

  // Detailed alignment (score matrix + traceback) for the winner only.
  const sw::Alignment aln =
      sw::align_scheme(patterns[best], texts[best], scheme);
  std::printf("local alignment (x[%zu..%zu) vs y[%zu..%zu)):\n",
              aln.x_begin, aln.x_end, aln.y_begin, aln.y_end);
  std::printf("  %s\n  %s\n  %s\n", aln.x_row.c_str(), aln.mid_row.c_str(),
              aln.y_row.c_str());
  return 0;
}
