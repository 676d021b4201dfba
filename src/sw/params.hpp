// Scoring parameters of the Smith-Waterman recurrence (paper, §III):
//
//   d[i][j] = max(0, d[i-1][j] - gap, d[i][j-1] - gap,
//                 d[i-1][j-1] + w(x_i, y_j))
//   w = +match on x_i == y_j, -mismatch otherwise.
//
// All three costs are stored as non-negative magnitudes. This linear
// triple is what the scalar references and the wordwise baselines run;
// every BPBC engine takes the full sw::ScoringScheme (scoring.hpp), whose
// scheme_required_slices() budgets the slice count.
#pragma once

#include <cstdint>

namespace swbpbc::sw {

struct ScoreParams {
  std::uint32_t match = 2;     // c1 in the paper (Table II example: 2)
  std::uint32_t mismatch = 1;  // c2 magnitude (Table II example: 1)
  std::uint32_t gap = 1;       // gap magnitude (Table II example: 1)
};

}  // namespace swbpbc::sw
