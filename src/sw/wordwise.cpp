#include "sw/wordwise.hpp"

#include <algorithm>
#include <stdexcept>

namespace swbpbc::sw {

std::uint32_t wordwise_max_score(const encoding::Sequence& x,
                                 const encoding::Sequence& y,
                                 const ScoreParams& params) {
  const std::size_t m = x.size();
  const std::size_t n = y.size();
  if (m == 0 || n == 0) return 0;
  // Saturating helpers mirroring SSub_B / add_B semantics, as mask
  // selects: the base-vs-base equality is essentially random on real
  // sequences, so a conditional there costs a branch miss every few
  // cells — the all-ones/all-zeros mask keeps the inner loop free of
  // data-dependent branches (std::max compiles to cmov).
  const auto ssub = [](std::uint32_t a, std::uint32_t b) {
    return (a - b) & (0u - static_cast<std::uint32_t>(a >= b));
  };
  std::vector<std::uint32_t> row(n + 1, 0);
  std::uint32_t best = 0;
  for (std::size_t i = 1; i <= m; ++i) {
    const std::uint8_t xi = x[i - 1];
    std::uint32_t diag_prev = row[0];
    for (std::size_t j = 1; j <= n; ++j) {
      const std::uint32_t up = row[j];
      const std::uint32_t eq =
          0u - static_cast<std::uint32_t>(xi == y[j - 1]);
      const std::uint32_t match_val =
          ((diag_prev + params.match) & eq) |
          (ssub(diag_prev, params.mismatch) & ~eq);
      const std::uint32_t gap_val =
          ssub(std::max(up, row[j - 1]), params.gap);
      const std::uint32_t v = std::max(match_val, gap_val);
      row[j] = v;
      diag_prev = up;
      best = std::max(best, v);
    }
  }
  return best;
}

std::vector<std::uint32_t> wordwise_max_scores(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys, const ScoreParams& params,
    bulk::Mode mode) {
  if (xs.size() != ys.size())
    throw std::invalid_argument("pattern/text count mismatch");
  std::vector<std::uint32_t> scores(xs.size(), 0);
  bulk::for_each_instance(xs.size(), mode, [&](std::size_t k) {
    scores[k] = wordwise_max_score(xs[k], ys[k], params);
  });
  return scores;
}

}  // namespace swbpbc::sw
