#include "sw/scalar.hpp"

#include <algorithm>

namespace swbpbc::sw {
namespace {

std::int64_t w_cost(std::uint8_t a, std::uint8_t b, const ScoreParams& p) {
  return a == b ? static_cast<std::int64_t>(p.match)
                : -static_cast<std::int64_t>(p.mismatch);
}

std::uint32_t clamp0(std::int64_t v) {
  return v > 0 ? static_cast<std::uint32_t>(v) : 0u;
}

}  // namespace

ScoreMatrix score_matrix(const encoding::Sequence& x,
                         const encoding::Sequence& y,
                         const ScoreParams& params) {
  const std::size_t m = x.size();
  const std::size_t n = y.size();
  ScoreMatrix d(m, n);
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      const std::int64_t diag = static_cast<std::int64_t>(d.at(i - 1, j - 1)) +
                                w_cost(x[i - 1], y[j - 1], params);
      const std::int64_t up = static_cast<std::int64_t>(d.at(i - 1, j)) -
                              static_cast<std::int64_t>(params.gap);
      const std::int64_t left = static_cast<std::int64_t>(d.at(i, j - 1)) -
                                static_cast<std::int64_t>(params.gap);
      d.at(i, j) = clamp0(std::max({std::int64_t{0}, diag, up, left}));
    }
  }
  return d;
}

std::uint32_t max_score(const encoding::Sequence& x,
                        const encoding::Sequence& y,
                        const ScoreParams& params) {
  const std::size_t m = x.size();
  const std::size_t n = y.size();
  if (m == 0 || n == 0) return 0;
  std::vector<std::uint32_t> row(n + 1, 0);
  std::uint32_t best = 0;
  for (std::size_t i = 1; i <= m; ++i) {
    std::uint32_t diag_prev = row[0];  // d[i-1][j-1] as j advances
    for (std::size_t j = 1; j <= n; ++j) {
      const std::uint32_t up = row[j];
      const std::int64_t diag = static_cast<std::int64_t>(diag_prev) +
                                w_cost(x[i - 1], y[j - 1], params);
      const std::int64_t up_c = static_cast<std::int64_t>(up) -
                                static_cast<std::int64_t>(params.gap);
      const std::int64_t left_c = static_cast<std::int64_t>(row[j - 1]) -
                                  static_cast<std::int64_t>(params.gap);
      const std::uint32_t v =
          clamp0(std::max({std::int64_t{0}, diag, up_c, left_c}));
      row[j] = v;
      diag_prev = up;
      best = std::max(best, v);
    }
  }
  return best;
}

Alignment align(const encoding::Sequence& x, const encoding::Sequence& y,
                const ScoreParams& params) {
  Alignment out;
  const std::size_t m = x.size();
  const std::size_t n = y.size();
  if (m == 0 || n == 0) return out;

  const ScoreMatrix d = score_matrix(x, y, params);

  // Locate the maximum (row-major first occurrence).
  std::size_t bi = 0, bj = 0;
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      if (d.at(i, j) > out.score) {
        out.score = d.at(i, j);
        bi = i;
        bj = j;
      }
    }
  }
  if (out.score == 0) return out;

  // Traceback until a zero cell; preference diagonal > up > left.
  std::string xr, mr, yr;
  std::size_t i = bi, j = bj;
  while (i > 0 && j > 0 && d.at(i, j) > 0) {
    const std::uint32_t here = d.at(i, j);
    const std::int64_t diag = static_cast<std::int64_t>(d.at(i - 1, j - 1)) +
                              w_cost(x[i - 1], y[j - 1], params);
    const std::int64_t up = static_cast<std::int64_t>(d.at(i - 1, j)) -
                            static_cast<std::int64_t>(params.gap);
    if (diag == static_cast<std::int64_t>(here)) {
      const char cx = encoding::to_char(encoding::Base{x[i - 1]});
      const char cy = encoding::to_char(encoding::Base{y[j - 1]});
      xr.push_back(cx);
      yr.push_back(cy);
      mr.push_back(cx == cy ? '|' : '.');
      --i;
      --j;
    } else if (up == static_cast<std::int64_t>(here)) {
      xr.push_back(encoding::to_char(encoding::Base{x[i - 1]}));
      yr.push_back('-');
      mr.push_back(' ');
      --i;
    } else {
      xr.push_back('-');
      yr.push_back(encoding::to_char(encoding::Base{y[j - 1]}));
      mr.push_back(' ');
      --j;
    }
  }
  out.x_begin = i;
  out.x_end = bi;
  out.y_begin = j;
  out.y_end = bj;
  std::reverse(xr.begin(), xr.end());
  std::reverse(mr.begin(), mr.end());
  std::reverse(yr.begin(), yr.end());
  out.x_row = std::move(xr);
  out.mid_row = std::move(mr);
  out.y_row = std::move(yr);
  return out;
}

namespace {

std::uint32_t ssub32(std::uint32_t a, std::uint32_t b) {
  return a > b ? a - b : 0u;
}

/// max(0, h + w) in the kernels' split-magnitude form.
std::uint32_t diag_term(std::uint32_t h, int w) {
  if (w >= 0) return h + static_cast<std::uint32_t>(w);
  return ssub32(h, static_cast<std::uint32_t>(-w));
}

}  // namespace

std::uint32_t scheme_max_score(const encoding::Sequence& x,
                               const encoding::Sequence& y,
                               const ScoringScheme& scheme) {
  const std::size_t m = x.size();
  const std::size_t n = y.size();
  if (m == 0 || n == 0) return 0;
  const std::uint32_t open = scheme.gap_open;
  const std::uint32_t extend =
      scheme.affine() ? scheme.gap_extend : scheme.gap_open;
  std::vector<std::uint32_t> h_row(n + 1, 0), f_row(n + 1, 0);
  std::uint32_t best = 0;
  for (std::size_t i = 1; i <= m; ++i) {
    std::uint32_t diag_prev = h_row[0];
    std::uint32_t e = 0;
    std::uint32_t h_left = 0;
    for (std::size_t j = 1; j <= n; ++j) {
      const std::uint32_t h_up = h_row[j];
      e = std::max(ssub32(h_left, open), ssub32(e, extend));
      const std::uint32_t f =
          std::max(ssub32(h_up, open), ssub32(f_row[j], extend));
      const std::uint32_t match_val =
          diag_term(diag_prev, scheme.substitution(x[i - 1], y[j - 1]));
      const std::uint32_t h = std::max({match_val, e, f});
      h_row[j] = h;
      f_row[j] = f;
      h_left = h;
      diag_prev = h_up;
      best = std::max(best, h);
    }
  }
  return best;
}

Alignment align_scheme(const encoding::Sequence& x,
                       const encoding::Sequence& y,
                       const ScoringScheme& scheme) {
  if (const auto params = scheme.to_params()) return align(x, y, *params);
  Alignment out;
  const std::size_t m = x.size();
  const std::size_t n = y.size();
  if (m == 0 || n == 0) return out;
  const encoding::Alphabet& alphabet = scheme.alphabet();
  const std::uint32_t open = scheme.gap_open;
  const std::uint32_t extend =
      scheme.affine() ? scheme.gap_extend : scheme.gap_open;

  // Full Gotoh matrices (a linear scheme is Gotoh with extend == open:
  // identical scores, identical per-cell choices).
  const std::size_t stride = n + 1;
  std::vector<std::uint32_t> h((m + 1) * stride, 0);
  std::vector<std::uint32_t> e((m + 1) * stride, 0);
  std::vector<std::uint32_t> f((m + 1) * stride, 0);
  const auto at = [stride](std::vector<std::uint32_t>& v, std::size_t i,
                           std::size_t j) -> std::uint32_t& {
    return v[i * stride + j];
  };
  std::size_t bi = 0, bj = 0;
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      const std::uint32_t ev = std::max(ssub32(at(h, i, j - 1), open),
                                        ssub32(at(e, i, j - 1), extend));
      const std::uint32_t fv = std::max(ssub32(at(h, i - 1, j), open),
                                        ssub32(at(f, i - 1, j), extend));
      const std::uint32_t dv = diag_term(
          at(h, i - 1, j - 1), scheme.substitution(x[i - 1], y[j - 1]));
      const std::uint32_t hv = std::max({dv, ev, fv});
      at(e, i, j) = ev;
      at(f, i, j) = fv;
      at(h, i, j) = hv;
      if (hv > out.score) {
        out.score = hv;
        bi = i;
        bj = j;
      }
    }
  }
  if (out.score == 0) return out;

  // Three-state traceback: H chooses diagonal > up (F) > left (E); gap
  // states close (return to H) as early as possible.
  enum class State { kH, kE, kF };
  std::string xr, mr, yr;
  std::size_t i = bi, j = bj;
  State state = State::kH;
  while (i > 0 && j > 0) {
    if (state == State::kH) {
      const std::uint32_t here = at(h, i, j);
      if (here == 0) break;
      const std::uint32_t dv = diag_term(
          at(h, i - 1, j - 1), scheme.substitution(x[i - 1], y[j - 1]));
      if (dv == here) {
        const char cx = alphabet.symbol(x[i - 1]);
        const char cy = alphabet.symbol(y[j - 1]);
        xr.push_back(cx);
        yr.push_back(cy);
        mr.push_back(cx == cy ? '|' : '.');
        --i;
        --j;
      } else if (at(f, i, j) == here) {
        state = State::kF;
      } else {
        state = State::kE;
      }
    } else if (state == State::kF) {
      xr.push_back(alphabet.symbol(x[i - 1]));
      yr.push_back('-');
      mr.push_back(' ');
      const std::uint32_t here = at(f, i, j);
      const bool opened = ssub32(at(h, i - 1, j), open) == here;
      --i;
      if (opened) state = State::kH;
    } else {
      xr.push_back('-');
      yr.push_back(alphabet.symbol(y[j - 1]));
      mr.push_back(' ');
      const std::uint32_t here = at(e, i, j);
      const bool opened = ssub32(at(h, i, j - 1), open) == here;
      --j;
      if (opened) state = State::kH;
    }
  }
  out.x_begin = i;
  out.x_end = bi;
  out.y_begin = j;
  out.y_end = bj;
  std::reverse(xr.begin(), xr.end());
  std::reverse(mr.begin(), mr.end());
  std::reverse(yr.begin(), yr.end());
  out.x_row = std::move(xr);
  out.mid_row = std::move(mr);
  out.y_row = std::move(yr);
  return out;
}

}  // namespace swbpbc::sw
