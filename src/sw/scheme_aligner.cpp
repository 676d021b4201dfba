#include "sw/scheme_aligner.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "bitops/arith.hpp"
#include "bitops/slices.hpp"
#include "bulk/executor.hpp"
#include "db/format.hpp"
#include "util/timer.hpp"

namespace swbpbc::sw {

template <bitsim::LaneWord W>
SchemeBpbcAligner<W>::SchemeBpbcAligner(const ScoringScheme& scheme,
                                        std::size_t m, std::size_t n)
    : scheme_(scheme),
      m_(m),
      n_(n),
      s_(scheme_required_slices(scheme, m, n)),
      eps_(scheme.alphabet_bits()),
      affine_(scheme.affine()),
      matrix_(scheme.matrix != nullptr),
      open_(bitops::broadcast_constant<W>(scheme.gap_open, s_)),
      extend_(bitops::broadcast_constant<W>(
          scheme.affine() ? scheme.gap_extend : scheme.gap_open, s_)) {
  if (!matrix_) {
    c1_ = bitops::broadcast_constant<W>(scheme.match, s_);
    c2_ = bitops::broadcast_constant<W>(scheme.mismatch, s_);
    return;
  }
  // Sign-split the matrix into the per-(symbol, bit) mux sets.
  const SubstitutionMatrix& mtx = *scheme_.matrix;
  const std::size_t sigma = mtx.size();
  wp_bits_ = mtx.max_positive() == 0
                 ? 0
                 : static_cast<unsigned>(std::bit_width(mtx.max_positive()));
  wn_bits_ = mtx.max_negative() == 0
                 ? 0
                 : static_cast<unsigned>(std::bit_width(mtx.max_negative()));
  const unsigned bits = wp_bits_ + wn_bits_;
  sets_.resize(sigma * bits);
  for (std::size_t a = 0; a < sigma; ++a) {
    for (std::size_t b = 0; b < sigma; ++b) {
      const int w = mtx.at(static_cast<std::uint8_t>(a),
                           static_cast<std::uint8_t>(b));
      if (w > 0) {
        for (unsigned l = 0; l < wp_bits_; ++l) {
          if ((static_cast<std::uint32_t>(w) >> l) & 1u)
            sets_[a * bits + l].push_back(static_cast<std::uint8_t>(b));
        }
      } else if (w < 0) {
        for (unsigned l = 0; l < wn_bits_; ++l) {
          if ((static_cast<std::uint32_t>(-w) >> l) & 1u)
            sets_[a * bits + wp_bits_ + l].push_back(
                static_cast<std::uint8_t>(b));
        }
      }
    }
  }
}

namespace {

/// One-hot equality mask of epsilon-bit characters at one position
/// against a fixed code: AND over planes of (plane or its complement).
template <bitsim::LaneWord W>
W eq_code(const encoding::PlanarGenericView<W>& v, std::size_t i,
          unsigned eps, std::uint8_t code) {
  W acc = (code & 1u) ? v.plane(i, 0) : static_cast<W>(~v.plane(i, 0));
  for (unsigned p = 1; p < eps; ++p) {
    const W pl = v.plane(i, p);
    acc = acc & (((code >> p) & 1u) ? pl : static_cast<W>(~pl));
  }
  return acc;
}

}  // namespace

template <bitsim::LaneWord W>
void SchemeBpbcAligner<W>::build_profiles(
    const encoding::PlanarGenericView<W>& y, std::vector<W>& leaf) const {
  constexpr W kZero = bitops::word_traits<W>::zero();
  const std::size_t sigma = scheme_.matrix->size();
  const unsigned bits = wp_bits_ + wn_bits_;
  const std::size_t n = n_;
  leaf.assign(sigma * bits * n, kZero);
  std::vector<W> eqcol(sigma);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t b = 0; b < sigma; ++b)
      eqcol[b] = eq_code(y, j, eps_, static_cast<std::uint8_t>(b));
    for (std::size_t a = 0; a < sigma; ++a) {
      for (unsigned l = 0; l < bits; ++l) {
        W acc = kZero;
        for (std::uint8_t b : sets_[a * bits + l]) acc = acc | eqcol[b];
        leaf[(a * bits + l) * n + j] = acc;
      }
    }
  }
}

template <bitsim::LaneWord W>
void SchemeBpbcAligner<W>::max_score_slices(
    const encoding::PlanarGenericView<W>& x,
    const encoding::PlanarGenericView<W>& y,
    std::span<W> out_slices) const {
  if (x.length != m_ || y.length != n_)
    throw std::invalid_argument("group lengths do not match aligner (m, n)");
  if (x.planes != eps_ || y.planes != eps_)
    throw std::invalid_argument(
        "group planes do not match the scheme's alphabet bits");
  if (out_slices.size() != s_)
    throw std::invalid_argument("out_slices.size() must equal slices()");
  if (matrix_) {
    if (affine_) return sweep<true, true>(x, y, out_slices);
    return sweep<true, false>(x, y, out_slices);
  }
  if (affine_) return sweep<false, true>(x, y, out_slices);
  sweep<false, false>(x, y, out_slices);
}

template <bitsim::LaneWord W>
template <bool kMatrix, bool kAffine>
void SchemeBpbcAligner<W>::sweep(const encoding::PlanarGenericView<W>& x,
                                 const encoding::PlanarGenericView<W>& y,
                                 std::span<W> out_slices) const {
  const unsigned s = s_;
  const std::size_t n = n_;
  constexpr W kZero = bitops::word_traits<W>::zero();

  // Matrix mux column profiles (one pass over y per group).
  std::vector<W> leaf;
  if constexpr (kMatrix) build_profiles(y, leaf);
  const std::size_t sigma = kMatrix ? scheme_.matrix->size() : 0;
  const unsigned mux_bits = wp_bits_ + wn_bits_;

  // Bit-sliced rows of H (and F for affine), boundary column at slot 0.
  std::vector<W> h_row((n + 1) * s, kZero);
  std::vector<W> f_row(kAffine ? (n + 1) * s : 0, kZero);
  std::vector<W> diag(s), old_up(s), e_run(kAffine ? s : 0);
  std::vector<W> t(s), u(s), r(s), t2(s), best(s, kZero);
  std::vector<W> wp_full(s, kZero), wn_full(s, kZero);
  std::vector<W> eq_x(sigma);
  // Uniform: the character planes of x_i (per row) and of every y_j,
  // position-major, so each cell's operands are contiguous.
  std::vector<W> xchar, ychars;
  if constexpr (!kMatrix) {
    xchar.resize(eps_);
    ychars.resize(n * eps_);
    for (std::size_t j = 0; j < n; ++j)
      for (unsigned p = 0; p < eps_; ++p) ychars[j * eps_ + p] = y.plane(j, p);
  }

  SchemeCellOperands<W> k;
  k.open = open_;
  k.extend = extend_;
  k.c1 = c1_;
  k.c2 = c2_;
  k.affine = kAffine;
  k.matrix = kMatrix;
  if constexpr (kMatrix) {
    k.wp = wp_full;
    k.wn = wn_full;
  } else {
    k.xc = xchar;
  }
  k.t = t;
  k.u = u;
  k.r = r;
  k.t2 = t2;

  for (std::size_t i = 0; i < m_; ++i) {
    if constexpr (kMatrix) {
      // One-hot row selectors of the mux, hoisted per DP row.
      for (std::size_t a = 0; a < sigma; ++a)
        eq_x[a] = eq_code(x, i, eps_, static_cast<std::uint8_t>(a));
    } else {
      for (unsigned p = 0; p < eps_; ++p) xchar[p] = x.plane(i, p);
    }
    std::fill(diag.begin(), diag.end(), kZero);
    std::fill(e_run.begin(), e_run.end(), kZero);

    for (std::size_t j = 1; j <= n; ++j) {
      const std::span<W> h_up(h_row.data() + j * s, s);
      const std::span<const W> h_left(h_row.data() + (j - 1) * s, s);
      std::copy(h_up.begin(), h_up.end(), old_up.begin());

      if constexpr (kMatrix) {
        // Per-bit mux: OR over the alphabet of (row selector AND column
        // profile) — the runtime form of circuit build_matrix_mux.
        for (unsigned l = 0; l < mux_bits; ++l) {
          W acc = kZero;
          for (std::size_t a = 0; a < sigma; ++a)
            acc = acc | (eq_x[a] & leaf[(a * mux_bits + l) * n + (j - 1)]);
          if (l < wp_bits_)
            wp_full[l] = acc;
          else
            wn_full[l - wp_bits_] = acc;
        }
      } else {
        k.yc = {ychars.data() + (j - 1) * eps_, eps_};
      }
      const std::span<W> f_up =
          kAffine ? std::span<W>(f_row.data() + j * s, s) : std::span<W>();
      scheme_cell<W>(k, old_up, h_left, diag, e_run, f_up, h_up);
      bitops::max_b<W>(std::span<const W>(best), std::span<const W>(h_up),
                       std::span<W>(best));
      std::copy(old_up.begin(), old_up.end(), diag.begin());
    }
  }
  std::copy(best.begin(), best.end(), out_slices.begin());
}

template <bitsim::LaneWord W>
std::vector<std::uint32_t> SchemeBpbcAligner<W>::max_scores(
    const encoding::PlanarGenericView<W>& x,
    const encoding::PlanarGenericView<W>& y) const {
  std::vector<W> slices(s_);
  max_score_slices(x, y, std::span<W>(slices));
  return encoding::untranspose_values<W>(std::span<const W>(slices), s_);
}

template <bitsim::LaneWord W>
std::vector<std::uint32_t> SchemeBpbcAligner<W>::score_groups(
    std::span<const encoding::PlanarGenericView<W>> xs,
    std::span<const encoding::PlanarGenericView<W>> ys, std::size_t count,
    bulk::Mode mode, encoding::TransposeMethod method, PhaseTimings* timings,
    const util::StopCondition* stop) const {
  constexpr unsigned kLanes = bitsim::word_bits_v<W>;
  const std::size_t n_groups = xs.size();
  std::vector<std::vector<W>> group_slices(n_groups, std::vector<W>(s_));
  util::WallTimer timer;
  bulk::for_each_instance(
      n_groups, mode,
      [&](std::size_t g) {
        max_score_slices(xs[g], ys[g], std::span<W>(group_slices[g]));
      },
      stop);
  if (timings) timings->swa_ms = timer.elapsed_ms();

  timer.reset();
  std::vector<std::uint32_t> scores(count, 0);
  for (std::size_t g = 0; g < n_groups; ++g) {
    const auto lane_scores = encoding::untranspose_values<W>(
        std::span<const W>(group_slices[g]), s_, method);
    const std::size_t base = g * kLanes;
    const std::size_t used = std::min<std::size_t>(kLanes, count - base);
    std::copy_n(lane_scores.begin(), used,
                scores.begin() + static_cast<std::ptrdiff_t>(base));
  }
  if (timings) timings->b2w_ms = timer.elapsed_ms();
  return scores;
}

namespace {

util::Status validate_codes(std::span<const encoding::GenericSequence> seqs,
                            std::size_t sigma, const char* side) {
  for (std::size_t k = 0; k < seqs.size(); ++k) {
    for (std::size_t i = 0; i < seqs[k].size(); ++i) {
      if (seqs[k][i] >= sigma)
        return util::Status::invalid_input(
            std::string(side) + "[" + std::to_string(k) + "][" +
            std::to_string(i) + "] code " + std::to_string(seqs[k][i]) +
            " is outside the scheme's alphabet (" + std::to_string(sigma) +
            " symbols)");
    }
  }
  return util::Status{};
}

template <bitsim::LaneWord W>
std::vector<std::uint32_t> run_scheme(
    std::span<const encoding::GenericSequence> xs,
    std::span<const encoding::GenericSequence> ys,
    const ScoringScheme& scheme, bulk::Mode mode,
    encoding::TransposeMethod method, PhaseTimings* timings) {
  const unsigned eps = scheme.alphabet_bits();

  util::WallTimer timer;
  const auto bx = encoding::transpose_generic_planar<W>(xs, eps, method);
  const auto by = encoding::transpose_generic_planar<W>(ys, eps, method);
  std::vector<encoding::PlanarGenericView<W>> xv, yv;
  for (std::size_t g = 0; g < bx.groups.size(); ++g) {
    xv.push_back(bx.groups[g].view());
    yv.push_back(by.groups[g].view());
  }
  if (timings) timings->w2b_ms = timer.elapsed_ms();

  const SchemeBpbcAligner<W> aligner(scheme, bx.length, by.length);
  return aligner.score_groups(xv, yv, xs.size(), mode, method, timings);
}

}  // namespace

util::Expected<std::vector<std::uint32_t>> try_scheme_max_scores(
    std::span<const encoding::GenericSequence> xs,
    std::span<const encoding::GenericSequence> ys,
    const ScoringScheme& scheme, LaneWidth width, bulk::Mode mode,
    encoding::TransposeMethod method, PhaseTimings* timings) {
  if (util::Status s = validate_scheme(scheme); !s.ok()) return s;
  if (xs.size() != ys.size())
    return util::Status::invalid_input(
        "pattern/text count mismatch: " + std::to_string(xs.size()) +
        " patterns vs " + std::to_string(ys.size()) + " texts");
  if (xs.empty()) return std::vector<std::uint32_t>{};
  const std::size_t m = xs.front().size();
  const std::size_t n = ys.front().size();
  if (m == 0 || n == 0)
    return util::Status::invalid_input("sequences must be non-empty");
  for (std::size_t k = 0; k < xs.size(); ++k) {
    if (xs[k].size() != m)
      return util::Status::invalid_input(
          "non-uniform batch: xs[" + std::to_string(k) + "] has length " +
          std::to_string(xs[k].size()) + ", batch requires " +
          std::to_string(m));
    if (ys[k].size() != n)
      return util::Status::invalid_input(
          "non-uniform batch: ys[" + std::to_string(k) + "] has length " +
          std::to_string(ys[k].size()) + ", batch requires " +
          std::to_string(n));
  }
  const std::size_t sigma = scheme.alphabet().size();
  if (util::Status s = validate_codes(xs, sigma, "xs"); !s.ok()) return s;
  if (util::Status s = validate_codes(ys, sigma, "ys"); !s.ok()) return s;
  switch (resolve_lane_width(width)) {
    case LaneWidth::k32:
      return run_scheme<std::uint32_t>(xs, ys, scheme, mode, method,
                                       timings);
    case LaneWidth::k64:
      return run_scheme<std::uint64_t>(xs, ys, scheme, mode, method,
                                       timings);
    case LaneWidth::k128:
      return run_scheme<bitsim::simd_word<128>>(xs, ys, scheme, mode,
                                                method, timings);
    case LaneWidth::k256:
      return run_scheme<bitsim::simd_word<256>>(xs, ys, scheme, mode,
                                                method, timings);
    case LaneWidth::k512:
      return run_scheme<bitsim::simd_word<512>>(xs, ys, scheme, mode,
                                                method, timings);
    case LaneWidth::kScalarWide:
      return run_scheme<bitsim::wide_word<256, false>>(xs, ys, scheme, mode,
                                                       method, timings);
    case LaneWidth::kAuto:
      break;  // resolve_lane_width never returns kAuto
  }
  return util::Status::invalid_input("unresolvable lane width");
}

namespace {

/// Broadcast query: plane p row i is all-ones where bit p of query[i] is
/// set — every lane holds the query, with no W2B at all.
template <bitsim::LaneWord W>
encoding::PlanarGeneric<W> broadcast_query(
    const encoding::GenericSequence& query, unsigned eps) {
  constexpr W kZero = bitops::word_traits<W>::zero();
  constexpr W kOnes = bitops::word_traits<W>::ones();
  encoding::PlanarGeneric<W> out;
  out.length = query.size();
  out.planes = eps;
  out.rows.assign(static_cast<std::size_t>(eps) * query.size(), kZero);
  for (unsigned p = 0; p < eps; ++p) {
    for (std::size_t i = 0; i < query.size(); ++i) {
      if ((query[i] >> p) & 1u)
        out.rows[static_cast<std::size_t>(p) * query.size() + i] = kOnes;
    }
  }
  return out;
}

template <bitsim::LaneWord W>
util::Expected<std::vector<std::uint32_t>> run_scheme_db(
    const encoding::GenericSequence& query, db::Reader& reader,
    const ScoringScheme& scheme, bulk::Mode mode,
    std::span<const encoding::GenericSequence> corpus, SchemeDbStats* stats,
    PhaseTimings* timings) {
  constexpr unsigned kLanes = bitsim::word_bits_v<W>;
  constexpr unsigned kLimbs = kLanes / 64;
  const unsigned eps = scheme.alphabet_bits();
  const std::size_t entries = reader.entry_count();
  const std::size_t n = reader.entry_length();
  const std::size_t n_shards = reader.shard_count();
  const std::size_t n_groups = (n_shards + kLimbs - 1) / kLimbs;

  util::WallTimer timer;
  const encoding::PlanarGeneric<W> xq = broadcast_query<W>(query, eps);
  const SchemeBpbcAligner<W> aligner(scheme, query.size(), n);
  if (timings) timings->w2b_ms = timer.elapsed_ms();

  std::vector<std::uint32_t> scores(entries, 0);
  std::vector<util::Status> group_status(n_groups);
  std::atomic<std::uint64_t> served{0}, quarantined{0}, reingested{0};

  timer.reset();
  bulk::for_each_instance(n_groups, mode, [&](std::size_t g) {
    // Serve each 64-lane shard limb: zero-copy spans from the mapping
    // when healthy, an in-memory re-ingest of the corpus slice when
    // quarantined.
    encoding::PlanarGenericView<W> yv;
    yv.length = n;
    yv.planes = eps;
    encoding::PlanarGeneric<W> gathered;  // wide gather / re-ingest target
    const bool zero_copy = kLimbs == 1;
    if (!zero_copy) {
      gathered.length = n;
      gathered.planes = eps;
      gathered.rows.assign(static_cast<std::size_t>(eps) * n,
                           bitops::word_traits<W>::zero());
    }
    encoding::PlanarGenericBatch<std::uint64_t> reingest;  // keep rows alive
    for (unsigned limb = 0; limb < kLimbs; ++limb) {
      const std::size_t shard_idx = g * kLimbs + limb;
      if (shard_idx >= n_shards) break;
      auto shard = reader.shard(shard_idx);
      std::span<const std::uint64_t> planes[encoding::kMaxAlphabetPlanes];
      if (shard.has_value()) {
        served.fetch_add(1, std::memory_order_relaxed);
        for (unsigned p = 0; p < eps; ++p) planes[p] = shard->plane(p);
      } else {
        quarantined.fetch_add(1, std::memory_order_relaxed);
        if (corpus.empty()) {
          group_status[g] = shard.status();
          return;
        }
        const std::size_t first = shard_idx * db::kDbLanesPerShard;
        const std::size_t lanes =
            std::min<std::size_t>(db::kDbLanesPerShard,
                                  corpus.size() - first);
        reingest = encoding::transpose_generic_planar<std::uint64_t>(
            corpus.subspan(first, lanes), eps);
        reingested.fetch_add(1, std::memory_order_relaxed);
        for (unsigned p = 0; p < eps; ++p)
          planes[p] = reingest.groups.front().row(p);
      }
      if (zero_copy) {
        // W is u64 here: the shard rows are the group's plane rows.
        if constexpr (std::is_same_v<W, std::uint64_t>) {
          for (unsigned p = 0; p < eps; ++p) yv.rows[p] = planes[p];
        }
      } else {
        for (unsigned p = 0; p < eps; ++p) {
          W* row = gathered.rows.data() + static_cast<std::size_t>(p) * n;
          for (std::size_t i = 0; i < n; ++i)
            bitsim::set_limb(row[i], limb, planes[p][i]);
        }
      }
    }
    if (!zero_copy) yv = gathered.view();

    const auto lane_scores = aligner.max_scores(xq.view(), yv);
    const std::size_t base = g * kLanes;
    if (base < entries) {
      const std::size_t used = std::min<std::size_t>(kLanes, entries - base);
      std::copy_n(lane_scores.begin(), used,
                  scores.begin() + static_cast<std::ptrdiff_t>(base));
    }
  });
  if (timings) {
    timings->swa_ms = timer.elapsed_ms();
    timings->b2w_ms = 0.0;
  }

  if (stats) {
    stats->shards_served = served.load();
    stats->shards_quarantined = quarantined.load();
    stats->shards_reingested = reingested.load();
  }
  for (const util::Status& st : group_status) {
    if (!st.ok()) return st;
  }
  return scores;
}

}  // namespace

util::Expected<std::vector<std::uint32_t>> try_scheme_db_max_scores(
    const encoding::GenericSequence& query, db::Reader& reader,
    const ScoringScheme& scheme, LaneWidth width, bulk::Mode mode,
    std::span<const encoding::GenericSequence> corpus, SchemeDbStats* stats,
    PhaseTimings* timings) {
  if (util::Status s = validate_scheme(scheme); !s.ok()) return s;
  if (query.empty())
    return util::Status::invalid_input("query must be non-empty");
  const std::size_t sigma = scheme.alphabet().size();
  const encoding::GenericSequence* q = &query;
  if (util::Status s = validate_codes({q, 1}, sigma, "query"); !s.ok())
    return s;
  if (reader.plane_bits() != scheme.alphabet_bits())
    return util::Status::db_mismatch(
        "database stores " + std::to_string(reader.plane_bits()) +
        "-bit planes but the scheme's alphabet needs " +
        std::to_string(scheme.alphabet_bits()) +
        " (was the store built for a different alphabet?)");
  if (reader.entry_count() == 0) return std::vector<std::uint32_t>{};
  if (reader.entry_length() == 0)
    return util::Status::db_mismatch("database entries are empty");
  if (!corpus.empty() && corpus.size() != reader.entry_count())
    return util::Status::invalid_input(
        "re-ingest corpus has " + std::to_string(corpus.size()) +
        " sequences but the database stores " +
        std::to_string(reader.entry_count()));
  if (util::Status s = validate_codes(corpus, sigma, "corpus"); !s.ok())
    return s;

  // The store's shard layout is 64-lane; serve at k64 or wider.
  LaneWidth resolved = resolve_lane_width(width);
  if (resolved == LaneWidth::k32) resolved = LaneWidth::k64;
  if (stats) stats->lane_width = resolved;
  switch (resolved) {
    case LaneWidth::k64:
      return run_scheme_db<std::uint64_t>(query, reader, scheme, mode,
                                          corpus, stats, timings);
    case LaneWidth::k128:
      return run_scheme_db<bitsim::simd_word<128>>(query, reader, scheme,
                                                   mode, corpus, stats,
                                                   timings);
    case LaneWidth::k256:
      return run_scheme_db<bitsim::simd_word<256>>(query, reader, scheme,
                                                   mode, corpus, stats,
                                                   timings);
    case LaneWidth::k512:
      return run_scheme_db<bitsim::simd_word<512>>(query, reader, scheme,
                                                   mode, corpus, stats,
                                                   timings);
    case LaneWidth::kScalarWide:
      return run_scheme_db<bitsim::wide_word<256, false>>(
          query, reader, scheme, mode, corpus, stats, timings);
    default:
      return util::Status::invalid_input("unresolvable lane width");
  }
}

#define SWBPBC_INSTANTIATE_SCHEME_ALIGNER(...) \
  template class SchemeBpbcAligner<__VA_ARGS__>;
SWBPBC_INSTANTIATE_SCHEME_ALIGNER(std::uint32_t)
SWBPBC_INSTANTIATE_SCHEME_ALIGNER(std::uint64_t)
SWBPBC_INSTANTIATE_SCHEME_ALIGNER(bitsim::simd_word<128>)
SWBPBC_INSTANTIATE_SCHEME_ALIGNER(bitsim::simd_word<256>)
SWBPBC_INSTANTIATE_SCHEME_ALIGNER(bitsim::simd_word<512>)
SWBPBC_INSTANTIATE_SCHEME_ALIGNER(bitsim::wide_word<256, false>)
#undef SWBPBC_INSTANTIATE_SCHEME_ALIGNER

}  // namespace swbpbc::sw
