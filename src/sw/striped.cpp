#include "sw/striped.hpp"

#include <algorithm>
#include <cstring>
#include <list>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "bitsim/wide_word.hpp"  // SWBPBC_WIDE_SIMD
#include "sw/backend.hpp"
#include "util/checksum.hpp"
#include "util/timer.hpp"

namespace swbpbc::sw {

bool striped_vector_compiled() { return SWBPBC_WIDE_SIMD != 0; }

namespace {

// ---------------------------------------------------------------------
// Element-width policy. Cells never wrap: H is bounded by max_positive *
// min(m, n) <= max_positive * m (a local alignment gains at most one
// max-entry per diagonal step), so bound + max_positive fitting the
// element type makes add() exact and the saturating ops below the only
// clamping anywhere — the same semantics as the scalar reference.
// ---------------------------------------------------------------------

std::uint64_t score_bound(const ScoringScheme& scheme, std::size_t m) {
  return static_cast<std::uint64_t>(scheme.max_positive()) *
             static_cast<std::uint64_t>(m) +
         scheme.max_positive();
}

// ---------------------------------------------------------------------
// Kernel representations. One GNU-vector (128-bit, SSE2-width) and one
// std::array fallback per element width, same arithmetic expression by
// expression — the wide_word pattern, so the identity is auditable.
// ---------------------------------------------------------------------

#if SWBPBC_WIDE_SIMD
typedef std::uint16_t v8u16 __attribute__((vector_size(16)));
typedef std::uint32_t v4u32 __attribute__((vector_size(16)));

template <typename Elem>
struct VectorOps;

template <>
struct VectorOps<std::uint16_t> {
  using V = v8u16;
  static constexpr unsigned kLanes = 8;
};

template <>
struct VectorOps<std::uint32_t> {
  using V = v4u32;
  static constexpr unsigned kLanes = 4;
};

template <typename Elem>
struct VectorRepr {
  using Base = VectorOps<Elem>;
  using V = typename Base::V;
  static constexpr unsigned kLanes = Base::kLanes;

  static V zero() { return V{}; }

  static V splat(Elem v) {
    V out;
    for (unsigned k = 0; k < kLanes; ++k) out[k] = v;
    return out;
  }

  static V add(V a, V b) { return a + b; }

  // Unsigned saturating subtract: (a - b) masked to zero where a <= b.
  // The comparison yields a same-width signed mask vector; the cast is a
  // bit-pattern reinterpret (GNU vector semantics).
  static V ssub(V a, V b) {
    const V keep = reinterpret_cast<V>(a > b);
    return (a - b) & keep;
  }

  static V max(V a, V b) {
    const V take_a = reinterpret_cast<V>(a > b);
    return (a & take_a) | (b & ~take_a);
  }

  // Element shift toward higher lanes: out[k] = k >= n ? v[k - n] : 0.
  // Compiled to register shuffles for the fixed 16-byte width.
  static V shift_up(V v, unsigned n) {
    alignas(16) Elem in[kLanes];
    alignas(16) Elem out[kLanes] = {};
    std::memcpy(in, &v, sizeof(V));
    for (unsigned k = n; k < kLanes; ++k) out[k] = in[k - n];
    V r;
    std::memcpy(&r, out, sizeof(V));
    return r;
  }

  static bool any(V v) {
    std::uint64_t lo = 0, hi = 0;
    std::memcpy(&lo, &v, sizeof(lo));
    std::memcpy(&hi, reinterpret_cast<const char*>(&v) + sizeof(lo),
                sizeof(hi));
    return (lo | hi) != 0;
  }

  static Elem hmax(V v) {
    alignas(16) Elem e[kLanes];
    std::memcpy(e, &v, sizeof(V));
    Elem best = 0;
    for (unsigned k = 0; k < kLanes; ++k) best = std::max(best, e[k]);
    return best;
  }
};
#endif  // SWBPBC_WIDE_SIMD

// Portable fallback: the same lane counts (so the striping — and thus
// every intermediate value — is identical to the vector kernel), plain
// element loops.
template <typename Elem>
struct ScalarRepr {
  static constexpr unsigned kLanes = sizeof(Elem) == 2 ? 8 : 4;
  struct V {
    Elem e[kLanes];
  };

  static V zero() { return V{}; }

  static V splat(Elem v) {
    V out;
    for (unsigned k = 0; k < kLanes; ++k) out.e[k] = v;
    return out;
  }

  static V add(V a, V b) {
    V r;
    for (unsigned k = 0; k < kLanes; ++k)
      r.e[k] = static_cast<Elem>(a.e[k] + b.e[k]);
    return r;
  }

  static V ssub(V a, V b) {
    V r;
    for (unsigned k = 0; k < kLanes; ++k)
      r.e[k] = a.e[k] > b.e[k] ? static_cast<Elem>(a.e[k] - b.e[k]) : Elem{0};
    return r;
  }

  static V max(V a, V b) {
    V r;
    for (unsigned k = 0; k < kLanes; ++k) r.e[k] = std::max(a.e[k], b.e[k]);
    return r;
  }

  static V shift_up(V v, unsigned n) {
    V r = {};
    for (unsigned k = n; k < kLanes; ++k) r.e[k] = v.e[k - n];
    return r;
  }

  static bool any(V v) {
    for (unsigned k = 0; k < kLanes; ++k)
      if (v.e[k] != 0) return true;
    return false;
  }

  static Elem hmax(V v) {
    Elem best = 0;
    for (unsigned k = 0; k < kLanes; ++k) best = std::max(best, v.e[k]);
    return best;
  }
};

// ---------------------------------------------------------------------
// The column kernel, shared by every (element width, representation)
// combination. Profiles are stored as flat element planes; the kernel
// loads them lane-group by lane-group.
// ---------------------------------------------------------------------

template <typename Repr, typename Elem>
std::uint32_t striped_align(const Elem* prof_p, const Elem* prof_n,
                            std::size_t segments, std::size_t alphabet_size,
                            std::uint32_t open32, std::uint32_t extend32,
                            std::span<const std::uint8_t> y) {
  using V = typename Repr::V;
  constexpr unsigned kLanes = Repr::kLanes;
  const Elem elem_max = static_cast<Elem>(~Elem{0});
  const auto sat = [elem_max](std::uint64_t v) {
    return v > elem_max ? elem_max : static_cast<Elem>(v);
  };

  const V v_open = Repr::splat(static_cast<Elem>(open32));
  const V v_extend = Repr::splat(static_cast<Elem>(extend32));
  // Decay for one whole segment crossed: segments positions, extend each.
  const std::uint64_t seg_decay =
      static_cast<std::uint64_t>(segments) * extend32;

  std::vector<V> state(3 * segments, Repr::zero());
  V* h_load = state.data();
  V* h_store = state.data() + segments;
  V* e = state.data() + 2 * segments;
  V v_max = Repr::zero();

  const auto load = [](const Elem* at) {
    V v;
    std::memcpy(&v, at, sizeof(V));
    return v;
  };

  for (std::size_t j = 0; j < y.size(); ++j) {
    const std::uint8_t c = y[j];
    if (c >= alphabet_size)
      throw std::out_of_range("striped: target code " + std::to_string(c) +
                              " outside the scheme's alphabet");
    const Elem* p = prof_p + c * segments * kLanes;
    const Elem* np = prof_n + c * segments * kLanes;

    // Diagonal feed for vector 0: the previous column's last vector,
    // lanes shifted up one so lane k sees position k*segments - 1 (lane
    // 0 sees the zero boundary).
    V v_h = Repr::shift_up(h_store[segments - 1], 1);
    std::swap(h_load, h_store);
    V v_f = Repr::zero();

    for (std::size_t i = 0; i < segments; ++i) {
      v_h = Repr::ssub(Repr::add(v_h, load(p + i * kLanes)),
                       load(np + i * kLanes));
      v_h = Repr::max(v_h, e[i]);
      v_h = Repr::max(v_h, v_f);
      v_max = Repr::max(v_max, v_h);
      h_store[i] = v_h;
      const V v_gap = Repr::ssub(v_h, v_open);
      e[i] = Repr::max(Repr::ssub(e[i], v_extend), v_gap);
      v_f = Repr::max(Repr::ssub(v_f, v_extend), v_gap);
      v_h = h_load[i];
    }

    // Lazy-F, deconstructed. After the main pass v_f lane k is the F
    // value leaving lane k's segment; shifted up it is each lane's
    // incoming carry from the segment directly below. The decayed
    // max-scan closes the recurrence over all lower segments exactly
    // (open >= extend means an F-derived H cannot out-contribute the
    // chain), then one bounded pass folds the carry into H and E.
    v_f = Repr::shift_up(v_f, 1);
    if (Repr::any(v_f)) {
      for (unsigned step = 1; step < kLanes; step <<= 1) {
        const V decayed = Repr::ssub(Repr::shift_up(v_f, step),
                                     Repr::splat(sat(step * seg_decay)));
        v_f = Repr::max(v_f, decayed);
      }
      for (std::size_t i = 0; i < segments && Repr::any(v_f); ++i) {
        const V corrected = Repr::max(h_store[i], v_f);
        h_store[i] = corrected;
        v_max = Repr::max(v_max, corrected);
        // The E recurrence reads this column's H; it must see the
        // corrected value or the next column under-scores (the SSW
        // shortcut this engine deliberately does not take).
        e[i] = Repr::max(e[i], Repr::ssub(corrected, v_open));
        v_f = Repr::ssub(v_f, v_extend);
      }
    }
  }
  return static_cast<std::uint32_t>(Repr::hmax(v_max));
}

StripedRepr resolve_repr(StripedRepr repr) {
  if (repr == StripedRepr::kAuto)
    return striped_vector_compiled() ? StripedRepr::kVector
                                     : StripedRepr::kScalar;
#if !SWBPBC_WIDE_SIMD
  if (repr == StripedRepr::kVector) return StripedRepr::kScalar;
#endif
  return repr;
}

template <typename Elem>
void build_profile_planes(const ScoringScheme& scheme,
                          std::span<const std::uint8_t> query,
                          std::size_t alphabet_size, std::size_t segments,
                          unsigned lanes, std::vector<Elem>& plane_p,
                          std::vector<Elem>& plane_n) {
  const Elem elem_max = static_cast<Elem>(~Elem{0});
  const std::size_t stride = segments * lanes;
  plane_p.assign(alphabet_size * stride, Elem{0});
  // Pads default to (wp = 0, wn = max): their diagonal term saturates to
  // zero, and the top-lane placement keeps whatever F/E leaks into them
  // strictly below the true best score.
  plane_n.assign(alphabet_size * stride, elem_max);
  for (std::size_t c = 0; c < alphabet_size; ++c) {
    for (std::size_t i = 0; i < segments; ++i) {
      for (unsigned k = 0; k < lanes; ++k) {
        const std::size_t p = k * segments + i;
        if (p >= query.size()) continue;
        const int w =
            scheme.substitution(query[p], static_cast<std::uint8_t>(c));
        const std::size_t at = c * stride + i * lanes + k;
        plane_p[at] = static_cast<Elem>(w > 0 ? w : 0);
        plane_n[at] = static_cast<Elem>(w < 0 ? -w : 0);
      }
    }
  }
}

}  // namespace

StripedProfile::StripedProfile(const ScoringScheme& scheme,
                               std::span<const std::uint8_t> query,
                               StripedRepr repr)
    : m_(query.size()),
      repr_(resolve_repr(repr)),
      alphabet_size_(scheme.alphabet().size()),
      gap_open_(scheme.gap_open),
      gap_extend_(scheme.affine() ? scheme.gap_extend : scheme.gap_open) {
  for (const std::uint8_t code : query)
    if (code >= alphabet_size_)
      throw std::invalid_argument(
          "striped: query code " + std::to_string(code) +
          " outside the scheme's " + std::to_string(alphabet_size_) +
          "-symbol alphabet");
  const std::uint64_t bound = score_bound(scheme, m_);
  if (bound > 0xFFFFFFFFull)
    throw std::invalid_argument(
        "striped: score bound " + std::to_string(bound) +
        " exceeds 32-bit cells (query too long for this scheme)");
  wide_ = bound > 0xFFFFull;
  lanes_ = wide_ ? 4 : 8;
  segments_ = std::max<std::size_t>(1, (m_ + lanes_ - 1) / lanes_);
  if (wide_)
    build_profile_planes<std::uint32_t>(scheme, query, alphabet_size_,
                                        segments_, lanes_, profile_p32_,
                                        profile_n32_);
  else
    build_profile_planes<std::uint16_t>(scheme, query, alphabet_size_,
                                        segments_, lanes_, profile_p16_,
                                        profile_n16_);
}

std::uint32_t StripedProfile::score(std::span<const std::uint8_t> y) const {
  if (m_ == 0 || y.empty()) return 0;
#if SWBPBC_WIDE_SIMD
  if (repr_ == StripedRepr::kVector) {
    if (wide_)
      return striped_align<VectorRepr<std::uint32_t>>(
          profile_p32_.data(), profile_n32_.data(), segments_,
          alphabet_size_, gap_open_, gap_extend_, y);
    return striped_align<VectorRepr<std::uint16_t>>(
        profile_p16_.data(), profile_n16_.data(), segments_, alphabet_size_,
        gap_open_, gap_extend_, y);
  }
#endif
  if (wide_)
    return striped_align<ScalarRepr<std::uint32_t>>(
        profile_p32_.data(), profile_n32_.data(), segments_, alphabet_size_,
        gap_open_, gap_extend_, y);
  return striped_align<ScalarRepr<std::uint16_t>>(
      profile_p16_.data(), profile_n16_.data(), segments_, alphabet_size_,
      gap_open_, gap_extend_, y);
}

// ---------------------------------------------------------------------
// Profile cache: keyed LRU with stored-query verification.
// ---------------------------------------------------------------------

struct StripedProfileCache::Impl {
  struct Entry {
    std::uint64_t key = 0;
    std::vector<std::uint8_t> query;
    std::shared_ptr<const StripedProfile> profile;
  };

  std::size_t capacity;
  mutable std::mutex mu;
  std::list<Entry> lru;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index;
  Stats stats;
};

StripedProfileCache::StripedProfileCache(std::size_t capacity)
    : impl_(std::make_unique<Impl>()) {
  impl_->capacity = std::max<std::size_t>(1, capacity);
}

StripedProfileCache::~StripedProfileCache() = default;

std::shared_ptr<const StripedProfile> StripedProfileCache::get(
    const ScoringScheme& scheme, std::span<const std::uint8_t> query,
    StripedRepr repr) {
  const StripedRepr resolved = resolve_repr(repr);
  std::uint64_t key = fingerprint_scheme(scheme);
  key = util::fnv1a_bytes(&resolved, sizeof(resolved), key);
  key = util::fnv1a_bytes(query.data(), query.size(), key);
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    const auto it = impl_->index.find(key);
    if (it != impl_->index.end() &&
        std::equal(query.begin(), query.end(), it->second->query.begin(),
                   it->second->query.end())) {
      impl_->lru.splice(impl_->lru.begin(), impl_->lru, it->second);
      ++impl_->stats.hits;
      return it->second->profile;
    }
  }
  // Build outside the lock — profile construction is the expensive part
  // and concurrent misses for different queries must not serialize.
  auto profile = std::make_shared<const StripedProfile>(scheme, query, repr);
  std::lock_guard<std::mutex> lock(impl_->mu);
  ++impl_->stats.misses;
  if (const auto it = impl_->index.find(key); it != impl_->index.end()) {
    impl_->lru.erase(it->second);
    impl_->index.erase(it);
  }
  impl_->lru.push_front(Impl::Entry{
      key, std::vector<std::uint8_t>(query.begin(), query.end()), profile});
  impl_->index[key] = impl_->lru.begin();
  while (impl_->lru.size() > impl_->capacity) {
    impl_->index.erase(impl_->lru.back().key);
    impl_->lru.pop_back();
    ++impl_->stats.evictions;
  }
  return profile;
}

StripedProfileCache::Stats StripedProfileCache::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

// ---------------------------------------------------------------------
// Front doors.
// ---------------------------------------------------------------------

std::uint32_t striped_max_score(const encoding::GenericSequence& x,
                                const encoding::GenericSequence& y,
                                const ScoringScheme& scheme,
                                StripedRepr repr) {
  if (x.empty() || y.empty()) return 0;
  return StripedProfile(scheme, x, repr).score(y);
}

std::uint32_t striped_max_score(const encoding::Sequence& x,
                                const encoding::Sequence& y,
                                const ScoringScheme& scheme,
                                StripedRepr repr) {
  encoding::GenericSequence gx(x.size()), gy(y.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    gx[i] = static_cast<std::uint8_t>(x[i]);
  for (std::size_t i = 0; i < y.size(); ++i)
    gy[i] = static_cast<std::uint8_t>(y[i]);
  return striped_max_score(gx, gy, scheme, repr);
}

util::Expected<std::vector<std::uint32_t>> try_striped_max_scores(
    std::span<const encoding::GenericSequence> xs,
    std::span<const encoding::GenericSequence> ys,
    const ScoringScheme& scheme, bulk::Mode mode, StripedProfileCache* cache,
    PhaseTimings* timings, StripedRepr repr) {
  if (xs.size() != ys.size())
    return util::Status::invalid_input(
        "striped: pattern/text count mismatch (" + std::to_string(xs.size()) +
        " vs " + std::to_string(ys.size()) + ")");
  if (util::Status s = validate_scheme(scheme, "striped.scheme"); !s.ok())
    return s;

  std::vector<std::uint32_t> scores(xs.size(), 0);
  if (xs.empty()) return scores;

  // Resolve every profile up front (serial: the cache makes repeats
  // free), so the parallel DP section below never blocks on a build and
  // the profile cost is attributable as the striped W2B analog.
  StripedProfileCache local(8);
  StripedProfileCache& profiles = cache != nullptr ? *cache : local;
  std::vector<std::shared_ptr<const StripedProfile>> per_pair(xs.size());
  util::WallTimer timer;
  try {
    for (std::size_t k = 0; k < xs.size(); ++k)
      per_pair[k] = profiles.get(scheme, xs[k], repr);
  } catch (const std::invalid_argument& e) {
    return util::Status::invalid_input(e.what());
  }
  if (timings != nullptr) timings->w2b_ms += timer.elapsed_ms();

  timer.reset();
  util::Status failed;
  std::mutex failed_mu;
  bulk::for_each_instance(xs.size(), mode, [&](std::size_t k) {
    try {
      scores[k] = per_pair[k]->score(ys[k]);
    } catch (const std::out_of_range& e) {
      std::lock_guard<std::mutex> lock(failed_mu);
      if (failed.ok()) failed = util::Status::invalid_input(e.what());
    }
  });
  if (!failed.ok()) return failed;
  if (timings != nullptr) timings->swa_ms += timer.elapsed_ms();
  return scores;
}

// ---------------------------------------------------------------------
// The screening Backend adapter (DNA batch boundary).
// ---------------------------------------------------------------------

namespace {

class StripedBackend final : public Backend {
 public:
  StripedBackend(const ScoringScheme& scheme, bulk::Mode mode,
                 StripedProfileCache* cache, StripedRepr repr)
      : scheme_(scheme), mode_(mode), external_cache_(cache), repr_(repr) {}

  [[nodiscard]] BackendCaps caps() const override {
    BackendCaps caps;
    caps.stop_polling = true;
    // Informational only: the striped engine has no BPBC lane word; it
    // reports the narrow default so callers log something sensible.
    caps.lane_width = LaneWidth::k64;
    return caps;
  }

  ChunkResult run(const ChunkJob& job) override {
    ChunkResult r;
    std::vector<encoding::GenericSequence> gx(job.xs.size()),
        gy(job.ys.size());
    for (std::size_t k = 0; k < job.xs.size(); ++k) {
      gx[k].reserve(job.xs[k].size());
      for (const encoding::Base b : job.xs[k])
        gx[k].push_back(static_cast<std::uint8_t>(b));
    }
    for (std::size_t k = 0; k < job.ys.size(); ++k) {
      gy[k].reserve(job.ys[k].size());
      for (const encoding::Base b : job.ys[k])
        gy[k].push_back(static_cast<std::uint8_t>(b));
    }
    if (job.stop != nullptr && job.stop->triggered())
      throw util::StatusError(
          job.stop->status("striped chunk " + std::to_string(job.chunk)));
    PhaseTimings t;
    StripedProfileCache* cache =
        external_cache_ != nullptr ? external_cache_ : &own_cache_;
    auto scores =
        try_striped_max_scores(gx, gy, scheme_, mode_, cache, &t, repr_);
    if (!scores.has_value()) throw util::StatusError(scores.status());
    if (job.stop != nullptr && job.stop->triggered())
      throw util::StatusError(
          job.stop->status("striped chunk " + std::to_string(job.chunk)));
    r.scores = std::move(scores).value();
    r.timings = t;
    r.has_phase_timings = true;
    return r;
  }

 private:
  ScoringScheme scheme_;
  bulk::Mode mode_;
  StripedProfileCache* external_cache_;
  StripedProfileCache own_cache_;
  StripedRepr repr_;
};

}  // namespace

std::unique_ptr<Backend> make_striped_backend(const ScoringScheme& scheme,
                                              bulk::Mode mode,
                                              StripedProfileCache* cache,
                                              StripedRepr repr) {
  return std::make_unique<StripedBackend>(scheme, mode, cache, repr);
}

}  // namespace swbpbc::sw
