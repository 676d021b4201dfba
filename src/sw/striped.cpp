#include "sw/striped.hpp"

#include <algorithm>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "sw/backend.hpp"
#include "util/checksum.hpp"
#include "util/timer.hpp"

namespace swbpbc::sw {

std::string StripedBuild::name() const {
  const auto pass = [](unsigned bits) {
    return std::to_string(kStripedVectorBits / bits) + "xu" +
           std::to_string(bits);
  };
  std::string out = pass(first_bits);
  if (first_bits != exact_bits) {
    out += '>';
    out += pass(exact_bits);
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------
// The kernel's vector ops over 128-bit GNU vectors. Each op is written
// so GCC lowers it to the target's unsigned max, saturating subtract and
// byte shift where it has them, not to a compare-and-mask chain or a
// trip through the stack.
// ---------------------------------------------------------------------

constexpr unsigned kVectorBytes = kStripedVectorBits / 8;

template <class Elem>
struct GnuVec {
  using E = Elem;
  typedef Elem V __attribute__((vector_size(kVectorBytes)));
  static constexpr unsigned kLanes = kVectorBytes / sizeof(Elem);

  static V splat(Elem v) { return V{} + v; }
  static V load(const Elem* at) {
    V v;
    std::memcpy(&v, at, sizeof(V));
    return v;
  }
  static V add(V a, V b) { return a + b; }
  static V max(V a, V b) { return a > b ? a : b; }
  // Unsigned saturating subtract, exact: max(a, b) - b is a - b where
  // a > b and 0 elsewhere.
  static V ssub(V a, V b) { return max(a, b) - b; }

  // Element shift toward higher lanes: out[k] = k >= N ? v[k - N] : 0.
  // Index kLanes selects lane 0 of the zero operand.
  template <unsigned N>
  static V shift_up(V v) {
    V mask;
    for (unsigned k = 0; k < kLanes; ++k)
      mask[k] = static_cast<Elem>(k >= N ? k - N : kLanes);
    return __builtin_shuffle(v, V{}, mask);
  }

  static bool any(V v) {
    std::uint64_t w[2];
    std::memcpy(w, &v, sizeof(V));
    return (w[0] | w[1]) != 0;
  }
  // Some lane of a exceeds the same lane of b.
  static bool any_gt(V a, V b) { return any(ssub(a, b)); }

  static Elem hmax(V v) {
    Elem best = 0;
    for (unsigned k = 0; k < kLanes; ++k) best = v[k] > best ? v[k] : best;
    return best;
  }
};
// One element width's query profile, as the kernel reads it: per symbol
// c, `segments` vectors of positive (p) and negative (n) substitution
// magnitudes at [c][vector][lane].
template <class Elem>
struct Planes {
  const Elem* p = nullptr;
  const Elem* n = nullptr;
  std::size_t segments = 0;
};

// The decayed max-scan of the lazy-F carry (Snytsar & Mikkelsen): lane
// k's carry becomes the max over lower lanes j of their carry minus the
// decay of the whole segments in between, in log2(lanes) shift-and-max
// steps. decay[t] is the splatted decay of 2^t segments.
template <class Vec, unsigned kStep = 1>
[[gnu::always_inline]] inline typename Vec::V scan_carry(
    typename Vec::V v_f, const typename Vec::V* decay) {
  if constexpr (kStep < Vec::kLanes) {
    v_f = Vec::max(v_f,
                   Vec::ssub(Vec::template shift_up<kStep>(v_f), decay[0]));
    return scan_carry<Vec, kStep * 2>(v_f, decay + 1);
  } else {
    return v_f;
  }
}

// Max local-alignment score of the profiled query against the target
// codes y[0..n) (every code < the profile's alphabet size), in Vec's
// cells. Cells are exact as long as no add() wraps; the caller picks an
// element width for which that holds, or (at 8 bits) reads a result at
// or above 255 - max_positive as "rescore wider" (StripedProfile::score).
// `scratch` holds 3 * segments vectors, aligned for V.
template <class Vec>
std::uint32_t align(const Planes<typename Vec::E>& planes,
                    std::uint32_t open32, std::uint32_t extend32,
                    const std::uint8_t* y, std::size_t n,
                    typename Vec::V* scratch) {
  using V = typename Vec::V;
  using Elem = typename Vec::E;
  constexpr unsigned kLanes = Vec::kLanes;
  constexpr unsigned kSteps = __builtin_ctz(kLanes);
  constexpr std::uint64_t kElemMax = static_cast<Elem>(~Elem{0});
  const std::size_t segments = planes.segments;

  const V v_open = Vec::splat(static_cast<Elem>(open32));
  const V v_extend = Vec::splat(static_cast<Elem>(extend32));
  // Decay for 2^t whole segments crossed: that many positions, extend
  // each, clamped to the element range (ssub by the clamp is still 0).
  V decay[kSteps];
  for (unsigned t = 0; t < kSteps; ++t) {
    const std::uint64_t d =
        (std::uint64_t{1} << t) * static_cast<std::uint64_t>(segments) *
        extend32;
    decay[t] = Vec::splat(static_cast<Elem>(d > kElemMax ? kElemMax : d));
  }

  V* h_load = scratch;
  V* h_store = h_load + segments;
  V* e = h_load + 2 * segments;
  for (std::size_t i = 0; i < 3 * segments; ++i) h_load[i] = V{};
  V v_max = V{};

  for (std::size_t j = 0; j < n; ++j) {
    const Elem* p = planes.p + y[j] * segments * kLanes;
    const Elem* np = planes.n + y[j] * segments * kLanes;

    // Diagonal feed for vector 0: the previous column's last vector,
    // lanes shifted up one so lane k sees position k*segments - 1 (lane
    // 0 sees the zero boundary).
    V v_h = Vec::template shift_up<1>(h_store[segments - 1]);
    std::swap(h_load, h_store);
    V v_f = V{};

    for (std::size_t i = 0; i < segments; ++i) {
      v_h = Vec::ssub(Vec::add(v_h, Vec::load(p + i * kLanes)),
                      Vec::load(np + i * kLanes));
      v_h = Vec::max(v_h, e[i]);
      v_h = Vec::max(v_h, v_f);
      v_max = Vec::max(v_max, v_h);
      h_store[i] = v_h;
      const V v_gap = Vec::ssub(v_h, v_open);
      e[i] = Vec::max(Vec::ssub(e[i], v_extend), v_gap);
      v_f = Vec::max(Vec::ssub(v_f, v_extend), v_gap);
      v_h = h_load[i];
    }

    // Lazy-F, deconstructed. After the main pass v_f lane k is the F
    // value leaving lane k's segment; shifted up it is each lane's
    // incoming carry from the segment directly below. The decayed
    // max-scan closes the recurrence over all lower segments exactly
    // (open >= extend means an F-derived H cannot out-contribute the
    // chain), then one pass folds the carry into H and E.
    v_f = Vec::template shift_up<1>(v_f);
    if (!Vec::any(v_f)) continue;
    v_f = scan_carry<Vec>(v_f, decay);
    for (std::size_t i = 0; i < segments; ++i) {
      const V h = h_store[i];
      // Farrar's exit: where the carry is at most ssub(H, open), the main
      // pass's own F already dominates it from here to the segment's end
      // (F(i+1) >= H(i) - open >= carry >= carry - extend), so nothing
      // downstream can change.
      if (!Vec::any_gt(v_f, Vec::ssub(h, v_open))) break;
      const V corrected = Vec::max(h, v_f);
      h_store[i] = corrected;
      v_max = Vec::max(v_max, corrected);
      // The E recurrence reads this column's H; it must see the
      // corrected value or the next column under-scores (the SSW
      // shortcut this engine deliberately does not take).
      e[i] = Vec::max(e[i], Vec::ssub(corrected, v_open));
      v_f = Vec::ssub(v_f, v_extend);
    }
  }
  return static_cast<std::uint32_t>(Vec::hmax(v_max));
}

// ---------------------------------------------------------------------
// Element-width policy. The exact pass never wraps: H is bounded by
// max_positive * min(m, n) <= max_positive * m (a local alignment gains
// at most one max-entry per diagonal step), so bound + max_positive
// fitting the element type makes add() exact and the saturating ops the
// only clamping anywhere — the same semantics as the scalar reference.
// Every other constant (gap costs, the largest penalty) must fit too, or
// its splat would truncate. The 8-bit pass needs only the constants to
// fit: its results are checked against byte_limit instead.
// ---------------------------------------------------------------------

std::uint64_t score_bound(const ScoringScheme& scheme, std::size_t m) {
  return static_cast<std::uint64_t>(scheme.max_positive()) *
             static_cast<std::uint64_t>(m) +
         scheme.max_positive();
}

std::uint64_t largest_constant(const ScoringScheme& scheme) {
  return std::max({scheme.max_positive(), scheme.max_negative(),
                   scheme.gap_open,
                   scheme.affine() ? scheme.gap_extend : 0u});
}

constexpr std::uint64_t kByteMax = 0xFF;

// 8-bit results at or above this limit are rescored (see striped.hpp).
std::uint32_t byte_limit(const ScoringScheme& scheme) {
  return static_cast<std::uint32_t>(kByteMax) - scheme.max_positive();
}

bool byte_pass_fits(const ScoringScheme& scheme) {
  return largest_constant(scheme) < kByteMax;
}

// Writes one element width's two planes, `stride` = segments * lanes
// elements per symbol, at `plane_p` / `plane_n` (raw storage, written
// with memcpy).
template <typename Elem>
void build_profile_planes(const ScoringScheme& scheme,
                          std::span<const std::uint8_t> query,
                          std::size_t alphabet_size, std::size_t segments,
                          unsigned lanes, unsigned char* plane_p,
                          unsigned char* plane_n) {
  const auto put = [](unsigned char* plane, std::size_t at, Elem v) {
    std::memcpy(plane + at * sizeof(Elem), &v, sizeof(Elem));
  };
  const std::size_t stride = segments * lanes;
  for (std::size_t c = 0; c < alphabet_size; ++c) {
    for (std::size_t i = 0; i < segments; ++i) {
      for (unsigned k = 0; k < lanes; ++k) {
        const std::size_t at = c * stride + i * lanes + k;
        const std::size_t p = k * segments + i;
        if (p >= query.size()) {
          // Pads score (wp = 0, wn = max): their diagonal term saturates
          // to zero, and the top-lane placement keeps whatever F/E leaks
          // into them strictly below the true best score.
          put(plane_p, at, Elem{0});
          put(plane_n, at, static_cast<Elem>(~Elem{0}));
          continue;
        }
        const int w =
            scheme.substitution(query[p], static_cast<std::uint8_t>(c));
        put(plane_p, at, static_cast<Elem>(w > 0 ? w : 0));
        put(plane_n, at, static_cast<Elem>(w < 0 ? -w : 0));
      }
    }
  }
}

// Per-thread DP scratch up to this size is kept for the next score(), so
// the common query allocates nothing per call; a longer query's scratch
// lives for its one call, so it is not pinned in every pool thread.
constexpr std::size_t kKeptScratchBytes = 64 * 1024;

// Runs the kernel at element width Elem.
template <typename Elem>
std::uint32_t run_kernel(const Planes<Elem>& planes, std::uint32_t open,
                         std::uint32_t extend,
                         std::span<const std::uint8_t> y) {
  using V = typename GnuVec<Elem>::V;
  const std::size_t count = 3 * planes.segments;
  thread_local std::vector<V> kept;
  std::vector<V> once;
  std::vector<V>& scratch =
      count * sizeof(V) <= kKeptScratchBytes ? kept : once;
  if (scratch.size() < count) scratch.resize(count);
  return align<GnuVec<Elem>>(planes, open, extend, y.data(), y.size(),
                             scratch.data());
}

}  // namespace

StripedBuild striped_build(const ScoringScheme& scheme, std::size_t m) {
  const std::uint64_t bound =
      std::max(score_bound(scheme, m), largest_constant(scheme));
  if (bound > 0xFFFFFFFFull)
    throw std::invalid_argument(
        "striped: score bound " + std::to_string(bound) +
        " exceeds 32-bit cells (query too long for this scheme)");
  StripedBuild b;
  b.exact_bits = bound > 0xFFFFull ? 32 : 16;
  b.first_bits = byte_pass_fits(scheme) ? 8 : b.exact_bits;
  return b;
}

StripedProfile::StripedProfile(const ScoringScheme& scheme,
                               std::span<const std::uint8_t> query)
    : m_(query.size()),
      build_(striped_build(scheme, query.size())),
      alphabet_size_(scheme.alphabet().size()),
      gap_open_(scheme.gap_open),
      gap_extend_(scheme.affine() ? scheme.gap_extend : scheme.gap_open),
      byte_limit_(byte_limit(scheme)) {
  for (const std::uint8_t code : query)
    if (code >= alphabet_size_)
      throw std::invalid_argument(
          "striped: query code " + std::to_string(code) +
          " outside the scheme's " + std::to_string(alphabet_size_) +
          "-symbol alphabet");
  // Lay out each pass's two planes back to back in storage_: alphabet *
  // segments vectors per plane, so every offset is a multiple of the
  // vector size.
  const auto layout = [&](unsigned elem_bytes, Pass& pass) {
    const unsigned lanes = kVectorBytes / elem_bytes;
    pass.segments = std::max<std::size_t>(1, (m_ + lanes - 1) / lanes);
    const std::size_t plane = alphabet_size_ * pass.segments * kVectorBytes;
    pass.p = storage_.size();
    pass.n = pass.p + plane;
    storage_.resize(pass.n + plane);
  };
  if (byte_pass()) layout(1, byte_);
  layout(build_.exact_bits / 8, exact_);
  const auto fill = [&]<class Elem>(const Pass& pass) {
    build_profile_planes<Elem>(scheme, query, alphabet_size_, pass.segments,
                               kVectorBytes / sizeof(Elem),
                               storage_.data() + pass.p,
                               storage_.data() + pass.n);
  };
  if (byte_pass()) fill.operator()<std::uint8_t>(byte_);
  if (wide_cells())
    fill.operator()<std::uint32_t>(exact_);
  else
    fill.operator()<std::uint16_t>(exact_);
}

template <class Elem>
std::uint32_t StripedProfile::run(const Pass& pass,
                                  std::span<const std::uint8_t> y) const {
  const auto* base = storage_.data();
  const Planes<Elem> view{
      reinterpret_cast<const Elem*>(base + pass.p),
      reinterpret_cast<const Elem*>(base + pass.n), pass.segments};
  return run_kernel<Elem>(view, gap_open_, gap_extend_, y);
}

std::uint32_t StripedProfile::score(std::span<const std::uint8_t> y,
                                    bool* rescored) const {
  if (rescored != nullptr) *rescored = false;
  if (m_ == 0 || y.empty()) return 0;
  for (const std::uint8_t c : y)
    if (c >= alphabet_size_)
      throw std::out_of_range("striped: target code " + std::to_string(c) +
                              " outside the scheme's alphabet");
  if (byte_pass()) {
    const std::uint32_t s = run<std::uint8_t>(byte_, y);
    if (s < byte_limit_) return s;
    if (rescored != nullptr) *rescored = true;
  }
  return wide_cells() ? run<std::uint32_t>(exact_, y)
                      : run<std::uint16_t>(exact_, y);
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
    const ScoringScheme& scheme, std::uint64_t scheme_key,
    std::span<const std::uint8_t> query) {
  const std::uint64_t key =
      util::fnv1a_bytes(query.data(), query.size(), scheme_key);
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
  auto profile = std::make_shared<const StripedProfile>(scheme, query);
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

std::uint32_t striped_max_score(const encoding::Sequence& x,
                                const encoding::Sequence& y,
                                const ScoringScheme& scheme) {
  if (x.empty() || y.empty()) return 0;
  return StripedProfile(scheme, x).score(y);
}

util::Expected<std::vector<std::uint32_t>> try_striped_max_scores(
    std::span<const encoding::Sequence> xs,
    std::span<const encoding::Sequence> ys,
    const ScoringScheme& scheme, bulk::Mode mode, StripedProfileCache* cache,
    PhaseTimings* timings, StripedStats* stats) {
  if (xs.size() != ys.size())
    return util::Status::invalid_input(
        "striped: pattern/text count mismatch (" + std::to_string(xs.size()) +
        " vs " + std::to_string(ys.size()) + ")");
  if (util::Status s = validate_scheme(scheme, "striped.scheme"); !s.ok())
    return s;
  // Pairs may differ in length, but none may be empty: the BPBC front
  // ends reject m or n = 0, and the dispatcher must not turn an error
  // into a score of 0 by picking this engine.
  for (std::size_t k = 0; k < xs.size(); ++k) {
    if (xs[k].empty() || ys[k].empty())
      return util::Status::invalid_input(
          "striped: sequences must be non-empty: pair " + std::to_string(k) +
          " has m = " + std::to_string(xs[k].size()) +
          ", n = " + std::to_string(ys[k].size()));
  }

  std::vector<std::uint32_t> scores(xs.size(), 0);
  if (xs.empty()) return scores;

  // Resolve every profile up front (serial: the cache makes repeats
  // free), so the parallel DP section below never blocks on a build and
  // the profile cost is attributable as the striped W2B analog.
  StripedProfileCache local(8);
  StripedProfileCache& profiles = cache != nullptr ? *cache : local;
  std::vector<std::shared_ptr<const StripedProfile>> per_pair(xs.size());
  util::WallTimer timer;
  const std::uint64_t scheme_key = fingerprint_scheme(scheme);
  try {
    for (std::size_t k = 0; k < xs.size(); ++k)
      per_pair[k] = profiles.get(scheme, scheme_key, xs[k]);
  } catch (const std::invalid_argument& e) {
    return util::Status::invalid_input(e.what());
  }
  if (timings != nullptr) timings->w2b_ms += timer.elapsed_ms();

  timer.reset();
  util::Status failed;
  std::mutex failed_mu;
  std::vector<std::uint8_t> rescored(xs.size(), 0);
  bulk::for_each_instance(xs.size(), mode, [&](std::size_t k) {
    try {
      bool wider = false;
      scores[k] = per_pair[k]->score(ys[k], &wider);
      rescored[k] = wider ? 1 : 0;
    } catch (const std::out_of_range& e) {
      std::lock_guard<std::mutex> lock(failed_mu);
      if (failed.ok()) failed = util::Status::invalid_input(e.what());
    }
  });
  if (!failed.ok()) return failed;
  if (timings != nullptr) timings->swa_ms += timer.elapsed_ms();
  if (stats != nullptr) {
    for (std::size_t k = 0; k < xs.size(); ++k) {
      if (per_pair[k]->byte_pass()) ++stats->byte_pass_pairs;
      stats->escalations += rescored[k];
    }
  }
  return scores;
}

// ---------------------------------------------------------------------
// The screening Backend adapter.
// ---------------------------------------------------------------------

namespace {

class StripedBackend final : public Backend {
 public:
  StripedBackend(const ScoringScheme& scheme, bulk::Mode mode,
                 StripedProfileCache* cache)
      : scheme_(scheme), mode_(mode), external_cache_(cache) {}

  // The striped engine has no BPBC lane word: lane_width keeps its
  // default.
  [[nodiscard]] BackendCaps caps() const override { return {}; }

  ChunkResult run(const ChunkJob& job) override {
    ChunkResult r;
    if (job.stop != nullptr && job.stop->triggered())
      throw util::StatusError(
          job.stop->status("striped chunk " + std::to_string(job.chunk)));
    PhaseTimings t;
    StripedProfileCache* cache =
        external_cache_ != nullptr ? external_cache_ : &own_cache_;
    StripedStats stats;
    auto scores =
        try_striped_max_scores(job.xs, job.ys, scheme_, mode_, cache, &t,
                               &stats);
    if (!scores.has_value()) throw util::StatusError(scores.status());
    if (job.stop != nullptr && job.stop->triggered())
      throw util::StatusError(
          job.stop->status("striped chunk " + std::to_string(job.chunk)));
    r.scores = std::move(scores).value();
    r.timings = t;
    r.has_phase_timings = true;
    r.striped_byte_pairs = stats.byte_pass_pairs;
    r.striped_escalations = stats.escalations;
    return r;
  }

 private:
  ScoringScheme scheme_;
  bulk::Mode mode_;
  StripedProfileCache* external_cache_;
  StripedProfileCache own_cache_;
};

}  // namespace

std::unique_ptr<Backend> make_striped_backend(const ScoringScheme& scheme,
                                              bulk::Mode mode,
                                              StripedProfileCache* cache) {
  return std::make_unique<StripedBackend>(scheme, mode, cache);
}

}  // namespace swbpbc::sw
