#include "device/engine.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bitsim/wide_transpose.hpp"
#include "device/launch.hpp"
#include "device/sw_stage_kernels.hpp"
#include "util/checksum.hpp"
#include "util/timer.hpp"

namespace swbpbc::device {
namespace {

// Threads per block of the W2B kernel: the launch shape the Table V
// counters were recorded at.
constexpr unsigned kW2bBlockDim = 256;

// Fault campaign of a device run: a pure function of the job's (chunk,
// attempt) tag, so the pattern a chunk observes is independent of which
// chunks the engine ran before it, or in what order. The high bit is part
// of the derivation every recorded fault pattern was drawn under.
std::uint64_t job_campaign(const sw::ChunkJob& job) {
  std::uint64_t h = util::fnv1a_value<std::uint64_t>(
      static_cast<std::uint64_t>(job.chunk));
  h = util::fnv1a_value<std::uint64_t>(static_cast<std::uint64_t>(job.attempt),
                                       h);
  return h | (std::uint64_t{1} << 63);
}

/// Persistent device arena: every buffer of the five-stage pipeline,
/// allocated once and reused across chunks (resize on a warm vector is
/// capacity reuse, not a fresh allocation).
template <bitsim::LaneWord W>
struct Arena {
  std::vector<std::uint32_t> host_x, host_y;  // staged wordwise input
  std::vector<std::uint32_t> d_x_words, d_y_words;
  std::vector<W> d_x_hi, d_x_lo, d_y_hi, d_y_lo, d_slices;
  std::vector<std::uint32_t> d_scores;
  std::vector<char> killed;
  std::vector<std::size_t> canary_src;  // source instance per canary lane
};

template <bitsim::LaneWord W>
struct ArenaBounds {
  detail::Bound<std::uint32_t> x_words, y_words, scores;
  detail::Bound<W> x_hi, x_lo, y_hi, y_lo, slices;
};

// Base addresses follow a fixed allocation order over the arena's current
// buffer sizes, so rebinding per stage is deterministic and cheap.
template <bitsim::LaneWord W>
ArenaBounds<W> bind_arena(Arena<W>& a) {
  detail::Allocator alloc;
  ArenaBounds<W> b;
  b.x_words = alloc.alloc(a.d_x_words);
  b.y_words = alloc.alloc(a.d_y_words);
  b.x_hi = alloc.alloc(a.d_x_hi);
  b.x_lo = alloc.alloc(a.d_x_lo);
  b.y_hi = alloc.alloc(a.d_y_hi);
  b.y_lo = alloc.alloc(a.d_y_lo);
  b.slices = alloc.alloc(a.d_slices);
  b.scores = alloc.alloc(a.d_scores);
  return b;
}

void note_fault(GpuRunResult& run, sw::PipelineStage stage,
                std::size_t block) {
  for (const sw::StageFault& f : run.integrity_faults)
    if (f.stage == stage && f.block == block) return;
  sw::StageFault fault;
  fault.stage = stage;
  fault.block = block;
  run.integrity_faults.push_back(fault);
}

// A watchdog-killed SWA block left its launch-time outputs in place: the
// run's status counts the kills, and each killed block is a kSWA finding
// whether or not the integrity checks run, so the screen layer retries
// the chunk instead of taking the stale scores.
void note_kills(GpuRunResult& run, const std::vector<char>& killed) {
  std::size_t kills = 0;
  for (std::size_t b = 0; b < killed.size(); ++b) {
    if (killed[b] == 0) continue;
    ++kills;
    note_fault(run, sw::PipelineStage::kSWA, b);
  }
  if (kills != 0)
    run.status = util::Status::kernel_timeout(
        std::to_string(kills) + " block(s) killed by the watchdog");
}

template <bitsim::LaneWord W>
struct JobState {
  sw::ChunkJob job;
  std::uint64_t campaign = 0;
  std::size_t count = 0;
  std::size_t n_groups = 0;
  std::size_t padded_count = 0;
  GpuRunResult run;
};

sw::ChunkResult to_chunk_result(GpuRunResult&& run) {
  sw::ChunkResult out;
  out.scores = std::move(run.scores);
  out.faults = std::move(run.integrity_faults);
  out.integrity_checks = run.integrity_checks;
  out.integrity_ms = run.integrity_ms;
  // ScreenReport::bpbc has three phases; fold the copy stages into their
  // adjacent transpose stages (H2G feeds W2B, G2H drains B2W).
  out.timings.w2b_ms = run.timings.h2g_ms + run.timings.w2b_ms;
  out.timings.swa_ms = run.timings.swa_ms;
  out.timings.b2w_ms = run.timings.b2w_ms + run.timings.g2h_ms;
  out.has_phase_timings = true;
  return out;
}

// The batch shape check every front end runs, and the codes against the
// scheme's 2-bit DNA alphabet: a typed kInvalidInput StatusError.
void validate_job(const sw::ChunkJob& job, const sw::ScoringScheme& scheme) {
  util::Status s = sw::validate_batch(job.xs, job.ys);
  if (s.ok()) s = sw::validate_codes(job.xs, scheme, "xs");
  if (s.ok()) s = sw::validate_codes(job.ys, scheme, "ys");
  if (!s.ok()) throw util::StatusError(std::move(s));
}

// Width-erased interface over Core<W>: the engine holds one CoreBase built
// for the resolved lane width, so adding a width is one factory case
// instead of another member/forwarder pair.
class CoreBase {
 public:
  virtual ~CoreBase() = default;
  /// The five-stage pipeline for one validated, non-empty job.
  virtual GpuRunResult run_stages(const sw::ChunkJob& job) = 0;
};

template <bitsim::LaneWord W>
class Core final : public CoreBase {
 public:
  static constexpr unsigned kLanes = bitsim::word_bits_v<W>;

  explicit Core(const EngineOptions& opts) : opts_(opts) {}

  // H2G .. G2H in sequence on the one arena; a stage's error (stop,
  // watchdog without an injector, ...) propagates from here.
  GpuRunResult run_stages(const sw::ChunkJob& job) override {
    ensure_shape(job);
    // Stamp the stage spans with the job's id, which may differ from the
    // caller's current context, so they correlate with the request that
    // owns them.
    telemetry::ScopedTraceContext trace_ctx(job.trace_id);
    JobState<W> st;
    st.job = job;
    st.campaign = job_campaign(job);
    st.count = job.xs.size();
    st.n_groups = (st.count + kLanes - 1) / kLanes;
    prep(st);
    swa(st);
    post(st);
    return std::move(st.run);
  }

 private:
  // (Re)computes the shape-dependent caches when the batch shape changes:
  // transpose plans, broadcast constant slices, slice count.
  void ensure_shape(const sw::ChunkJob& job) {
    const std::size_t m = job.xs.front().size();
    const std::size_t n = job.ys.front().size();
    if (shaped_ && m == m_ && n == n_) return;
    m_ = m;
    n_ = n;
    const sw::ScoringScheme& scheme = opts_.scheme;
    s_ = sw::scheme_required_slices(scheme, m, n);
    char_plan_ = bitsim::PayloadTranspose<W>::forward(encoding::kBitsPerBase);
    score_plan_ = bitsim::PayloadTranspose<W>::inverse(s_);
    consts_.s = s_;
    consts_.affine = scheme.affine();
    consts_.c1 = bitops::broadcast_constant<W>(scheme.match, s_);
    consts_.c2 = bitops::broadcast_constant<W>(scheme.mismatch, s_);
    consts_.open = bitops::broadcast_constant<W>(scheme.gap_open, s_);
    consts_.extend = bitops::broadcast_constant<W>(
        consts_.affine ? scheme.gap_extend : scheme.gap_open, s_);
    shaped_ = true;
  }

  [[nodiscard]] telemetry::Tracer* tracer() const {
    return opts_.telemetry != nullptr ? opts_.telemetry->tracer() : nullptr;
  }

  // Stage 1+2: H2G copy (staging, copy faults, checksum) and the W2B
  // launch with its sampled transpose round-trip check.
  void prep(JobState<W>& st) {
    Arena<W>& a = arena_;
    const sw::ChunkJob& job = st.job;
    const std::size_t count = st.count;
    const std::size_t m = m_, n = n_;
    const std::size_t n_groups = st.n_groups;
    const IntegrityConfig& integ = opts_.integrity;
    telemetry::Tracer* const tr = tracer();
    util::WallTimer timer, integ_timer;

    BlockFaults h2g_faults;
    if (opts_.faults != nullptr)
      h2g_faults =
          opts_.faults->block_faults_at(st.campaign, detail::kH2gFaultBlock);

    detail::pack_wordwise_into(a.host_x, job.xs, m);
    detail::pack_wordwise_into(a.host_y, job.ys, n);

    // Canary lanes: replicate instances of the last group into its spare
    // lanes (see IntegrityConfig).
    a.canary_src.clear();
    std::size_t padded_count = count;
    if (integ.enabled) {
      const std::size_t last_first = (n_groups - 1) * kLanes;
      const std::size_t lanes_used = count - last_first;
      const std::size_t spare = kLanes - lanes_used;
      a.canary_src.reserve(spare);
      a.host_x.reserve((count + spare) * m);
      a.host_y.reserve((count + spare) * n);
      for (std::size_t c = 0; c < spare; ++c) {
        const std::size_t src = last_first + (c % lanes_used);
        a.canary_src.push_back(src);
        for (std::size_t i = 0; i < m; ++i)
          a.host_x.push_back(a.host_x[src * m + i]);
        for (std::size_t i = 0; i < n; ++i)
          a.host_y.push_back(a.host_y[src * n + i]);
      }
      padded_count = count + spare;
    }
    st.padded_count = padded_count;

    // H2G into the persistent device buffers.
    timer.reset();
    telemetry::Span h2g_span(tr, "H2G", "device", telemetry::kTrackDevice);
    h2g_span.arg("chunk", static_cast<std::int64_t>(job.chunk));
    a.d_x_words.assign(a.host_x.begin(), a.host_x.end());
    a.d_y_words.assign(a.host_y.begin(), a.host_y.end());
    if (opts_.faults != nullptr) {
      for (std::uint32_t& w : a.d_x_words) w = h2g_faults.mutate_copy(w);
      for (std::uint32_t& w : a.d_y_words) w = h2g_faults.mutate_copy(w);
    }
    const std::uint64_t h2g_words = a.d_x_words.size() + a.d_y_words.size();
    h2g_span.arg("words", static_cast<std::int64_t>(h2g_words));
    h2g_span.finish();
    st.run.timings.h2g_ms = timer.elapsed_ms();
    if (opts_.record_metrics) {
      MetricTotals& t = st.run.stage_metrics[sw::PipelineStage::kH2G];
      t.global_writes += h2g_words;
      t.global_write_transactions +=
          (h2g_words * sizeof(std::uint32_t) + kSegmentBytes - 1) /
          kSegmentBytes;
    }

    if (integ.enabled) {
      integ_timer.reset();
      const std::uint64_t sent = util::fnv1a_span<std::uint32_t>(
          a.host_y, util::fnv1a_span<std::uint32_t>(a.host_x));
      const std::uint64_t landed = util::fnv1a_span<std::uint32_t>(
          a.d_y_words, util::fnv1a_span<std::uint32_t>(a.d_x_words));
      ++st.run.integrity_checks;
      if (sent != landed)
        note_fault(st.run, sw::PipelineStage::kH2G, sw::StageFault::kNoBlock);
      st.run.integrity_ms += integ_timer.elapsed_ms();
    }

    // Size the kernel buffers for this chunk. Under fault injection they
    // are zero-filled so a dropped store or watchdog-killed block observes
    // the same launch-time contents a fresh allocation would — reuse must
    // not leak the previous chunk's data into fault outcomes (that would
    // make a chunk's result depend on which chunk ran before it, not only
    // on its (chunk, attempt) tag).
    if (opts_.faults != nullptr) {
      a.d_x_hi.assign(n_groups * m, 0);
      a.d_x_lo.assign(n_groups * m, 0);
      a.d_y_hi.assign(n_groups * n, 0);
      a.d_y_lo.assign(n_groups * n, 0);
      a.d_slices.assign(n_groups * s_, 0);
      a.d_scores.assign(n_groups * kLanes, 0);
    } else {
      a.d_x_hi.resize(n_groups * m);
      a.d_x_lo.resize(n_groups * m);
      a.d_y_hi.resize(n_groups * n);
      a.d_y_lo.resize(n_groups * n);
      a.d_slices.resize(n_groups * s_);
      a.d_scores.resize(n_groups * kLanes);
    }

    // W2B.
    const ArenaBounds<W> b = bind_arena(a);
    LaunchConfig w2b_cfg;
    w2b_cfg.grid_dim = n_groups;
    w2b_cfg.record_metrics = opts_.record_metrics;
    w2b_cfg.mode = opts_.mode;
    w2b_cfg.faults = opts_.faults;
    w2b_cfg.stop = job.stop;
    w2b_cfg.campaign = st.campaign;
    timer.reset();
    telemetry::Span w2b_span(tr, "W2B", "device", telemetry::kTrackDevice);
    w2b_span.arg("chunk", static_cast<std::int64_t>(job.chunk));
    w2b_span.arg("blocks", static_cast<std::int64_t>(n_groups));
    st.run.stage_metrics[sw::PipelineStage::kW2B] = launch(
        w2b_cfg,
        [&](std::size_t g, BlockRecorder& rec) {
          return detail::W2bKernel<W>(g, rec, kW2bBlockDim, char_plan_,
                                      padded_count, m, n, b.x_words, b.y_words,
                                      b.x_hi, b.x_lo, b.y_hi, b.y_lo);
        });
    w2b_span.finish();
    st.run.timings.w2b_ms = timer.elapsed_ms();

    // Transpose round-trip after W2B: re-transpose sampled positions of
    // the device wordwise input on the host and compare with the device
    // bit planes. The source is d_*_words (not host_*), so a flipped H2G
    // copy is not double-reported here.
    if (integ.enabled) {
      integ_timer.reset();
      const std::size_t stride = std::max<std::size_t>(1, integ.sample_every);
      for (std::size_t g = 0; g < n_groups; ++g) {
        const std::size_t first = g * kLanes;
        const std::size_t lanes_used =
            first < padded_count
                ? std::min<std::size_t>(kLanes, padded_count - first)
                : 0;
        bool bad = false;
        for (std::size_t pos = 0; pos < m + n; pos += stride) {
          const bool is_x = pos < m;
          const std::size_t i = is_x ? pos : pos - m;
          const std::size_t len = is_x ? m : n;
          const std::vector<std::uint32_t>& src =
              is_x ? a.d_x_words : a.d_y_words;
          std::array<W, kLanes> scratch{};
          for (std::size_t lane = 0; lane < lanes_used; ++lane)
            scratch[lane] = static_cast<W>(src[(first + lane) * len + i]);
          char_plan_.apply(std::span<W>(scratch));
          const W lo = is_x ? a.d_x_lo[g * m + i] : a.d_y_lo[g * n + i];
          const W hi = is_x ? a.d_x_hi[g * m + i] : a.d_y_hi[g * n + i];
          ++st.run.integrity_checks;
          if (scratch[0] != lo || scratch[1] != hi) bad = true;
        }
        if (bad) note_fault(st.run, sw::PipelineStage::kW2B, g);
      }
      st.run.integrity_ms += integ_timer.elapsed_ms();
    }
  }

  // Stage 3: the SWA wavefront launch with canary and watchdog checks.
  void swa(JobState<W>& st) {
    Arena<W>& a = arena_;
    const sw::ChunkJob& job = st.job;
    const std::size_t m = m_, n = n_;
    const std::size_t n_groups = st.n_groups;
    const IntegrityConfig& integ = opts_.integrity;
    telemetry::Tracer* const tr = tracer();
    util::WallTimer timer, integ_timer;

    const ArenaBounds<W> b = bind_arena(a);
    // Kills are only possible with an injector attached (without one the
    // launch throws kKernelTimeout instead); the buffer is reset per job so
    // note_kills counts only this job's trips.
    a.killed.assign(opts_.faults != nullptr ? n_groups : 0, 0);
    LaunchConfig swa_cfg;
    swa_cfg.grid_dim = n_groups;
    swa_cfg.record_metrics = opts_.record_metrics;
    swa_cfg.mode = opts_.mode;
    swa_cfg.faults = opts_.faults;
    swa_cfg.watchdog_phases = opts_.watchdog_phases;
    swa_cfg.stop = job.stop;
    swa_cfg.killed = opts_.faults != nullptr ? &a.killed : nullptr;
    swa_cfg.campaign = st.campaign;
    timer.reset();
    telemetry::Span swa_span(tr, "SWA", "device", telemetry::kTrackDevice);
    swa_span.arg("chunk", static_cast<std::int64_t>(job.chunk));
    swa_span.arg("blocks", static_cast<std::int64_t>(n_groups));
    st.run.stage_metrics[sw::PipelineStage::kSWA] = launch(
        swa_cfg,
        [&](std::size_t g, BlockRecorder& rec) {
          return detail::SwWavefrontKernel<W>(g, rec, consts_, m, n, b.x_hi,
                                              b.x_lo, b.y_hi, b.y_lo,
                                              b.slices);
        });
    swa_span.finish();
    st.run.timings.swa_ms = timer.elapsed_ms();

    // Canary comparison on the bit-sliced scores: the lane bits of a
    // canary must equal its source lane's in every slice word. Checked
    // before B2W so a B2W fault cannot masquerade as an SWA one.
    if (integ.enabled) {
      integ_timer.reset();
      if (!a.canary_src.empty()) {
        const std::size_t g = n_groups - 1;
        bool bad = false;
        for (std::size_t c = 0; c < a.canary_src.size(); ++c) {
          const std::size_t src_lane = a.canary_src[c] - g * kLanes;
          const std::size_t can_lane = st.count - g * kLanes + c;
          ++st.run.integrity_checks;
          for (unsigned k = 0; k < s_; ++k) {
            const W word = a.d_slices[g * s_ + k];
            if (((word >> src_lane) & W{1}) != ((word >> can_lane) & W{1})) {
              bad = true;
              break;
            }
          }
        }
        if (bad) note_fault(st.run, sw::PipelineStage::kSWA, g);
      }
      st.run.integrity_ms += integ_timer.elapsed_ms();
    }
    note_kills(st.run, a.killed);
  }

  // Stage 4+5: the B2W launch with its untranspose round-trip check, then
  // the G2H copy (copy faults, checksum) and telemetry absorption.
  void post(JobState<W>& st) {
    Arena<W>& a = arena_;
    const sw::ChunkJob& job = st.job;
    const std::size_t count = st.count;
    const std::size_t padded_count = st.padded_count;
    const std::size_t n_groups = st.n_groups;
    const IntegrityConfig& integ = opts_.integrity;
    telemetry::Tracer* const tr = tracer();
    util::WallTimer timer, integ_timer;

    BlockFaults g2h_faults;
    if (opts_.faults != nullptr)
      g2h_faults =
          opts_.faults->block_faults_at(st.campaign, detail::kG2hFaultBlock);

    const ArenaBounds<W> b = bind_arena(a);
    LaunchConfig b2w_cfg;
    b2w_cfg.grid_dim = n_groups;
    b2w_cfg.record_metrics = opts_.record_metrics;
    b2w_cfg.mode = opts_.mode;
    b2w_cfg.faults = opts_.faults;
    b2w_cfg.stop = job.stop;
    b2w_cfg.campaign = st.campaign;
    timer.reset();
    telemetry::Span b2w_span(tr, "B2W", "device", telemetry::kTrackDevice);
    b2w_span.arg("chunk", static_cast<std::int64_t>(job.chunk));
    b2w_span.arg("blocks", static_cast<std::int64_t>(n_groups));
    st.run.stage_metrics[sw::PipelineStage::kB2W] = launch(
        b2w_cfg,
        [&](std::size_t g, BlockRecorder& rec) {
          return detail::B2wKernel<W>(g, rec, score_plan_, s_, padded_count,
                                      b.slices, b.scores);
        });
    b2w_span.finish();
    st.run.timings.b2w_ms = timer.elapsed_ms();

    // Untranspose round-trip after B2W: redo each group's untranspose on
    // the host from the device score slices and compare the wordwise
    // scores.
    if (integ.enabled) {
      integ_timer.reset();
      const std::uint32_t mask =
          s_ >= 32 ? ~std::uint32_t{0} : ((std::uint32_t{1} << s_) - 1);
      for (std::size_t g = 0; g < n_groups; ++g) {
        std::array<W, kLanes> scratch{};
        for (unsigned k = 0; k < s_; ++k) scratch[k] = a.d_slices[g * s_ + k];
        score_plan_.apply(std::span<W>(scratch));
        const std::size_t first = g * kLanes;
        const std::size_t lanes_used =
            first < padded_count
                ? std::min<std::size_t>(kLanes, padded_count - first)
                : 0;
        ++st.run.integrity_checks;
        for (std::size_t lane = 0; lane < lanes_used; ++lane) {
          const std::uint32_t want =
              static_cast<std::uint32_t>(bitsim::get_limb(scratch[lane], 0)) &
              mask;
          if (a.d_scores[first + lane] != want) {
            note_fault(st.run, sw::PipelineStage::kB2W, g);
            break;
          }
        }
      }
      st.run.integrity_ms += integ_timer.elapsed_ms();
    }

    // G2H: canary lanes are dropped; only `count` scores come back.
    timer.reset();
    telemetry::Span g2h_span(tr, "G2H", "device", telemetry::kTrackDevice);
    g2h_span.arg("chunk", static_cast<std::int64_t>(job.chunk));
    st.run.scores.assign(
        a.d_scores.begin(),
        a.d_scores.begin() + static_cast<std::ptrdiff_t>(count));
    if (opts_.faults != nullptr) {
      for (std::uint32_t& w : st.run.scores) w = g2h_faults.mutate_copy(w);
    }
    g2h_span.arg("words", static_cast<std::int64_t>(count));
    g2h_span.finish();
    st.run.timings.g2h_ms = timer.elapsed_ms();
    if (opts_.record_metrics) {
      MetricTotals& t = st.run.stage_metrics[sw::PipelineStage::kG2H];
      t.global_reads += count;
      t.global_read_transactions +=
          (count * sizeof(std::uint32_t) + kSegmentBytes - 1) / kSegmentBytes;
    }

    if (integ.enabled) {
      integ_timer.reset();
      const std::uint64_t sent =
          util::fnv1a_bytes(a.d_scores.data(), count * sizeof(std::uint32_t));
      const std::uint64_t landed = util::fnv1a_span<std::uint32_t>(
          std::span<const std::uint32_t>(st.run.scores));
      ++st.run.integrity_checks;
      if (sent != landed)
        note_fault(st.run, sw::PipelineStage::kG2H, sw::StageFault::kNoBlock);
      st.run.integrity_ms += integ_timer.elapsed_ms();
    }

    absorb_device_run(opts_.telemetry, st.run);
  }

  EngineOptions opts_;
  // Shape caches, mutated only by ensure_shape.
  std::size_t m_ = 0, n_ = 0;
  unsigned s_ = 0;
  bool shaped_ = false;
  bitsim::PayloadTranspose<W> char_plan_, score_plan_;
  detail::SwConstants<W> consts_;
  Arena<W> arena_;
};

std::unique_ptr<CoreBase> make_core(sw::LaneWidth width,
                                    const EngineOptions& opts) {
  return sw::with_lane_word(
      width, [&]<class W>(std::type_identity<W>) -> std::unique_ptr<CoreBase> {
        return std::make_unique<Core<W>>(opts);
      });
}

// The engine's scheme rules: a valid scheme over the 2-bit DNA alphabet.
void validate_engine_scheme(const sw::ScoringScheme& scheme) {
  if (util::Status s = sw::validate_scheme(scheme, "EngineOptions::scheme");
      !s.ok())
    throw util::StatusError(std::move(s));
  if (scheme.matrix != nullptr)
    throw util::StatusError(util::Status::invalid_input(
        "EngineOptions::scheme.matrix scores an epsilon-bit protein "
        "alphabet; the device pipeline packs 2-bit DNA characters — "
        "screen such batches through sw::try_screen"));
}

// Table IV's wordwise device row for one validated, non-empty job under a
// params-expressible scheme: H2G, one SWA block per pair over plain
// integer cells, G2H, on fresh buffers.
GpuRunResult wordwise_stages(const sw::ChunkJob& job,
                             const EngineOptions& opts) {
  const auto params = opts.scheme.to_params().value();
  GpuRunResult result;
  const std::size_t count = job.xs.size();
  const std::size_t m = job.xs.front().size();
  const std::size_t n = job.ys.front().size();
  const std::uint64_t campaign = job_campaign(job);
  telemetry::ScopedTraceContext trace_ctx(job.trace_id);
  telemetry::Tracer* const tr =
      opts.telemetry != nullptr ? opts.telemetry->tracer() : nullptr;
  util::WallTimer timer;
  const std::vector<std::uint32_t> host_x = detail::pack_wordwise(job.xs, m);
  const std::vector<std::uint32_t> host_y = detail::pack_wordwise(job.ys, n);

  timer.reset();
  telemetry::Span h2g_span(tr, "H2G", "device", telemetry::kTrackDevice);
  std::vector<std::uint32_t> d_x(host_x);
  std::vector<std::uint32_t> d_y(host_y);
  h2g_span.finish();
  result.timings.h2g_ms = timer.elapsed_ms();

  std::vector<std::uint32_t> d_scores(count, 0);
  detail::Allocator alloc;
  const detail::Bound<std::uint32_t> b_x = alloc.alloc(d_x);
  const detail::Bound<std::uint32_t> b_y = alloc.alloc(d_y);
  const detail::Bound<std::uint32_t> b_scores = alloc.alloc(d_scores);

  std::vector<char> killed(opts.faults != nullptr ? count : 0, 0);
  LaunchConfig swa_cfg;
  swa_cfg.grid_dim = count;
  swa_cfg.record_metrics = opts.record_metrics;
  swa_cfg.mode = opts.mode;
  swa_cfg.faults = opts.faults;
  swa_cfg.watchdog_phases = opts.watchdog_phases;
  swa_cfg.stop = job.stop;
  swa_cfg.killed = opts.faults != nullptr ? &killed : nullptr;
  swa_cfg.campaign = campaign;
  timer.reset();
  telemetry::Span swa_span(tr, "SWA", "device", telemetry::kTrackDevice);
  swa_span.arg("blocks", static_cast<std::int64_t>(count));
  result.stage_metrics[sw::PipelineStage::kSWA] = launch(
      swa_cfg,
      [&](std::size_t pair, BlockRecorder& rec) {
        return detail::WordwiseKernel(pair, rec, params, m, n, b_x, b_y,
                                      b_scores);
      });
  swa_span.finish();
  result.timings.swa_ms = timer.elapsed_ms();

  timer.reset();
  telemetry::Span g2h_span(tr, "G2H", "device", telemetry::kTrackDevice);
  result.scores = d_scores;
  g2h_span.finish();
  result.timings.g2h_ms = timer.elapsed_ms();

  note_kills(result, killed);
  absorb_device_run(opts.telemetry, result);
  return result;
}

}  // namespace

struct PipelineEngine::Impl {
  EngineOptions opts;
  std::unique_ptr<CoreBase> core;

  // The scheme is checked and the width resolved once here (kAuto probe +
  // env override), so every chunk of the engine's lifetime runs at the
  // same width and caps() reports what will actually execute; invalid
  // schemes reject before any arena exists.
  explicit Impl(const EngineOptions& options) : opts(options) {
    validate_engine_scheme(opts.scheme);
    opts.width = sw::resolve_lane_width(options.width);
    core = make_core(opts.width, opts);
  }
};

PipelineEngine::PipelineEngine(const EngineOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

PipelineEngine::~PipelineEngine() = default;

sw::BackendCaps PipelineEngine::caps() const {
  sw::BackendCaps caps;
  caps.lane_width = impl_->opts.width;
  return caps;
}

sw::ChunkResult PipelineEngine::run(const sw::ChunkJob& job) {
  return to_chunk_result(run_stages(job));
}

GpuRunResult PipelineEngine::run_stages(const sw::ChunkJob& job) {
  validate_job(job, impl_->opts.scheme);
  if (job.xs.empty()) return {};
  return impl_->core->run_stages(job);
}

GpuRunResult PipelineEngine::run_wordwise(const sw::ChunkJob& job) {
  if (!impl_->opts.scheme.params_expressible())
    throw util::StatusError(util::Status::invalid_input(
        "EngineOptions::scheme is " + sw::scheme_name(impl_->opts.scheme) +
        "; the wordwise device row scores linear uniform schemes only"));
  validate_job(job, impl_->opts.scheme);
  if (job.xs.empty()) return {};
  return wordwise_stages(job, impl_->opts);
}

const EngineOptions& PipelineEngine::options() const { return impl_->opts; }

}  // namespace swbpbc::device
