#include "device/sw_kernels.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "device/launch.hpp"
#include "device/sw_stage_kernels.hpp"
#include "util/timer.hpp"

namespace swbpbc::device {

using encoding::Sequence;

void absorb_device_run(telemetry::Telemetry* telemetry,
                       const GpuRunResult& run) {
  if (telemetry == nullptr) return;
  telemetry::MetricsRegistry& reg = telemetry->registry();

  // A chunked screen under retry calls this once per device run, so the
  // string-keyed registry lookups for the unconditional metrics are
  // resolved once per (thread, registry) and reused; the registry id
  // guards against a stale cache when a new session starts (references
  // stay valid for the registry's lifetime).
  struct AbsorbCache {
    std::uint64_t registry_id = 0;
    telemetry::Histogram* stage_ms[sw::kNumPipelineStages] = {};
    telemetry::Counter* runs = nullptr;
    telemetry::Counter* hits = nullptr;
  };
  static thread_local AbsorbCache cache;
  if (cache.registry_id != reg.id()) {
    for (std::size_t i = 0; i < sw::kNumPipelineStages; ++i) {
      const auto stage = static_cast<sw::PipelineStage>(i);
      cache.stage_ms[i] = &reg.histogram(
          std::string("device.") + sw::stage_name(stage) + ".ms");
    }
    cache.runs = &reg.counter("device.runs");
    // Cache health for the RunReport: rebuilds count by-name lookups paid
    // (once per thread x registry), hits count absorptions that rode the
    // cached references.
    cache.hits = &reg.counter("telemetry.absorb_cache.hits");
    reg.counter("telemetry.absorb_cache.rebuilds").add(1);
    cache.registry_id = reg.id();
  } else {
    cache.hits->add(1);
  }

  const double stage_ms[sw::kNumPipelineStages] = {
      run.timings.h2g_ms, run.timings.w2b_ms, run.timings.swa_ms,
      run.timings.b2w_ms, run.timings.g2h_ms};
  for (std::size_t i = 0; i < sw::kNumPipelineStages; ++i) {
    const auto stage = static_cast<sw::PipelineStage>(i);
    cache.stage_ms[i]->observe(stage_ms[i]);
    const MetricTotals& t = run.stage_metrics[stage];
    if ((t.global_reads | t.global_writes | t.global_read_transactions |
         t.global_write_transactions | t.shared_accesses |
         t.shared_bank_conflicts) == 0) {
      continue;  // metrics recording off: skip the by-name lookups
    }
    const std::string prefix = std::string("device.") + sw::stage_name(stage);
    const auto count = [&reg, &prefix](const char* name, std::uint64_t v) {
      if (v != 0) reg.counter(prefix + name).add(v);
    };
    count(".global_reads", t.global_reads);
    count(".global_writes", t.global_writes);
    count(".global_read_transactions", t.global_read_transactions);
    count(".global_write_transactions", t.global_write_transactions);
    count(".shared_accesses", t.shared_accesses);
    count(".shared_bank_conflicts", t.shared_bank_conflicts);
  }
  cache.runs->add(1);
  if (run.integrity_checks != 0) {
    reg.counter("device.integrity.checks").add(run.integrity_checks);
    reg.histogram("device.integrity.ms").observe(run.integrity_ms);
  }
  if (!run.integrity_faults.empty())
    reg.counter("device.integrity.faults").add(run.integrity_faults.size());
  if (!run.status.ok()) reg.counter("device.watchdog_runs").add(1);
}

GpuRunResult gpu_wordwise_max_scores(std::span<const Sequence> xs,
                                     std::span<const Sequence> ys,
                                     const sw::ScoreParams& params,
                                     const GpuRunOptions& options) {
  if (xs.size() != ys.size())
    throw std::invalid_argument("pattern/text count mismatch");
  GpuRunResult result;
  if (xs.empty()) return result;
  const std::size_t count = xs.size();
  const std::size_t m = xs.front().size();
  const std::size_t n = ys.front().size();

  const std::uint64_t campaign =
      options.faults != nullptr ? options.faults->begin_run() : 0;

  util::WallTimer timer;
  telemetry::Tracer* const tr =
      options.telemetry != nullptr ? options.telemetry->tracer() : nullptr;
  const std::vector<std::uint32_t> host_x = detail::pack_wordwise(xs, m);
  const std::vector<std::uint32_t> host_y = detail::pack_wordwise(ys, n);

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

  std::vector<char> killed(options.faults != nullptr ? count : 0, 0);
  LaunchConfig swa_cfg;
  swa_cfg.grid_dim = count;
  swa_cfg.record_metrics = options.record_metrics;
  swa_cfg.mode = options.mode;
  swa_cfg.faults = options.faults;
  swa_cfg.watchdog_phases = options.watchdog_phases;
  swa_cfg.stop = options.stop;
  swa_cfg.killed = options.faults != nullptr ? &killed : nullptr;
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

  const auto kills = static_cast<std::size_t>(
      std::count(killed.begin(), killed.end(), char{1}));
  if (kills != 0)
    result.status = util::Status::kernel_timeout(
        std::to_string(kills) + " block(s) killed by the watchdog");
  absorb_device_run(options.telemetry, result);
  return result;
}

}  // namespace swbpbc::device
