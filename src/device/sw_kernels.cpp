#include "device/sw_kernels.hpp"

#include <string>

namespace swbpbc::device {

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

}  // namespace swbpbc::device
