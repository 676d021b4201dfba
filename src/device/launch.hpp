// Lock-step kernel launcher — the simulator's analogue of a CUDA kernel
// launch.
//
// A kernel factory builds one kernel object per block; the launcher runs
// blocks concurrently on the host thread pool (streaming multiprocessors)
// and, within a block, advances all threads phase by phase. Every phase
// boundary is an implicit __syncthreads(): values a thread publishes in
// phase p are visible to every thread of the block from phase p+1 on.
// Within a phase, threads execute sequentially (SIMT-style), which makes
// the simulation deterministic and race-free by construction.
//
// Kernel requirements (duck-typed):
//   unsigned    block_dim()  const;
//   std::size_t num_phases() const;
//   void        step(std::size_t phase, unsigned tid);
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "bulk/executor.hpp"
#include "device/fault.hpp"
#include "device/metrics.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace swbpbc::device {

struct LaunchConfig {
  std::size_t grid_dim = 1;      // number of blocks
  bool record_metrics = false;   // enable access tracing
  bulk::Mode mode = bulk::Mode::kParallel;  // blocks across the pool
  // Optional fault model (see device/fault.hpp). When set, every block
  // gets a deterministic per-block fault stream attached to its recorder.
  FaultInjector* faults = nullptr;
  // Watchdog deadline in lock-step phases (0 = disabled). A block whose
  // phase count — including injected stall phases — exceeds the deadline
  // is killed: with an injector attached the kill is logged as a watchdog
  // trip and the block's outputs keep their launch-time contents (the
  // corruption the self-checking pipeline must catch); without an
  // injector a StatusError(kKernelTimeout) is thrown instead.
  std::size_t watchdog_phases = 0;
  // Cooperative stop, polled at every lock-step phase boundary. A
  // triggered stop aborts the launch with the stop's typed StatusError
  // (kCancelled / kDeadlineExceeded); blocks already past their last
  // phase are unaffected, so buffers are never torn mid-phase.
  const util::StopCondition* stop = nullptr;
  // When non-null (size >= grid_dim), watchdog-killed blocks set their
  // flag so the caller can attribute the stale outputs to a block.
  std::vector<char>* killed = nullptr;
  // Fault campaign of this launch: block fault streams are drawn from
  // block_faults_at(campaign, block). The caller names it — the engine
  // from the job's (chunk, attempt) tag — so the pattern never depends on
  // how launches interleave.
  std::uint64_t campaign = 0;
};

/// Launches `factory(block_idx, recorder)` for every block and returns the
/// aggregated memory metrics (all-zero when record_metrics is off).
template <typename Factory>
MetricTotals launch(const LaunchConfig& cfg, Factory&& factory) {
  std::vector<MetricTotals> per_block(cfg.grid_dim);
  bulk::for_each_instance(
      cfg.grid_dim, cfg.mode,
      [&](std::size_t b) {
        BlockRecorder recorder(cfg.record_metrics);
        BlockFaults faults;
        if (cfg.faults != nullptr) {
          faults = cfg.faults->block_faults_at(cfg.campaign, b);
          recorder.set_faults(&faults);
        }
        auto kernel = factory(b, recorder);
        const std::size_t phases = kernel.num_phases();
        const unsigned dim = kernel.block_dim();
        faults.bind_num_phases(phases);
        if (cfg.watchdog_phases != 0 &&
            phases + faults.stall_phases() > cfg.watchdog_phases) {
          if (cfg.faults != nullptr) {
            // Simulated kill: record the trip and leave the block's
            // outputs untouched (stale/zero), like a real watchdog reset
            // would.
            cfg.faults->record_watchdog_trip();
            if (cfg.killed != nullptr) (*cfg.killed)[b] = 1;
            per_block[b] = recorder.totals();
            return;
          }
          throw util::StatusError(util::Status::kernel_timeout(
              "block " + std::to_string(b) + " needs " +
              std::to_string(phases) + " phases, watchdog allows " +
              std::to_string(cfg.watchdog_phases)));
        }
        for (std::size_t phase = 0; phase < phases; ++phase) {
          if (cfg.stop != nullptr && cfg.stop->triggered())
            throw util::StatusError(cfg.stop->status(
                "device launch, block " + std::to_string(b) + " phase " +
                std::to_string(phase)));
          for (unsigned tid = 0; tid < dim; ++tid) kernel.step(phase, tid);
          recorder.end_phase();  // __syncthreads()
        }
        per_block[b] = recorder.totals();
      },
      cfg.stop);
  MetricTotals total;
  for (const auto& m : per_block) total.add(m);
  return total;
}

}  // namespace swbpbc::device
