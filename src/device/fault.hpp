// Deterministic device fault model.
//
// A real GPU fleet sees soft errors the simulator never produces on its
// own: flipped bits on memory reads, a missed __syncthreads() publishing
// stale values, a block that stalls past its deadline. FaultInjector makes
// those failure modes first-class and *reproducible*: every fault decision
// is drawn from a per-(campaign, block) xoshiro stream seeded from a
// single user seed, so a failing campaign replays bit-for-bit regardless
// of how blocks were scheduled across the host thread pool.
//
// Wiring: LaunchConfig carries an optional FaultInjector* and a campaign.
// device::launch derives one BlockFaults per block and attaches it to the
// block's BlockRecorder; GlobalSpan/SharedArray consult it on every
// access. Every retry draws a fresh campaign — the property the
// verify-quarantine-retry loop in sw::screen relies on: the engine derives
// each run's campaign from the job's (chunk, attempt) tag, and a retry is
// a new attempt.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/rng.hpp"

namespace swbpbc::device {

class FaultInjector;

/// Knobs of the fault model. All probabilities are per-event (per memory
/// load for flips, per block per launch for sync drops and stalls).
struct FaultConfig {
  std::uint64_t seed = 0;
  double flip_probability = 0.0;      // bit flip per instrumented load
  bool flip_global_loads = true;      // flips apply to global-memory loads
  bool flip_shared_loads = true;      // flips apply to shared-memory loads
  double drop_sync_probability = 0.0; // lose one phase's shared stores
  double stall_probability = 0.0;     // block stalls past the watchdog
  // Bit flip per word of a host<->device copy (the H2G / G2H steps).
  // Caught by the pipeline's copy checksums, not by the kernel recorders.
  double copy_flip_probability = 0.0;
  // Extra lock-step phases a stalled block would need; launch kills the
  // block when phases + stall exceed LaunchConfig::watchdog_phases.
  std::size_t stall_extra_phases = 1u << 20;
};

/// Plain snapshot of everything the injector has done so far.
struct FaultLog {
  std::uint64_t bit_flips = 0;       // individual load-value bit flips
  std::uint64_t syncs_dropped = 0;   // blocks that lost a phase's stores
  std::uint64_t watchdog_trips = 0;  // blocks killed by the watchdog

  [[nodiscard]] std::uint64_t total() const {
    return bit_flips + syncs_dropped + watchdog_trips;
  }
};

/// Per-block fault state, derived deterministically from
/// (seed, campaign, block). Default-constructed instances are inert.
class BlockFaults {
 public:
  BlockFaults() = default;

  [[nodiscard]] bool active() const { return owner_ != nullptr; }

  /// Extra phases this block would stall for (0 when no stall scheduled).
  [[nodiscard]] std::size_t stall_phases() const { return stall_phases_; }

  /// Called by launch once the block's phase count is known; picks the
  /// phase whose shared stores get dropped (when a drop is scheduled).
  void bind_num_phases(std::size_t num_phases);

  /// True when the store issued in `phase` must be silently discarded
  /// (the observable effect of the block missing that phase's sync).
  bool drop_store(std::size_t phase);

  template <typename T>
  T mutate_global_load(T v) {
    return flip_global_ ? maybe_flip(v) : v;
  }
  template <typename T>
  T mutate_shared_load(T v) {
    return flip_shared_ ? maybe_flip(v) : v;
  }
  /// Fault channel for host<->device copies (H2G/G2H): flips bits with
  /// copy_flip_probability per word. Inert unless that knob is set.
  template <typename T>
  T mutate_copy(T v) {
    if (!chance(copy_threshold_)) return v;
    record_flip();
    // Shift in T, not uint64_t: wide lane words have bit positions >= 64
    // (a 64-bit shift there would be UB). For builtin T the RNG draw
    // sequence and flipped bit are unchanged.
    constexpr unsigned kBits = sizeof(T) * 8;
    const T bit = static_cast<T>(T{1} << rng_.below(kBits));
    return static_cast<T>(v ^ bit);
  }

 private:
  friend class FaultInjector;
  static constexpr std::size_t kNoPhase = ~std::size_t{0};

  BlockFaults(FaultInjector* owner, std::uint64_t seed);

  bool chance(std::uint64_t threshold) {
    return threshold != 0 && rng_.next() < threshold;
  }

  template <typename T>
  T maybe_flip(T v) {
    if (!chance(flip_threshold_)) return v;
    record_flip();
    // See mutate_copy: the flipped bit index can exceed 63 for wide words.
    constexpr unsigned kBits = sizeof(T) * 8;
    const T bit = static_cast<T>(T{1} << rng_.below(kBits));
    return static_cast<T>(v ^ bit);
  }

  void record_flip();
  void record_sync_drop();

  FaultInjector* owner_ = nullptr;
  util::Xoshiro256 rng_{0};
  std::uint64_t flip_threshold_ = 0;  // P(flip) scaled to [0, 2^64)
  std::uint64_t copy_threshold_ = 0;  // P(copy flip) scaled to [0, 2^64)
  bool flip_global_ = false;
  bool flip_shared_ = false;
  bool drop_scheduled_ = false;
  bool drop_counted_ = false;
  std::size_t drop_phase_ = kNoPhase;
  std::size_t stall_phases_ = 0;
};

/// Seedable factory of per-block fault state plus a thread-safe log of
/// everything injected. Safe to share across concurrently running blocks.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config) : config_(config) {}

  [[nodiscard]] const FaultConfig& config() const { return config_; }

  /// Fault state for one block of a named campaign. The execution engine
  /// derives its campaign from (chunk, attempt), never from call order, so
  /// the draw a block observes does not depend on which chunks ran before
  /// it — the property that keeps a chunk's retry and its result
  /// reproducible under fault injection.
  [[nodiscard]] BlockFaults block_faults_at(std::uint64_t campaign,
                                            std::size_t block);

  /// Snapshot of the cumulative fault counters.
  [[nodiscard]] FaultLog log() const;

  void record_watchdog_trip() {
    watchdog_trips_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  friend class BlockFaults;

  FaultConfig config_;
  std::atomic<std::uint64_t> bit_flips_{0};
  std::atomic<std::uint64_t> syncs_dropped_{0};
  std::atomic<std::uint64_t> watchdog_trips_{0};
};

}  // namespace swbpbc::device
