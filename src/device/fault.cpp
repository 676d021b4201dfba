#include "device/fault.hpp"

namespace swbpbc::device {

namespace {

// Probability in [0, 1] -> uint64 threshold so `rng.next() < threshold`
// fires with that probability.
std::uint64_t probability_threshold(double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(p * 18446744073709551616.0);  // 2^64
}

}  // namespace

BlockFaults::BlockFaults(FaultInjector* owner, std::uint64_t seed)
    : owner_(owner), rng_(seed) {
  const FaultConfig& cfg = owner->config();
  flip_threshold_ = probability_threshold(cfg.flip_probability);
  copy_threshold_ = probability_threshold(cfg.copy_flip_probability);
  flip_global_ = cfg.flip_global_loads && flip_threshold_ != 0;
  flip_shared_ = cfg.flip_shared_loads && flip_threshold_ != 0;
  drop_scheduled_ = chance(probability_threshold(cfg.drop_sync_probability));
  if (chance(probability_threshold(cfg.stall_probability)))
    stall_phases_ = cfg.stall_extra_phases;
}

void BlockFaults::bind_num_phases(std::size_t num_phases) {
  if (drop_scheduled_ && num_phases > 0)
    drop_phase_ = static_cast<std::size_t>(rng_.below(num_phases));
}

bool BlockFaults::drop_store(std::size_t phase) {
  if (phase != drop_phase_ || drop_phase_ == kNoPhase) return false;
  if (!drop_counted_) {
    drop_counted_ = true;
    record_sync_drop();
  }
  return true;
}

void BlockFaults::record_flip() {
  owner_->bit_flips_.fetch_add(1, std::memory_order_relaxed);
}

void BlockFaults::record_sync_drop() {
  owner_->syncs_dropped_.fetch_add(1, std::memory_order_relaxed);
}

BlockFaults FaultInjector::block_faults_at(std::uint64_t campaign,
                                           std::size_t block) {
  // Expand (seed, campaign, block) into an independent, well-mixed stream
  // so fault decisions do not depend on block scheduling order.
  util::SplitMix64 mix(config_.seed);
  std::uint64_t s = mix.next();
  s ^= util::SplitMix64(campaign * 0x9e3779b97f4a7c15ULL).next();
  s ^= util::SplitMix64(static_cast<std::uint64_t>(block) + 1).next();
  return BlockFaults(this, s);
}

FaultLog FaultInjector::log() const {
  FaultLog log;
  log.bit_flips = bit_flips_.load(std::memory_order_relaxed);
  log.syncs_dropped = syncs_dropped_.load(std::memory_order_relaxed);
  log.watchdog_trips = watchdog_trips_.load(std::memory_order_relaxed);
  return log;
}

}  // namespace swbpbc::device
