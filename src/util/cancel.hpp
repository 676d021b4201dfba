// Cooperative cancellation and wall-clock deadlines for long-running work.
//
// A database-scale screening campaign can run for minutes; an operator (or
// a serving layer's request timeout) must be able to stop it without
// killing the process and without leaving torn state behind. The model is
// cooperative: workers poll a StopCondition at natural boundaries (chunk
// claims in ThreadPool::parallel_for, lock-step phase boundaries in
// device::launch, chunk boundaries in sw::screen) and unwind with a typed
// kCancelled / kDeadlineExceeded status, so every layer can return a
// well-formed partial result instead of a torn one.
#pragma once

#include <atomic>
#include <chrono>
#include <limits>
#include <string>

#include "util/status.hpp"

namespace swbpbc::util {

/// Thread-safe one-way cancel flag. The requesting thread calls cancel();
/// workers observe it through a StopCondition. Never resets.
class CancellationToken {
 public:
  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Monotonic wall-clock budget. Default-constructed deadlines never
/// expire, so an unset deadline costs one comparison and no clock read.
class Deadline {
 public:
  Deadline() = default;  // never expires

  static Deadline never() { return {}; }
  static Deadline after_ms(double ms) {
    Deadline d;
    d.at_ = Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(ms));
    return d;
  }

  [[nodiscard]] bool unlimited() const {
    return at_ == Clock::time_point::max();
  }
  [[nodiscard]] bool expired() const {
    return !unlimited() && Clock::now() >= at_;
  }
  /// Milliseconds left (infinity when unlimited, clamped at 0).
  [[nodiscard]] double remaining_ms() const {
    if (unlimited()) return std::numeric_limits<double>::infinity();
    const double ms =
        std::chrono::duration<double, std::milli>(at_ - Clock::now()).count();
    return ms > 0.0 ? ms : 0.0;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point at_ = Clock::time_point::max();
};

/// True for the codes a cooperative stop produces (as opposed to a fault).
constexpr bool is_stop_code(ErrorCode code) {
  return code == ErrorCode::kCancelled ||
         code == ErrorCode::kDeadlineExceeded;
}

/// Non-owning bundle of an optional token and deadline, threaded through
/// the execution layers. Polling is free when neither is armed.
class StopCondition {
 public:
  StopCondition() = default;
  StopCondition(const CancellationToken* token, Deadline deadline)
      : token_(token), deadline_(deadline) {}

  [[nodiscard]] bool armed() const {
    return token_ != nullptr || !deadline_.unlimited();
  }

  /// kOk while neither trigger fired; cancellation wins over the deadline
  /// when both have (an explicit cancel is the stronger signal).
  [[nodiscard]] ErrorCode poll() const {
    if (token_ != nullptr && token_->cancelled()) return ErrorCode::kCancelled;
    if (deadline_.expired()) return ErrorCode::kDeadlineExceeded;
    return ErrorCode::kOk;
  }

  [[nodiscard]] bool triggered() const { return poll() != ErrorCode::kOk; }

  /// Non-ok status naming the trigger; `where` names the interrupted work.
  /// Out of line (cancel.cpp), like StatusError's constructor: the
  /// per-ISA kernel TUs reach both through bulk::for_each_instance and
  /// must not emit their own copies (DESIGN.md decision 25).
  [[nodiscard]] Status status(const std::string& where) const;

 private:
  const CancellationToken* token_ = nullptr;
  Deadline deadline_;
};

}  // namespace swbpbc::util
