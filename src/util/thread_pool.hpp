// A small fixed-size worker pool with a blocking parallel_for.
//
// The BPBC "GPU" simulator (src/device) schedules CUDA-style blocks across
// this pool, and the bulk executor (src/bulk) uses parallel_for directly.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/cancel.hpp"
#include "util/status.hpp"

namespace swbpbc::util {

/// Thrown by parallel_for when more than one iteration threw: every
/// captured exception (up to a small cap) is retained so no failure is
/// silently discarded; what() concatenates their messages.
class AggregateError : public std::runtime_error {
 public:
  AggregateError(std::vector<std::exception_ptr> errors, std::size_t dropped);

  /// The captured exceptions, in capture order.
  [[nodiscard]] const std::vector<std::exception_ptr>& errors() const {
    return errors_;
  }
  /// Exceptions beyond the capture cap (counted, not retained).
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

 private:
  std::vector<std::exception_ptr> errors_;
  std::size_t dropped_;
};

/// Observer for pool task execution, installed process-wide via
/// ThreadPool::set_observer. The pool itself stays ignorant of the
/// telemetry layer; the telemetry session installs an adapter that turns
/// these callbacks into trace spans. With no observer installed the only
/// cost on the execution path is one relaxed atomic load per chunk.
class PoolObserver {
 public:
  /// `worker` value for chunks driven by the submitting thread itself.
  static constexpr unsigned kCallerThread = ~0u;

  virtual ~PoolObserver() = default;

  /// One claimed chunk [begin, end) ran between t0_us and t1_us (process
  /// monotonic clock, util::monotonic_us) on worker `worker`. Invoked
  /// after the chunk finishes, including when an iteration threw.
  virtual void on_chunk(std::size_t begin, std::size_t end,
                        std::uint64_t t0_us, std::uint64_t t1_us,
                        unsigned worker) = 0;
};

/// Largest SWBPBC_THREADS value accepted: far above any core count this
/// library targets, far below a thread count that exhausts the process.
inline constexpr std::size_t kMaxThreadCount = 1024;

/// Validates a SWBPBC_THREADS-style value without touching the process
/// environment: nullptr/empty means "not set" (nullopt); decimal digits
/// up to kMaxThreadCount are that thread count (0 is the serial pool);
/// anything else (a sign, spaces, trailing junk, a larger value) is a
/// typed kInvalidInput naming the variable and the value.
[[nodiscard]] Expected<std::optional<std::size_t>> parse_thread_count(
    const char* value);

/// Fixed-size thread pool. `n_threads == 0` degrades every operation to
/// serial execution on the calling thread (useful for deterministic tests).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t n_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 means serial mode).
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Runs `fn(i)` for every i in [begin, end). Blocks until all iterations
  /// finish. The calling thread participates. Iterations are handed out in
  /// contiguous chunks of `grain` to limit scheduling overhead. A single
  /// throwing iteration re-throws its exception on the caller; when several
  /// iterations throw concurrently they are aggregated into one
  /// AggregateError so no failure is lost. Cancellation/deadline statuses
  /// (kCancelled, kDeadlineExceeded) never aggregate: a real failure wins
  /// over concurrent stop unwinds, and pure stops collapse to one clean
  /// StatusError.
  ///
  /// `stop`, when non-null, is polled before every chunk claim; once it
  /// triggers, unclaimed iterations are skipped and the call throws the
  /// stop's StatusError (unless every iteration had already finished).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1,
                    const StopCondition* stop = nullptr);

  /// Process-wide pool sized from SWBPBC_THREADS (default:
  /// hardware_concurrency).
  static ThreadPool& global();

  /// Thread count the global pool would use: SWBPBC_THREADS as
  /// parse_thread_count reads it, else hardware_concurrency. Throws
  /// util::StatusError(kInvalidInput) if the variable is malformed.
  static std::size_t default_thread_count();

  /// Installs (or, with nullptr, removes) the process-wide execution
  /// observer. The observer must outlive every parallel_for that runs
  /// while it is installed. Applies to every pool in the process.
  static void set_observer(PoolObserver* observer);
  [[nodiscard]] static PoolObserver* observer();

 private:
  struct ForJob {
    std::size_t end = 0;
    std::size_t grain = 1;
    const std::function<void(std::size_t)>* fn = nullptr;
    const StopCondition* stop = nullptr;
    std::atomic<bool> stopped_early{false};  // stop skipped iterations
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> pending_workers{0};
    int users = 0;  // workers currently holding a pointer to this job
    std::mutex err_mutex;
    std::vector<std::exception_ptr> errors;  // capped at kMaxCapturedErrors
    std::size_t errors_dropped = 0;
    std::condition_variable done_cv;
    std::mutex done_mutex;
  };

  void worker_loop();
  static void drive(ForJob& job);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<ForJob*> queue_;
  bool stop_ = false;
};

}  // namespace swbpbc::util
