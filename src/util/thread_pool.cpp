#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "util/timer.hpp"

namespace swbpbc::util {

namespace {

// Process-wide execution observer (telemetry adapter); null by default so
// the un-instrumented execution path pays one relaxed load per chunk.
std::atomic<PoolObserver*> g_observer{nullptr};

// Worker index of the current thread; kCallerThread on non-pool threads
// (including the submitter driving its own job).
thread_local unsigned t_worker_index = PoolObserver::kCallerThread;

// Upper bound on retained exception_ptrs per parallel_for; beyond it only
// the drop count grows (unbounded retention could itself exhaust memory
// when every iteration of a large loop throws).
constexpr std::size_t kMaxCapturedErrors = 16;

std::string describe(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

// True for exceptions produced by a cooperative stop (kCancelled /
// kDeadlineExceeded). These are consequences of one stop request, not
// independent failures, so parallel_for collapses them instead of
// wrapping them into an AggregateError.
bool is_stop_exception(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const StatusError& e) {
    return is_stop_code(e.status().code());
  } catch (...) {
    return false;
  }
}

}  // namespace

AggregateError::AggregateError(std::vector<std::exception_ptr> errors,
                               std::size_t dropped)
    : std::runtime_error([&errors, dropped] {
        std::string msg = std::to_string(errors.size() + dropped) +
                          " parallel_for iterations threw:";
        for (const auto& ep : errors) msg += " [" + describe(ep) + "]";
        if (dropped != 0)
          msg += " (+" + std::to_string(dropped) + " not retained)";
        return msg;
      }()),
      errors_(std::move(errors)),
      dropped_(dropped) {}

// The ForJob declared in the header carries chunk-claiming state; completion
// is tracked via `pending_workers` (re-used as the remaining-iteration
// counter) plus `users` (workers still holding the job pointer). The
// submitting caller may only destroy the job once both reach zero.

ThreadPool::ThreadPool(std::size_t n_threads) {
  workers_.reserve(n_threads);
  for (std::size_t t = 0; t < n_threads; ++t) {
    workers_.emplace_back([this, t] {
      t_worker_index = static_cast<unsigned>(t);
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::drive(ForJob& job) {
  const auto retire = [&job](std::size_t n) {
    if (n == 0) return;
    if (job.pending_workers.fetch_sub(n) == n) {
      std::lock_guard<std::mutex> lk(job.done_mutex);
      job.done_cv.notify_all();
    }
  };
  for (;;) {
    if (job.stop != nullptr && job.stop->triggered()) {
      // Stop claiming and retire every unclaimed iteration so the
      // submitter's wait can complete; iterations already running in
      // other workers finish normally (no torn state).
      const std::size_t old = job.next.exchange(job.end);
      if (old < job.end) {
        job.stopped_early.store(true, std::memory_order_relaxed);
        retire(job.end - old);
      }
      break;
    }
    const std::size_t lo = job.next.fetch_add(job.grain);
    if (lo >= job.end) break;
    const std::size_t hi = std::min(lo + job.grain, job.end);
    PoolObserver* const obs = g_observer.load(std::memory_order_acquire);
    const std::uint64_t t0 = obs != nullptr ? monotonic_us() : 0;
    try {
      for (std::size_t i = lo; i < hi; ++i) (*job.fn)(i);
      if (obs != nullptr)
        obs->on_chunk(lo, hi, t0, monotonic_us(), t_worker_index);
    } catch (...) {
      if (obs != nullptr)
        obs->on_chunk(lo, hi, t0, monotonic_us(), t_worker_index);
      {
        std::lock_guard<std::mutex> lk(job.err_mutex);
        if (job.errors.size() < kMaxCapturedErrors)
          job.errors.push_back(std::current_exception());
        else
          ++job.errors_dropped;
      }
      // Stop handing out chunks and retire the iterations that will now
      // never be claimed, so the submitter's wait can complete.
      const std::size_t old = job.next.exchange(job.end);
      if (old < job.end) retire(job.end - old);
    }
    retire(hi - lo);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    ForJob* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      if (queue_.empty()) continue;
      job = queue_.front();
      std::lock_guard<std::mutex> jl(job->done_mutex);
      ++job->users;  // registered while still holding the pool mutex
    }
    drive(*job);
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (!queue_.empty() && queue_.front() == job) queue_.pop_front();
    }
    {
      // Signal the submitter that this worker no longer touches the job.
      std::lock_guard<std::mutex> lk(job->done_mutex);
      --job->users;
      job->done_cv.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn,
                              std::size_t grain,
                              const StopCondition* stop) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (grain == 0) grain = std::max<std::size_t>(1, n / (4 * (size() + 1)));
  if (workers_.empty() || n <= grain) {
    PoolObserver* const obs = g_observer.load(std::memory_order_acquire);
    const std::uint64_t t0 = obs != nullptr ? monotonic_us() : 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (stop != nullptr && stop->triggered())
        throw StatusError(stop->status("parallel_for"));
      fn(i);
    }
    if (obs != nullptr)
      obs->on_chunk(begin, end, t0, monotonic_us(), t_worker_index);
    return;
  }

  ForJob job;
  job.end = end;
  job.grain = grain;
  job.fn = &fn;
  job.stop = stop;
  job.next.store(begin);
  job.pending_workers.store(n);  // iterations still to finish

  {
    std::lock_guard<std::mutex> lk(mutex_);
    queue_.push_back(&job);
  }
  cv_.notify_all();

  drive(job);

  // Pull the job out of the queue so no new worker can pick it up, then wait
  // until every iteration finished before letting `job` go out of scope.
  {
    std::lock_guard<std::mutex> lk(mutex_);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (*it == &job) {
        queue_.erase(it);
        break;
      }
    }
  }
  {
    std::unique_lock<std::mutex> lk(job.done_mutex);
    job.done_cv.wait(lk, [&job] {
      return job.pending_workers.load() == 0 && job.users == 0;
    });
  }
  // Partition captured exceptions into real failures and stop unwinds
  // (several workers may all observe one cancellation; those are one
  // event, not independent errors to aggregate).
  std::vector<std::exception_ptr> real;
  std::exception_ptr stop_error;
  for (auto& ep : job.errors) {
    if (is_stop_exception(ep)) {
      if (stop_error == nullptr) stop_error = ep;
    } else {
      real.push_back(ep);
    }
  }
  if (!real.empty()) {
    if (real.size() == 1 && job.errors_dropped == 0)
      std::rethrow_exception(real.front());
    throw AggregateError(std::move(real), job.errors_dropped);
  }
  if (stop_error != nullptr) std::rethrow_exception(stop_error);
  if (job.stopped_early.load(std::memory_order_relaxed) && stop != nullptr)
    throw StatusError(stop->status("parallel_for"));
}

Expected<std::optional<std::size_t>> parse_thread_count(const char* value) {
  if (value == nullptr || *value == '\0') return std::optional<std::size_t>{};
  std::size_t n = 0;
  for (const char* p = value; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      return Status::invalid_input(std::string("SWBPBC_THREADS: \"") + value +
                                   "\" is not a thread count (digits only)");
    }
    n = n * 10 + static_cast<std::size_t>(*p - '0');
    if (n > kMaxThreadCount) {
      return Status::invalid_input(std::string("SWBPBC_THREADS: \"") + value +
                                   "\" exceeds the limit of " +
                                   std::to_string(kMaxThreadCount));
    }
  }
  return std::optional<std::size_t>(n);
}

std::size_t ThreadPool::default_thread_count() {
  if (const std::optional<std::size_t> n =
          parse_thread_count(std::getenv("SWBPBC_THREADS")).value()) {
    return *n;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

void ThreadPool::set_observer(PoolObserver* observer) {
  g_observer.store(observer, std::memory_order_release);
}

PoolObserver* ThreadPool::observer() {
  return g_observer.load(std::memory_order_acquire);
}

}  // namespace swbpbc::util
