#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "encoding/batch.hpp"
#include "ledger.hpp"
#include "util/timer.hpp"

namespace ledger {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double windowed_quantile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const auto window = std::max<std::size_t>(
      kMinWindow, static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q))));
  const std::size_t windows = std::max<std::size_t>(1, values.size() / window);
  if (values.size() < window)
    std::fprintf(stderr,
                 "warning: p%g keeps fewer than 10 of %zu samples beyond it\n",
                 q * 100.0, values.size());
  const std::size_t per = values.size() / windows;
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(w * per);
    const auto last = w + 1 == windows
                          ? values.end()
                          : first + static_cast<std::ptrdiff_t>(per);
    per_window.push_back(quantile(std::vector<double>(first, last), q));
  }
  return quantile(per_window, kSlowerState);
}

double windowed_rate(const std::vector<double>& work,
                     const std::vector<double>& busy_ms) {
  std::vector<double> rates;
  for (std::size_t first = 0; first + kMinWindow <= work.size();
       first += kMinWindow) {
    double done = 0.0, ms = 0.0;
    for (std::size_t i = first; i < first + kMinWindow; ++i) {
      done += work[i];
      ms += busy_ms[i];
    }
    rates.push_back(done / (ms / 1e3));
  }
  if (rates.empty()) {
    double done = 0.0, ms = 0.0;
    for (std::size_t i = 0; i < work.size(); ++i) {
      done += work[i];
      ms += busy_ms[i];
    }
    return ms > 0.0 ? done / (ms / 1e3) : 0.0;
  }
  return quantile(rates, 1.0 - kSlowerState);
}

void declare_per_layer(Result& result) {
  static const char* const kLayers[][2] = {
      {"bench.sched_lag_p99_ms", "ms"},
      {"bench.unattributed_frac", "ratio"},
      {"service.codec.encode_us", "us"},
      {"service.codec.decode_us", "us"},
      {"service.recv_wait_us", "us"},
      {"service.admit_us", "us"},
      {"service.queue_wait_ms.p50", "ms"},
      {"service.queue_wait_ms.p99", "ms"},
      {"service.plan_batch_us", "us"},
      {"service.batch_pairs", "count"},
      {"service.lane_fill", "ratio"},
      {"service.compute_ms", "ms"},
      {"service.response_us", "us"},
      {"service.reject_frac", "ratio"},
      {"service.journal.replay_ms", "ms"},
      {"device.h2g_ms", "ms"},
      {"device.w2b_ms", "ms"},
      {"device.swa_ms", "ms"},
      {"device.b2w_ms", "ms"},
      {"device.g2h_ms", "ms"},
      {"encoding.w2b_ns_per_pair", "ns"},
      {"sw.w2b_ms", "ms"},
      {"sw.swa_ms", "ms"},
      {"sw.b2w_ms", "ms"},
      {"sw.traceback_ms", "ms"},
      {"sw.swa_ns_per_cell", "ns"},
      {"sw.scheme.swa_ns_per_cell", "ns"},
      {"sw.scheme.lane_fill", "ratio"},
      {"sw.striped.ns_per_cell", "ns"},
      {"sw.striped.profile_ms", "ms"},
      {"sw.striped.profile_hit_frac", "ratio"},
      {"sw.dispatch.bpbc_frac", "ratio"},
      {"sw.dispatch.regret", "ratio"},
      {"sw.dispatch.model_residual_p50", "ratio"},
      {"db.build_ms", "ms"},
      {"db.open_ms", "ms"},
      {"db.shards_served", "count"},
      {"db.shards_quarantined", "count"},
      {"telemetry.overhead_frac", "ratio"},
      {"telemetry.trace_dropped", "count"},
  };
  for (const auto& layer : kLayers) result.set(layer[0], 0.0, layer[1]);
}

void report_phases(const std::vector<Phase>& phases, Result& result) {
  for (const Phase& p : phases) {
    std::printf("phase %-16s sent=%llu succeeded=%llu failed=%llu\n",
                p.name.c_str(), static_cast<unsigned long long>(p.sent),
                static_cast<unsigned long long>(p.succeeded),
                static_cast<unsigned long long>(p.failed));
    result.attempted += p.sent;
    result.failed += p.failed;
  }
}

double dna_w2b_ns_per_pair(const std::vector<swbpbc::encoding::Sequence>& seqs) {
  std::vector<double> per_pair;
  for (int r = 0; r < 15; ++r) {
    swbpbc::util::WallTimer timer;
    auto batch = swbpbc::encoding::try_transpose_strings<std::uint64_t>(seqs);
    const double ns = timer.elapsed_ms() * 1e6;
    if (!batch.has_value())
      throw std::runtime_error("W2B: " + batch.status().to_string());
    per_pair.push_back(ns / static_cast<double>(seqs.size()));
  }
  return quantile(per_pair, 0.5);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void bench_span(swbpbc::telemetry::Tracer* tracer, const char* name,
                std::uint64_t ts_us, std::uint64_t end_us,
                std::uint64_t trace_id) {
  if (tracer == nullptr) return;
  swbpbc::telemetry::TraceEvent e;
  e.name = name;
  e.cat = "bench";
  e.ts_us = ts_us;
  e.dur_us = end_us >= ts_us ? end_us - ts_us : 0;
  e.track = kTrackBench;
  e.trace_id = trace_id;
  tracer->record(e);
}

}  // namespace ledger
