#include "harness.hpp"

#include <map>
#include <stdexcept>
#include <utility>

#include "device/sw_kernels.hpp"
#include "encoding/random.hpp"
#include "sw/bpbc.hpp"
#include "sw/scalar.hpp"
#include "sw/wordwise.hpp"
#include "util/timer.hpp"

namespace swbpbc::bench {

Workload make_workload(std::size_t pairs, std::size_t m, std::size_t n,
                       std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Workload w;
  w.pairs = pairs;
  w.m = m;
  w.n = n;
  w.xs = encoding::random_sequences(rng, pairs, m);
  w.ys = encoding::random_sequences(rng, pairs, n);
  return w;
}

std::string impl_name(Impl impl) {
  switch (impl) {
    case Impl::kCpuBitwise32:
      return "CPU bitwise-32";
    case Impl::kCpuBitwise64:
      return "CPU bitwise-64";
    case Impl::kCpuBitwise128:
      return "CPU bitwise-128";
    case Impl::kCpuBitwise256:
      return "CPU bitwise-256";
    case Impl::kCpuBitwise512:
      return "CPU bitwise-512";
    case Impl::kCpuBitwiseScalarWide:
      return "CPU bitwise-scalar-wide";
    case Impl::kCpuWordwise:
      return "CPU wordwise-32";
    case Impl::kGpuBitwise32:
      return "GPUsim bitwise-32";
    case Impl::kGpuBitwise64:
      return "GPUsim bitwise-64";
    case Impl::kGpuBitwise256:
      return "GPUsim bitwise-256";
    case Impl::kGpuWordwise:
      return "GPUsim wordwise-32";
  }
  return "?";
}

namespace {

sw::LaneWidth bitwise_width(Impl impl) {
  switch (impl) {
    case Impl::kCpuBitwise32:
    case Impl::kGpuBitwise32:
      return sw::LaneWidth::k32;
    case Impl::kCpuBitwise128:
      return sw::LaneWidth::k128;
    case Impl::kCpuBitwise256:
    case Impl::kGpuBitwise256:
      return sw::LaneWidth::k256;
    case Impl::kCpuBitwise512:
      return sw::LaneWidth::k512;
    case Impl::kCpuBitwiseScalarWide:
      return sw::LaneWidth::kScalarWide;
    default:
      return sw::LaneWidth::k64;
  }
}

void verify_prefix(const Workload& w, const sw::ScoringScheme& scheme,
                   const std::vector<std::uint32_t>& scores) {
  const std::size_t check = std::min<std::size_t>(w.pairs, 4);
  for (std::size_t k = 0; k < check; ++k) {
    if (scores[k] != sw::scheme_max_score(w.xs[k], w.ys[k], scheme)) {
      throw std::runtime_error("benchmark implementation miscomputed pair " +
                               std::to_string(k));
    }
  }
}

}  // namespace

RowTimes run_impl(Impl impl, const Workload& w,
                  const sw::ScoringScheme& scheme, const RunOptions& run) {
  RowTimes row;
  switch (impl) {
    case Impl::kCpuBitwise32:
    case Impl::kCpuBitwise64:
    case Impl::kCpuBitwise128:
    case Impl::kCpuBitwise256:
    case Impl::kCpuBitwise512:
    case Impl::kCpuBitwiseScalarWide: {
      const sw::LaneWidth width = bitwise_width(impl);
      sw::PhaseTimings t;
      const auto scores = sw::bpbc_max_scores(
          w.xs, w.ys, scheme, width, bulk::Mode::kSerial,
          encoding::TransposeMethod::kPlanned, &t);
      verify_prefix(w, scheme, scores);
      row.w2b = t.w2b_ms;
      row.swa = t.swa_ms;
      row.b2w = t.b2w_ms;
      row.total = t.total_ms();
      return row;
    }
    case Impl::kCpuWordwise: {
      util::WallTimer timer;
      const auto scores = sw::wordwise_max_scores(
          w.xs, w.ys, scheme.to_params().value(), bulk::Mode::kSerial);
      row.swa = timer.elapsed_ms();
      verify_prefix(w, scheme, scores);
      row.total = row.swa;
      return row;
    }
    case Impl::kGpuBitwise32:
    case Impl::kGpuBitwise64:
    case Impl::kGpuBitwise256: {
      const sw::LaneWidth width = bitwise_width(impl);
      device::GpuRunOptions options;
      options.mode = bulk::Mode::kParallel;
      options.integrity.enabled = run.integrity;
      options.integrity.sample_every = run.integrity_sample_every;
      options.record_metrics = run.record_metrics;
      options.telemetry = run.telemetry;
      const auto result =
          device::gpu_bpbc_max_scores(w.xs, w.ys, scheme, width, options);
      verify_prefix(w, scheme, result.scores);
      row.h2g = result.timings.h2g_ms;
      row.w2b = result.timings.w2b_ms;
      row.swa = result.timings.swa_ms;
      row.b2w = result.timings.b2w_ms;
      row.g2h = result.timings.g2h_ms;
      row.total = result.timings.total_ms();
      if (run.integrity) {
        row.integrity = result.integrity_ms;
        row.total += result.integrity_ms;
      }
      if (run.record_metrics) {
        row.has_metrics = true;
        row.metrics = result.stage_metrics;
      }
      return row;
    }
    case Impl::kGpuWordwise: {
      device::GpuRunOptions options;
      options.mode = bulk::Mode::kParallel;
      options.record_metrics = run.record_metrics;
      options.telemetry = run.telemetry;
      const auto result = device::gpu_wordwise_max_scores(
          w.xs, w.ys, scheme.to_params().value(), options);
      verify_prefix(w, scheme, result.scores);
      row.h2g = result.timings.h2g_ms;
      row.swa = result.timings.swa_ms;
      row.g2h = result.timings.g2h_ms;
      row.total = result.timings.total_ms();
      if (run.record_metrics) {
        row.has_metrics = true;
        row.metrics = result.stage_metrics;
      }
      return row;
    }
  }
  throw std::logic_error("unknown implementation");
}

double gcups(const Workload& w, const RowTimes& row) {
  const double cells = static_cast<double>(w.pairs) *
                       static_cast<double>(w.m) * static_cast<double>(w.n);
  return cells / (row.total * 1e-3) / 1e9;
}

telemetry::RunReportRow report_row(Impl impl, const Workload& w,
                                   const RowTimes& row) {
  telemetry::RunReportRow out;
  out.impl = impl_name(impl);
  out.pairs = w.pairs;
  out.m = w.m;
  out.n = w.n;
  const std::pair<const char*, double> stages[] = {
      {"H2G", row.h2g}, {"W2B", row.w2b},  {"SWA", row.swa},
      {"B2W", row.b2w}, {"G2H", row.g2h},  {"INTG", row.integrity}};
  for (const auto& [name, ms] : stages) {
    if (ms >= 0.0) out.stages_ms[name] = ms;
  }
  out.total_ms = row.total;
  out.gcups = gcups(w, row);
  if (row.has_metrics) {
    for (std::size_t i = 0; i < sw::kNumPipelineStages; ++i) {
      const auto stage = static_cast<sw::PipelineStage>(i);
      const device::MetricTotals& t = row.metrics[stage];
      std::map<std::string, std::uint64_t> counters;
      const auto put = [&counters](const char* name, std::uint64_t v) {
        if (v != 0) counters[name] = v;
      };
      put("global_reads", t.global_reads);
      put("global_writes", t.global_writes);
      put("global_read_transactions", t.global_read_transactions);
      put("global_write_transactions", t.global_write_transactions);
      put("shared_accesses", t.shared_accesses);
      put("shared_bank_conflicts", t.shared_bank_conflicts);
      if (!counters.empty())
        out.stage_metrics[sw::stage_name(stage)] = std::move(counters);
    }
  }
  return out;
}

}  // namespace swbpbc::bench
