// Regenerates paper Table V: throughput in GCUPS (billion cell updates per
// second) and the CPU -> GPU speed-up factor for the BPBC Smith-Waterman,
// using the best word size per platform (the paper found 64-bit best on
// the CPU and 32-bit best on its GPU; we measure the full lane-width
// ladder — 32/64 plus the wide SIMD 128/256/512 words — and report the
// winners, which may differ on the simulated device — see EXPERIMENTS.md).
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/checksum.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace {

std::uint64_t config_fingerprint(
    const std::map<std::string, std::string>& config) {
  std::uint64_t h = swbpbc::util::kFnvOffset;
  for (const auto& [k, v] : config) {
    h = swbpbc::util::fnv1a_bytes(k.data(), k.size(), h);
    h = swbpbc::util::fnv1a_bytes(v.data(), v.size(), h);
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace swbpbc;
  using bench::Impl;

  const util::Options opt = util::Options::parse_or_exit(
      argc, argv, {"full", "json", "m", "n", "pairs"});
  const bool full = opt.get_bool("full", false);
  const auto pairs = static_cast<std::size_t>(
      opt.get_int("pairs", full ? 32768 : 512));
  const auto m =
      static_cast<std::size_t>(opt.get_int("m", full ? 128 : 64));
  const auto n_list = opt.get_int_list(
      "n", full ? std::vector<std::int64_t>{1024, 2048, 4096, 8192, 16384,
                                            32768, 65536}
                : std::vector<std::int64_t>{256, 512, 1024});
  const sw::ScoringScheme scheme;  // 2/1/1 linear

  const std::string json_path = opt.get("json", "");
  telemetry::TelemetryConfig tcfg;
  tcfg.enabled = !json_path.empty();
  telemetry::Telemetry session(tcfg);
  bench::RunOptions run;
  run.telemetry = session.sink();
  run.record_metrics = !json_path.empty();

  telemetry::RunReport rep;
  rep.tool = "table5_gcups";
  rep.config["pairs"] = std::to_string(pairs);
  rep.config["m"] = std::to_string(m);
  {
    std::string ns;
    for (const std::int64_t n : n_list) {
      if (!ns.empty()) ns += ',';
      ns += std::to_string(n);
    }
    rep.config["n"] = ns;
  }

  std::printf("Table V reproduction: GCUPS and speed-up for the SWA using "
              "BPBC, %zu pairs, m = %zu\n", pairs, m);
  std::printf("(best word size per platform, chosen by measurement)\n\n");

  util::TextTable table({"n", "CPU GCUPS", "CPU word", "GPUsim GCUPS",
                         "GPUsim word", "Speed-up"});
  for (const std::int64_t n : n_list) {
    const bench::Workload w =
        bench::make_workload(pairs, m, static_cast<std::size_t>(n),
                             20260705);
    // "Best word size per platform" now ranges over the wide SIMD lanes
    // too: the CPU candidates climb the 32..512 ladder and the simulated
    // device adds a 256-lane configuration.
    const std::pair<Impl, const char*> cpu_candidates[] = {
        {Impl::kCpuBitwise32, "32"},   {Impl::kCpuBitwise64, "64"},
        {Impl::kCpuBitwise128, "128"}, {Impl::kCpuBitwise256, "256"},
        {Impl::kCpuBitwise512, "512"}};
    const std::pair<Impl, const char*> gpu_candidates[] = {
        {Impl::kGpuBitwise32, "32"},
        {Impl::kGpuBitwise64, "64"},
        {Impl::kGpuBitwise256, "256"}};
    const auto best = [&](std::span<const std::pair<Impl, const char*>>
                              candidates) {
      bench::RowTimes best_row;
      const char* best_word = "?";
      bool first = true;
      for (const auto& [impl, word] : candidates) {
        const auto row = bench::run_impl(impl, w, scheme, run);
        if (!json_path.empty())
          rep.rows.push_back(bench::report_row(impl, w, row));
        if (first || row.total < best_row.total) {
          best_row = row;
          best_word = word;
          first = false;
        }
      }
      return std::pair<bench::RowTimes, const char*>(best_row, best_word);
    };
    const auto [cpu, cpu_word] = best(cpu_candidates);
    const auto [gpu, gpu_word] = best(gpu_candidates);
    table.add_row({std::to_string(n),
                   util::TextTable::num(bench::gcups(w, cpu), 3),
                   cpu_word,
                   util::TextTable::num(bench::gcups(w, gpu), 3),
                   gpu_word,
                   util::TextTable::num(cpu.total / gpu.total, 2)});
    std::fflush(stdout);
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nPaper reference (GTX TITAN X vs one Core i7-6700 thread): "
              "CPU ~0.76 GCUPS, GPU 1877-2200 GCUPS, speed-up 447-524x. "
              "Our device is simulated on host cores, so the speed-up is "
              "bounded by the host's core count.\n");
  if (!json_path.empty()) {
    rep.config_fingerprint = config_fingerprint(rep.config);
    rep.metrics = session.registry().snapshot();
    if (util::Status s = telemetry::write_run_report(rep, json_path);
        !s.ok()) {
      std::fprintf(stderr, "failed to write run report: %s\n",
                   s.to_string().c_str());
      return 1;
    }
    std::printf("Run report written to %s\n", json_path.c_str());
  }
  return 0;
}
