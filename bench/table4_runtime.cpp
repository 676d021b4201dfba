// Regenerates paper Table IV: running time (ms) of the Smith-Waterman
// phases for the bitwise (BPBC) and wordwise implementations on the CPU
// (single thread) and on the simulated GPU, across a sweep of text lengths
// n. Columns mirror the paper: W2B | SWA | B2W (+ H2G/G2H on the device).
//
// Defaults are laptop-scale (the paper used 32K pairs, m = 128,
// n = 1024..65536 on a GTX TITAN X); pass --full for the paper's sizes or
// override --pairs / --m / --n=comma,list. See EXPERIMENTS.md.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "device/engine.hpp"
#include "harness.hpp"
#include "sw/backend.hpp"
#include "sw/pipeline.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/checksum.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

// Stable fingerprint of the stringly config echo (order-independent: the
// map iterates sorted by key).
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

  util::Options opt(argc, argv);
  const bool full = opt.get_bool("full", false);
  const auto pairs = static_cast<std::size_t>(
      opt.get_int("pairs", full ? 32768 : 512));
  const auto m =
      static_cast<std::size_t>(opt.get_int("m", full ? 128 : 64));
  const auto n_list = opt.get_int_list(
      "n", full ? std::vector<std::int64_t>{1024, 2048, 4096, 8192, 16384,
                                            32768, 65536}
                : std::vector<std::int64_t>{256, 512, 1024});
  // The paper's linear (c1, c2, gap) scoring rules.
  sw::ScoringScheme scheme;
  scheme.match = static_cast<std::uint32_t>(opt.get_int("match", 2));
  scheme.mismatch = static_cast<std::uint32_t>(opt.get_int("mismatch", 1));
  scheme.gap_open = static_cast<std::uint32_t>(opt.get_int("gap", 1));
  bench::RunOptions run;
  run.integrity = opt.get_bool("integrity", false);
  run.integrity_sample_every =
      static_cast<std::size_t>(opt.get_int("integrity-sample", 16));

  // --json=path: export a machine-readable RunReport (rows + metrics
  // registry). The device runs record stage metrics and feed a telemetry
  // session so the report carries transaction counts and timing
  // histograms.
  const std::string json_path = opt.get("json", "");
  telemetry::TelemetryConfig tcfg;
  tcfg.enabled = !json_path.empty();
  telemetry::Telemetry session(tcfg);
  run.telemetry = session.sink();
  if (!json_path.empty()) run.record_metrics = true;

  telemetry::RunReport rep;
  rep.tool = "table4_runtime";
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
  rep.config["match"] = std::to_string(scheme.match);
  rep.config["mismatch"] = std::to_string(scheme.mismatch);
  rep.config["gap"] = std::to_string(scheme.gap_open);
  rep.config["integrity"] = run.integrity ? "1" : "0";

  std::printf("Table IV reproduction: running time in ms for the SWA, "
              "%zu pairs, m = %zu\n", pairs, m);
  std::printf("(CPU = single host thread; GPUsim = lock-step device "
              "simulator on the host pool)\n");
  if (run.integrity) {
    std::printf("(in-band stage integrity ON for the GPUsim rows: H2G/G2H "
                "checksums, transpose round trips sampled every %zu "
                "positions, SWA canary lanes — overhead in the INTG "
                "column)\n",
                run.integrity_sample_every);
  }
  std::printf("\n");

  // CPU bitwise rows cover the full lane-width ladder (the wide rows
  // dispatch simd_word<128/256/512>); the focused sweep lives in
  // ablation_lane_width.
  const Impl impls[] = {Impl::kCpuBitwise32,  Impl::kCpuBitwise64,
                        Impl::kCpuBitwise128, Impl::kCpuBitwise256,
                        Impl::kCpuBitwise512, Impl::kCpuWordwise,
                        Impl::kGpuBitwise32,  Impl::kGpuBitwise64,
                        Impl::kGpuBitwise256, Impl::kGpuWordwise};

  std::vector<std::string> header = {"implementation", "n",   "H2G", "W2B",
                                     "SWA",            "B2W", "G2H"};
  if (run.integrity) header.push_back("INTG");
  header.push_back("Total");
  util::TextTable table(header);
  const auto cell = [](double v) {
    return v < 0 ? std::string("-") : util::TextTable::num(v, 2);
  };
  for (const Impl impl : impls) {
    table.add_rule();
    for (const std::int64_t n : n_list) {
      const bench::Workload w = bench::make_workload(
          pairs, m, static_cast<std::size_t>(n), 20260705);
      const bench::RowTimes row = bench::run_impl(impl, w, scheme, run);
      if (!json_path.empty())
        rep.rows.push_back(bench::report_row(impl, w, row));
      std::vector<std::string> cells = {
          bench::impl_name(impl), std::to_string(n), cell(row.h2g),
          cell(row.w2b),          cell(row.swa),     cell(row.b2w),
          cell(row.g2h)};
      if (run.integrity) cells.push_back(cell(row.integrity));
      cells.push_back(util::TextTable::num(row.total, 2));
      table.add_row(cells);
      std::fflush(stdout);
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nShape checks vs the paper: bitwise beats wordwise on both "
              "platforms; SWA time scales linearly in n; W2B is a small "
              "fraction of total on the device. Absolute GPU numbers are "
              "simulator-scale (see DESIGN.md substitutions).\n");

  // --- engine vs host chunk loop (--engine-vs-host) ----------------------
  // Runs one chunked screen twice: on the device PipelineEngine as the
  // explicit backend (persistent arena, cached transpose plans) and on the
  // host default sw::screen path (no explicit backend). Scores must be
  // bit-identical; a disagreement exits 1.
  if (opt.get_bool("engine-vs-host", false)) {
    const auto chunk_pairs = static_cast<std::size_t>(
        opt.get_int("chunk-pairs", static_cast<std::int64_t>(pairs) / 16));
    const auto n0 = static_cast<std::size_t>(n_list.front());
    const bench::Workload w = bench::make_workload(pairs, m, n0, 20260705);
    std::printf("\nChunked screen, engine vs host: %zu pairs, m = %zu, "
                "n = %zu, chunk_pairs = %zu\n",
                pairs, m, n0, chunk_pairs);

    sw::ScreenConfig host;
    host.scheme = scheme;
    host.threshold = ~std::uint32_t{0};  // screen only; no traceback work
    host.width = sw::LaneWidth::k32;
    host.mode = bulk::Mode::kParallel;
    host.traceback = false;
    host.chunk_pairs = chunk_pairs;

    const auto timed = [&](const sw::ScreenConfig& cfg) {
      util::WallTimer timer;
      sw::ScreenReport rpt = sw::screen(w.xs, w.ys, cfg);
      return std::pair<double, sw::ScreenReport>(timer.elapsed_ms(),
                                                 std::move(rpt));
    };

    device::EngineOptions eng;
    eng.scheme = scheme;
    eng.width = host.width;
    device::PipelineEngine engine(eng);
    sw::ScreenConfig on_engine = host;
    on_engine.backend = &engine;
    const auto [engine_ms, engine_rpt] = timed(on_engine);
    const auto [host_ms, host_rpt] = timed(host);

    if (engine_rpt.scores != host_rpt.scores) {
      std::fprintf(stderr, "FAIL: engine and host screens disagree on "
                           "scores — bit-identity is broken\n");
      return 1;
    }
    util::TextTable etable({"chunk loop", "wall ms"});
    etable.add_row(
        {"device engine backend", util::TextTable::num(engine_ms, 2)});
    etable.add_row({"host default path (no device)",
                    util::TextTable::num(host_ms, 2)});
    std::fputs(etable.render().c_str(), stdout);
    std::printf("scores bit-identical across both runs (%zu pairs)\n",
                host_rpt.scores.size());
  }
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
