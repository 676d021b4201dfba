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

  // --- overlapped chunk execution (--overlap) ----------------------------
  // Compares the chunked screen three ways over one workload: the
  // PipelineEngine run serially (depth 1: persistent arenas, cached
  // transpose plans), the PipelineEngine overlapped across
  // --overlap-depth stream slots, and the host default sw::screen path
  // (no explicit backend). Scores must be bit-identical across all three.
  // --overlap-trace=path exports the overlapped run's Chrome trace with
  // the per-stream lanes (adjacent chunks' H2G/G2H under another's SWA).
  const std::string overlap_trace = opt.get("overlap-trace", "");
  if (opt.get_bool("overlap", false) || !overlap_trace.empty()) {
    const auto chunk_pairs = static_cast<std::size_t>(
        opt.get_int("chunk-pairs", static_cast<std::int64_t>(pairs) / 16));
    const auto depth = static_cast<std::size_t>(opt.get_int(
        "overlap-depth", 3));
    const auto n0 = static_cast<std::size_t>(n_list.front());
    const bench::Workload w = bench::make_workload(pairs, m, n0, 20260705);
    std::printf("\nOverlapped chunk engine: %zu pairs, m = %zu, n = %zu, "
                "chunk_pairs = %zu, depth = %zu\n",
                pairs, m, n0, chunk_pairs, depth);

    sw::ScreenConfig base;
    base.scheme = scheme;
    base.threshold = ~std::uint32_t{0};  // screen only; no traceback work
    base.width = sw::LaneWidth::k32;
    base.mode = bulk::Mode::kParallel;
    base.traceback = false;
    base.chunk_pairs = chunk_pairs;

    const auto timed = [&](const sw::ScreenConfig& cfg) {
      util::WallTimer timer;
      sw::ScreenReport rpt = sw::screen(w.xs, w.ys, cfg);
      return std::pair<double, sw::ScreenReport>(timer.elapsed_ms(),
                                                 std::move(rpt));
    };

    device::EngineOptions eng;
    eng.scheme = scheme;
    eng.width = base.width;
    eng.overlap_depth = depth;

    device::PipelineEngine serial_engine(eng);
    sw::ScreenConfig serial = base;
    serial.backend = &serial_engine;
    serial.overlap_depth = 1;
    const auto [serial_ms, serial_rpt] = timed(serial);

    telemetry::TelemetryConfig otcfg;
    otcfg.enabled = !overlap_trace.empty();
    telemetry::Telemetry osession(otcfg);
    eng.telemetry = osession.sink();
    device::PipelineEngine overlap_engine(eng);
    sw::ScreenConfig overlapped = base;
    overlapped.backend = &overlap_engine;
    overlapped.overlap_depth = depth;
    overlapped.telemetry = osession.sink();
    const auto [overlap_ms, overlap_rpt] = timed(overlapped);

    const auto [host_ms, host_rpt] = timed(base);

    if (serial_rpt.scores != overlap_rpt.scores ||
        serial_rpt.scores != host_rpt.scores) {
      std::fprintf(stderr, "FAIL: chunk execution modes disagree on "
                           "scores — bit-identity is broken\n");
      return 1;
    }
    util::TextTable otable({"chunk loop", "wall ms", "speedup vs depth 1"});
    const auto orow = [&](const char* name, double ms) {
      otable.add_row({name, util::TextTable::num(ms, 2),
                      util::TextTable::num(serial_ms / ms, 2)});
    };
    orow("engine, serial (depth 1)", serial_ms);
    orow("engine, overlapped", overlap_ms);
    orow("host default path (no device)", host_ms);
    std::fputs(otable.render().c_str(), stdout);
    std::printf("scores bit-identical across all three runs (%zu pairs)\n",
                serial_rpt.scores.size());
    if (!overlap_trace.empty()) {
      if (util::Status s = osession.tracer()->write_chrome_trace(
              overlap_trace);
          !s.ok()) {
        std::fprintf(stderr, "failed to write overlap trace: %s\n",
                     s.to_string().c_str());
        return 1;
      }
      std::printf("Overlap trace written to %s (stream.copy-in/compute/"
                  "copy-out tracks)\n", overlap_trace.c_str());
    }
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
