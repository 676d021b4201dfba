// Lane-width ablation: the wide-lane SIMD BPBC tentpole measured head to
// head. One workload is screened at every dispatchable CPU lane width —
// 32/64 builtin words and simd_word<128/256/512> — with full score-vector
// bit-identity checked against the 64-bit baseline on every run. The
// table reports per-phase times, SWA-phase GCUPS (per-instance
// throughput: wider words carry more lanes per word-op, so the
// whole-batch SWA time should fall), and the SWA speed-up vs the uint64
// baseline; its "kernel" column names the build each width ran (the
// 256/512 rows run the AVX2/AVX-512 kernel TUs when the CPU has them,
// DESIGN.md decision 25). See EXPERIMENTS.md for measured numbers.
//
//   ./ablation_lane_width [--pairs=N] [--m=M] [--n=N] [--reps=R]
//                         [--json=path] [--affine]
//
// --reps takes the best of R runs per width (single-core hosts are
// noisy). --json writes a RunReport (BENCH_lane_width.json in
// EXPERIMENTS.md) whose config records the auto-resolved width and the
// shared score fingerprint. --affine appends a second width sweep of the
// Gotoh affine-gap circuit (ScoringScheme, open 3 / extend 1) over the
// same workload, with its own 64-bit baseline and bit-identity gate.
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "sw/lane.hpp"
#include "sw/scheme_aligner.hpp"
#include "sw/scoring.hpp"
#include "telemetry/run_report.hpp"
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
      argc, argv, {"affine", "json", "m", "n", "pairs", "reps"});
  const auto pairs =
      static_cast<std::size_t>(opt.get_int("pairs", 1024));
  const auto m = static_cast<std::size_t>(opt.get_int("m", 64));
  const auto n = static_cast<std::size_t>(opt.get_int("n", 1024));
  const auto reps = static_cast<std::size_t>(opt.get_int("reps", 3));
  const sw::ScoringScheme linear;  // 2/1/1
  const bench::Workload w = bench::make_workload(pairs, m, n, 20260807);

  const sw::LaneWidth auto_width =
      sw::resolve_lane_width(sw::LaneWidth::kAuto);
  const auto isa_of = [](sw::LaneWidth width) {
    return sw::isa_name(sw::kernel_isa(width, sw::host_cpu_features()));
  };
  std::printf("Lane-width ablation: %zu pairs, m = %zu, n = %zu, best of "
              "%zu reps (kAuto resolves to %s, kernel %s, on this host)\n\n",
              pairs, m, n, reps, sw::lane_width_name(auto_width),
              isa_of(auto_width));

  struct Row {
    Impl impl;
    sw::LaneWidth width;
  };
  // k64 runs first so every other width's scores can be diffed against
  // the captured baseline; rows are re-sorted for display below.
  const Row rows[] = {
      {Impl::kCpuBitwise64, sw::LaneWidth::k64},
      {Impl::kCpuBitwise32, sw::LaneWidth::k32},
      {Impl::kCpuBitwise128, sw::LaneWidth::k128},
      {Impl::kCpuBitwise256, sw::LaneWidth::k256},
      {Impl::kCpuBitwise512, sw::LaneWidth::k512},
  };

  telemetry::RunReport rep;
  rep.tool = "ablation_lane_width";
  rep.config["pairs"] = std::to_string(pairs);
  rep.config["m"] = std::to_string(m);
  rep.config["n"] = std::to_string(n);
  rep.config["reps"] = std::to_string(reps);
  rep.config["auto_resolves"] = sw::lane_width_name(auto_width);
  rep.config["kernel_isa"] = isa_of(auto_width);

  // The 64-bit baseline runs first: its scores anchor the bit-identity
  // gate and its SWA time anchors the speed-up column.
  std::vector<std::uint32_t> baseline_scores;
  double baseline_swa = 0.0;

  util::TextTable table({"lane word", "kernel", "W2B", "SWA", "B2W",
                         "Total", "SWA GCUPS", "SWA speedup vs 64"});
  const double cells = static_cast<double>(pairs) *
                       static_cast<double>(m) * static_cast<double>(n);

  std::vector<std::pair<Row, bench::RowTimes>> measured;
  for (const Row& row : rows) {
    bench::RowTimes best;
    for (std::size_t r = 0; r < reps; ++r) {
      sw::PhaseTimings t;
      const auto scores =
          sw::try_scheme_max_scores(w.xs, w.ys, linear, row.width,
                                    bulk::Mode::kSerial,
                                    encoding::TransposeMethod::kPlanned, &t)
              .value();
      if (row.width == sw::LaneWidth::k64 && baseline_scores.empty()) {
        baseline_scores = scores;
      } else if (!baseline_scores.empty() && scores != baseline_scores) {
        std::fprintf(stderr,
                     "FAIL: width %s scores differ from the 64-bit "
                     "baseline — bit-identity is broken\n",
                     sw::lane_width_name(row.width));
        return 1;
      }
      if (r == 0 || t.swa_ms < best.swa) {
        best.w2b = t.w2b_ms;
        best.swa = t.swa_ms;
        best.b2w = t.b2w_ms;
        best.total = t.total_ms();
      }
    }
    measured.emplace_back(row, best);
    if (row.width == sw::LaneWidth::k64) baseline_swa = best.swa;
  }
  // Display in lane-width order (32 first), not measurement order.
  std::swap(measured[0], measured[1]);

  for (const auto& [row, best] : measured) {
    table.add_row({bench::impl_name(row.impl), isa_of(row.width),
                   util::TextTable::num(best.w2b, 2),
                   util::TextTable::num(best.swa, 2),
                   util::TextTable::num(best.b2w, 2),
                   util::TextTable::num(best.total, 2),
                   util::TextTable::num(cells / (best.swa * 1e-3) / 1e9, 3),
                   util::TextTable::num(baseline_swa / best.swa, 2)});
    rep.rows.push_back(bench::report_row(row.impl, w, best));
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nscores bit-identical across all %zu widths (%zu pairs, "
              "fingerprint %llu)\n",
              std::size(rows), baseline_scores.size(),
              static_cast<unsigned long long>(
                  util::fnv1a_span<std::uint32_t>(baseline_scores)));

  // --affine: the Gotoh circuit over the same workload. Three bit-sliced
  // chains (H/E/F) instead of one, so per-width cost roughly triples —
  // the interesting number is whether the wide-word speedup survives.
  std::vector<std::uint32_t> affine_baseline;
  if (opt.has("affine")) {
    sw::ScoringScheme scheme;
    scheme.gap_model = sw::GapModel::kAffine;
    scheme.gap_open = 3;
    scheme.gap_extend = 1;

    double affine_baseline_swa = 0.0;
    util::TextTable affine_table({"lane word (affine)", "kernel", "W2B",
                                  "SWA", "B2W", "Total", "SWA GCUPS",
                                  "SWA speedup vs 64"});
    std::printf("\nAffine (Gotoh) sweep: %s, open %u / extend %u\n\n",
                sw::scheme_name(scheme).c_str(), scheme.gap_open,
                scheme.gap_extend);
    for (const Row& row : rows) {
      bench::RowTimes best;
      for (std::size_t r = 0; r < reps; ++r) {
        sw::PhaseTimings t;
        const auto scores = sw::try_scheme_max_scores(
            w.xs, w.ys, scheme, row.width, bulk::Mode::kSerial,
            encoding::TransposeMethod::kPlanned, &t);
        if (!scores.has_value()) {
          std::fprintf(stderr, "affine width %s rejected: %s\n",
                       sw::lane_width_name(row.width),
                       scores.status().to_string().c_str());
          return 1;
        }
        if (row.width == sw::LaneWidth::k64 && affine_baseline.empty()) {
          affine_baseline = *scores;
        } else if (!affine_baseline.empty() && *scores != affine_baseline) {
          std::fprintf(stderr,
                       "FAIL: affine width %s scores differ from the "
                       "64-bit baseline — bit-identity is broken\n",
                       sw::lane_width_name(row.width));
          return 1;
        }
        if (r == 0 || t.swa_ms < best.swa) {
          best.w2b = t.w2b_ms;
          best.swa = t.swa_ms;
          best.b2w = t.b2w_ms;
          best.total = t.total_ms();
        }
      }
      if (row.width == sw::LaneWidth::k64) affine_baseline_swa = best.swa;
      affine_table.add_row(
          {bench::impl_name(row.impl), isa_of(row.width),
           util::TextTable::num(best.w2b, 2),
           util::TextTable::num(best.swa, 2),
           util::TextTable::num(best.b2w, 2),
           util::TextTable::num(best.total, 2),
           util::TextTable::num(cells / (best.swa * 1e-3) / 1e9, 3),
           affine_baseline_swa > 0.0
               ? util::TextTable::num(affine_baseline_swa / best.swa, 2)
               : "--"});
      telemetry::RunReportRow arow = bench::report_row(row.impl, w, best);
      arow.impl += " affine";
      rep.rows.push_back(arow);
    }
    std::fputs(affine_table.render().c_str(), stdout);
    std::printf("\naffine scores bit-identical across all %zu widths "
                "(fingerprint %llu)\n",
                std::size(rows),
                static_cast<unsigned long long>(
                    util::fnv1a_span<std::uint32_t>(affine_baseline)));
  }

  const std::string json_path = opt.get("json", "");
  if (!json_path.empty()) {
    rep.config["scores_fnv"] = std::to_string(
        util::fnv1a_span<std::uint32_t>(baseline_scores));
    if (!affine_baseline.empty()) {
      rep.config["affine"] = "open 3 / extend 1";
      rep.config["affine_scores_fnv"] = std::to_string(
          util::fnv1a_span<std::uint32_t>(affine_baseline));
    }
    rep.config_fingerprint = config_fingerprint(rep.config);
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
