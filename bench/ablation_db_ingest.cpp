// Database-store ingest ablation: the same screening workload scored from
// the in-memory W2B path and from the pre-transposed store (mmap
// zero-copy), head to head at every wide lane width. The store holds the
// database side already bit-sliced, so serving pays W2B only for the
// query side — the W2B column should collapse while SWA stays flat, and
// the score vectors must stay bit-identical (gated on every run; a
// divergence is a hard failure).
//
//   ./ablation_db_ingest [--pairs=N] [--m=M] [--n=N] [--reps=R]
//                        [--db-path=path] [--json=path]
//
// Each db rep opens a fresh reader, so first-touch checksum verification
// is inside the measured serve (the honest cost of integrity). --json
// writes a RunReport (BENCH_db_ingest.json in EXPERIMENTS.md).
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "db/builder.hpp"
#include "db/reader.hpp"
#include "harness.hpp"
#include "sw/lane.hpp"
#include "sw/pipeline.hpp"
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

  const util::Options opt = util::Options::parse_or_exit(
      argc, argv, {"db-path", "json", "m", "n", "pairs", "reps"});
  const auto pairs = static_cast<std::size_t>(opt.get_int("pairs", 1024));
  const auto m = static_cast<std::size_t>(opt.get_int("m", 64));
  const auto n = static_cast<std::size_t>(opt.get_int("n", 1024));
  const auto reps = static_cast<std::size_t>(opt.get_int("reps", 3));
  const std::string db_path = opt.get("db-path", "bench_db_ingest.swdb");
  const sw::ScoringScheme scheme;  // 2/1/1 linear
  const bench::Workload w = bench::make_workload(pairs, m, n, 20260808);

  if (util::Status s = db::build_database(w.ys, db_path); !s.ok()) {
    std::fprintf(stderr, "store build failed: %s\n", s.to_string().c_str());
    return 1;
  }
  std::printf("DB ingest ablation: %zu pairs, m = %zu, n = %zu, best of "
              "%zu reps; store %s (%zu shards)\n\n",
              pairs, m, n, reps, db_path.c_str(), (pairs + 63) / 64);

  const sw::LaneWidth widths[] = {sw::LaneWidth::k64, sw::LaneWidth::k128,
                                  sw::LaneWidth::k256, sw::LaneWidth::k512};

  telemetry::RunReport rep;
  rep.tool = "ablation_db_ingest";
  rep.config["pairs"] = std::to_string(pairs);
  rep.config["m"] = std::to_string(m);
  rep.config["n"] = std::to_string(n);
  rep.config["reps"] = std::to_string(reps);

  util::TextTable table({"lane word", "source", "W2B", "SWA", "B2W",
                         "Total", "W2B speedup (db)"});
  std::vector<std::uint32_t> baseline_scores;

  for (const sw::LaneWidth width : widths) {
    sw::PhaseTimings mem_best, db_best;
    for (const bool use_db : {false, true}) {
      sw::PhaseTimings best;
      for (std::size_t r = 0; r < reps; ++r) {
        sw::ScreenConfig cfg;
        cfg.scheme = scheme;
        cfg.threshold = ~0u;  // phase timing only: no hits, no traceback
        cfg.width = width;

        util::Expected<db::Reader> reader =
            util::Status::invalid_input("unopened");
        if (use_db) {
          // Fresh reader per rep: first-touch verification is measured.
          reader = db::Reader::open(db_path);
          if (!reader.has_value()) {
            std::fprintf(stderr, "store open failed: %s\n",
                         reader.status().to_string().c_str());
            return 1;
          }
          cfg.database = &*reader;
        }
        const auto got = sw::try_screen(w.xs, w.ys, cfg);
        if (!got.has_value()) {
          std::fprintf(stderr, "screen failed: %s\n",
                       got.status().to_string().c_str());
          return 1;
        }
        if (baseline_scores.empty()) {
          baseline_scores = got->scores;
        } else if (got->scores != baseline_scores) {
          std::fprintf(stderr,
                       "FAIL: %s %s scores diverge from the baseline — "
                       "bit-identity is broken\n",
                       sw::lane_width_name(width), use_db ? "db" : "mem");
          return 1;
        }
        if (got->reliability.db_shards_quarantined != 0 ||
            got->reliability.db_pairs_fallback != 0) {
          std::fprintf(stderr, "FAIL: store did not serve cleanly\n");
          return 1;
        }
        if (r == 0 || got->bpbc.total_ms() < best.total_ms())
          best = got->bpbc;
      }
      (use_db ? db_best : mem_best) = best;
    }

    for (const bool use_db : {false, true}) {
      const sw::PhaseTimings& t = use_db ? db_best : mem_best;
      table.add_row(
          {std::string("bitwise-") + sw::lane_width_name(width),
           use_db ? "store" : "memory", util::TextTable::num(t.w2b_ms, 2),
           util::TextTable::num(t.swa_ms, 2),
           util::TextTable::num(t.b2w_ms, 2),
           util::TextTable::num(t.total_ms(), 2),
           use_db ? util::TextTable::num(mem_best.w2b_ms / db_best.w2b_ms, 2)
                  : std::string("-")});
      telemetry::RunReportRow row;
      row.impl = std::string("CPU bitwise-") + sw::lane_width_name(width) +
                 (use_db ? " store" : " memory");
      row.pairs = pairs;
      row.m = m;
      row.n = n;
      row.stages_ms = {{"W2B", t.w2b_ms}, {"SWA", t.swa_ms},
                       {"B2W", t.b2w_ms}};
      row.total_ms = t.total_ms();
      rep.rows.push_back(row);
    }
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\nscores bit-identical across both sources and all widths "
              "(fingerprint %llu)\n",
              static_cast<unsigned long long>(
                  util::fnv1a_span<std::uint32_t>(baseline_scores)));

  const std::string json_path = opt.get("json", "");
  if (!json_path.empty()) {
    rep.config["scores_fnv"] =
        std::to_string(util::fnv1a_span<std::uint32_t>(baseline_scores));
    rep.config_fingerprint = config_fingerprint(rep.config);
    if (util::Status s = telemetry::write_run_report(rep, json_path);
        !s.ok()) {
      std::fprintf(stderr, "failed to write run report: %s\n",
                   s.to_string().c_str());
      return 1;
    }
    std::printf("Run report written to %s\n", json_path.c_str());
  }
  std::remove(db_path.c_str());
  return 0;
}
