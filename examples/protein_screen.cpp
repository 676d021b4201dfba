// Protein screening at full lane width: BLOSUM62 + affine (Gotoh) gaps
// as bulk bitwise computation over the 20-symbol amino-acid alphabet
// (epsilon = 5 bit planes), dispatched to the widest profitable lane
// word (64/128/256/512 lanes per word; SWBPBC_FORCE_LANE_WIDTH and
// --width override). The screen runs through sw::try_screen, the same
// entry DNA screens use.
//
//   ./protein_screen [--count=N] [--width=auto|32|64|128|256|512]
//   ./protein_screen --backend=striped     # Farrar striped SIMD instead
//                                          # of BPBC (--backend=auto lets
//                                          # the measured cost model pick)
//   ./protein_screen --linear              # linear gaps instead of affine
//   ./protein_screen --db=proteins.swdb    # serve targets from the
//                                          # pre-transposed store
//   ./protein_screen --json=report.json    # RunReport with scores_fnv
//                                          # (the CI dispatch-matrix gate)
//   ./protein_screen --trace=protein.trace.json   # Perfetto span timeline
//
// --backend picks the host engine (default auto; SWBPBC_FORCE_BACKEND
// overrides). The engines are bit-identical on every scheme, so the same
// scores_fnv fingerprint gates the backend matrix in CI.
//
// The in-memory screen runs with the self-check on: every hit and every
// 17th pair is re-scored against the scalar Gotoh reference, and any
// mismatch fails the run. --db additionally requires the store-served
// scores to be bit-identical to the in-memory batch.
#include <cstdio>
#include <cstdlib>

#include "db/builder.hpp"
#include "db/reader.hpp"
#include "encoding/alphabet.hpp"
#include "sw/dispatch.hpp"
#include "sw/lane.hpp"
#include "sw/pipeline.hpp"
#include "sw/striped.hpp"
#include "sw/scoring.hpp"
#include "telemetry/run_report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/checksum.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace swbpbc;

  const util::Options opt = util::Options::parse_or_exit(
      argc, argv,
      {"backend", "count", "db", "json", "linear", "trace", "width"});
  const auto count = static_cast<std::size_t>(opt.get_int("count", 256));
  const std::size_t m = 24, n = 200;

  const std::string width_name = opt.get("width", "auto");
  const auto width = sw::try_parse_lane_width(width_name, "--width");
  if (!width.has_value()) {
    std::fprintf(stderr, "%s\n", width.status().to_string().c_str());
    return 1;
  }

  const std::string backend_name = opt.get("backend", "auto");
  const auto backend = sw::parse_backend_choice(backend_name);
  if (!backend.has_value()) {
    std::fprintf(stderr,
                 "unknown --backend=%s (expected bpbc|striped|auto)\n",
                 backend_name.c_str());
    return 1;
  }

  // The full scoring model: BLOSUM62 substitution with affine gap costs
  // (open 11, extend 1 — the classic BLAST pairing), or --linear for a
  // single per-residue gap penalty through the same circuits.
  sw::ScoringScheme scheme;
  scheme.matrix = sw::blosum62();
  if (opt.has("linear")) {
    scheme.gap_model = sw::GapModel::kLinear;
    scheme.gap_open = 4;
  } else {
    scheme.gap_model = sw::GapModel::kAffine;
    scheme.gap_open = 11;
    scheme.gap_extend = 1;
  }

  // The session is always on: the screen's counters (the striped 8-bit
  // pass among them) feed the report; spans are written only on --trace.
  const std::string trace_path = opt.get("trace", "");
  telemetry::TelemetryConfig tcfg;
  tcfg.enabled = true;
  tcfg.pool_spans = !trace_path.empty();
  telemetry::Telemetry session(tcfg);
  telemetry::Tracer* const tr = session.tracer();

  const encoding::Alphabet& aa = scheme.alphabet();
  util::Xoshiro256 rng(314);
  const auto random_protein = [&](std::size_t len) {
    encoding::GenericSequence s(len);
    for (auto& c : s) c = static_cast<std::uint8_t>(rng.below(aa.size()));
    return s;
  };

  // One query motif against `count` random protein targets; a third of
  // the targets carry a degraded copy of the motif.
  telemetry::Span gen_span(tr, "generate", "example");
  gen_span.arg("targets", static_cast<std::int64_t>(count));
  const encoding::GenericSequence query = random_protein(m);
  std::vector<encoding::GenericSequence> queries(count, query);
  std::vector<encoding::GenericSequence> targets;
  std::size_t planted = 0;
  for (std::size_t k = 0; k < count; ++k) {
    auto t = random_protein(n);
    if (k % 3 == 0) {
      const std::size_t pos = rng.below(n - m);
      for (std::size_t i = 0; i < m; ++i) {
        // ~85% of motif residues survive.
        t[pos + i] = rng.below(100) < 85
                         ? query[i]
                         : static_cast<std::uint8_t>(rng.below(aa.size()));
      }
      ++planted;
    }
    targets.push_back(std::move(t));
  }
  gen_span.finish();

  const sw::LaneWidth resolved = sw::resolve_lane_width(*width);
  std::printf("scheme: %s (epsilon = %u bit planes, slices = %u)\n",
              sw::scheme_name(scheme).c_str(), scheme.alphabet_bits(),
              sw::scheme_required_slices(scheme, m, n));
  const char* isa =
      sw::isa_name(sw::kernel_isa(resolved, sw::host_cpu_features()));
  std::printf("lane width: %s (requested %s, kernel %s)\n",
              sw::lane_width_name(resolved), width_name.c_str(), isa);

  // Resolve the host engine (auto = measured cost model; the environment
  // override outranks the flag, same as the lane width).
  sw::BackendChoice engine;
  sw::DispatchWorkload workload;
  try {
    workload = sw::DispatchWorkload::from(scheme, count, m, n, resolved);
    engine = sw::resolve_backend_choice(*backend, workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "backend resolution failed: %s\n", e.what());
    return 1;
  }

  const std::uint32_t tau = static_cast<std::uint32_t>(m);  // ~1 bit/aa
  sw::ScreenConfig config;
  config.scheme = scheme;
  config.threshold = tau;
  config.width = *width;
  config.backend_choice = engine;
  config.traceback = false;
  config.check.enabled = true;
  config.check.sample_every = 17;
  config.telemetry = session.sink();
  if (util::Status s = sw::validate(config); !s.ok()) {
    std::fprintf(stderr, "bad screen config: %s\n", s.to_string().c_str());
    return 1;
  }

  util::WallTimer timer;
  telemetry::Span screen_span(tr, "screen.scheme", "example");
  screen_span.arg("pairs", static_cast<std::int64_t>(count));
  screen_span.arg("planes", static_cast<std::int64_t>(aa.bits()));
  screen_span.arg("backend", static_cast<std::int64_t>(engine));
  const auto screened = sw::try_screen(queries, targets, config);
  screen_span.finish();
  const double ms = timer.elapsed_ms();
  if (!screened.has_value()) {
    std::fprintf(stderr, "screen rejected: %s\n",
                 screened.status().to_string().c_str());
    return 1;
  }
  const std::vector<std::uint32_t>& scores = screened->scores;
  const sw::PhaseTimings& timings = screened->bpbc;
  const sw::ReliabilityReport& check = screened->reliability;
  // The dispatcher explains itself: both engines' predicted cost beside
  // the time the chosen one took.
  const sw::CostModel& model = sw::CostModel::measured();
  std::printf("backend: %s (requested %s; predicted bpbc %.3f ms, "
              "striped %.3f ms; measured %.3f ms)\n",
              sw::backend_choice_name(engine), backend_name.c_str(),
              model.bpbc_cost_ns(workload) * 1e-6,
              model.striped_cost_ns(workload) * 1e-6, ms);

  // Per-instance GCUPS: every lane computes its own m*n DP cells.
  const double cells = static_cast<double>(count) *
                       static_cast<double>(m) * static_cast<double>(n);
  const double gcups = ms > 0.0 ? cells / (ms * 1e6) : 0.0;
  std::printf("screened %zu targets in %.2f ms "
              "(W2B %.2f, SWA %.2f, B2W %.2f) — %.3f GCUPS\n",
              count, ms, timings.w2b_ms, timings.swa_ms, timings.b2w_ms,
              gcups);

  // The striped build that ran, and how often its 8-bit pass saturated.
  const sw::StripedBuild striped = sw::striped_build(scheme, m);
  telemetry::MetricsRegistry& reg = session.registry();
  const std::uint64_t byte_pass_pairs =
      reg.counter("sw.striped.byte_pass_pairs").value();
  const std::uint64_t escalations =
      reg.counter("sw.striped.escalations").value();
  if (engine == sw::BackendChoice::kStriped)
    std::printf("striped build: %s (%llu of %llu pairs rescored at u%u)\n",
                striped.name().c_str(),
                static_cast<unsigned long long>(escalations),
                static_cast<unsigned long long>(byte_pass_pairs),
                striped.exact_bits);

  // The self-check re-scored every hit and every 17th pair against the
  // scalar Gotoh reference; a mismatch is an engine bug, not noise.
  std::printf("self-check: %llu lanes verified against scalar Gotoh, "
              "%llu mismatches\n",
              static_cast<unsigned long long>(check.lanes_verified),
              static_cast<unsigned long long>(check.mismatches_detected));
  if (check.mismatches_detected != 0) {
    std::fprintf(stderr, "%s disagrees with scalar Gotoh — MISMATCH\n",
                 sw::backend_choice_name(engine));
    return 1;
  }

  const std::size_t hits = screened->hits.size();
  std::printf("query (%zu aa): %s\n", m, aa.decode(query).c_str());
  std::printf("%zu targets reach tau = %u (%zu were planted)\n", hits, tau,
              planted);

  // --db: serve the same screen from the pre-transposed store — query
  // broadcast across lanes, shard planes zero-copy at 64 lanes and
  // limb-gathered into wide words beyond.
  sw::ScreenReport db_report;
  double db_ms = 0.0;
  const std::string db_path = opt.get("db", "");
  if (!db_path.empty()) {
    if (util::Status s =
            db::build_generic_database(targets, aa.bits(), db_path);
        !s.ok()) {
      std::fprintf(stderr, "db build failed: %s\n", s.to_string().c_str());
      return 1;
    }
    auto reader = db::Reader::open(db_path);
    if (!reader.has_value()) {
      std::fprintf(stderr, "db open failed: %s\n",
                   reader.status().to_string().c_str());
      return 1;
    }
    sw::ScreenConfig db_config = config;
    db_config.database = &*reader;
    db_config.backend_choice = sw::BackendChoice::kAuto;  // the store serves
    db_config.check.enabled = false;
    if (util::Status s = sw::validate(db_config); !s.ok()) {
      std::fprintf(stderr, "bad store config: %s\n", s.to_string().c_str());
      return 1;
    }
    telemetry::Span db_span(tr, "screen.db", "example");
    timer.reset();
    auto served = sw::try_screen(queries, targets, db_config);
    db_ms = timer.elapsed_ms();
    db_span.finish();
    if (!served.has_value()) {
      std::fprintf(stderr, "db screen rejected: %s\n",
                   served.status().to_string().c_str());
      return 1;
    }
    db_report = std::move(served).value();
    const sw::ReliabilityReport& rel = db_report.reliability;
    const bool identical = db_report.scores == scores;
    const double db_gcups = db_ms > 0.0 ? cells / (db_ms * 1e6) : 0.0;
    std::printf("store serve (%s, %llu shards zero-copy, %llu "
                "quarantined, %llu pairs re-ingested) at %s: %.2f ms, "
                "%.3f GCUPS — %s\n",
                db_path.c_str(),
                static_cast<unsigned long long>(rel.db_shards_served),
                static_cast<unsigned long long>(rel.db_shards_quarantined),
                static_cast<unsigned long long>(rel.db_pairs_reingested),
                sw::lane_width_name(db_report.lane_width), db_ms, db_gcups,
                identical ? "bit-identical to the in-memory batch"
                          : "MISMATCH");
    if (!identical) return 1;
  }

  // --json: machine-readable evidence for the CI dispatch-matrix gate —
  // scores_fnv must be identical whichever lane width dispatched.
  const std::string json_path = opt.get("json", "");
  if (!json_path.empty()) {
    telemetry::RunReport rep;
    rep.tool = "protein_screen";
    rep.config["scheme"] = sw::scheme_name(scheme);
    rep.config["gap_open"] = std::to_string(scheme.gap_open);
    rep.config["gap_extend"] = std::to_string(scheme.gap_extend);
    rep.config["plane_bits"] = std::to_string(scheme.alphabet_bits());
    rep.config["width_requested"] = width_name;
    rep.config["width_resolved"] = sw::lane_width_name(resolved);
    rep.config["kernel_isa"] = isa;
    rep.config["backend_requested"] = backend_name;
    rep.config["backend_resolved"] = sw::backend_choice_name(engine);
    rep.config["pairs"] = std::to_string(count);
    rep.config["hits"] = std::to_string(hits);
    rep.config["check_lanes_verified"] =
        std::to_string(check.lanes_verified);
    rep.config["check_mismatches"] =
        std::to_string(check.mismatches_detected);
    if (engine == sw::BackendChoice::kStriped) {
      rep.config["striped_build"] = striped.name();
      rep.metrics.counters["sw.striped.byte_pass_pairs"] = byte_pass_pairs;
      rep.metrics.counters["sw.striped.escalations"] = escalations;
    }
    rep.config["scores_fnv"] =
        std::to_string(util::fnv1a_span<std::uint32_t>(scores));
    if (!db_path.empty()) {
      rep.config["db"] = db_path;
      rep.config["db_width"] = sw::lane_width_name(db_report.lane_width);
      rep.config["db_shards_served"] =
          std::to_string(db_report.reliability.db_shards_served);
      rep.config["db_shards_quarantined"] =
          std::to_string(db_report.reliability.db_shards_quarantined);
    }
    telemetry::RunReportRow row;
    row.impl = engine == sw::BackendChoice::kStriped
                   ? std::string("CPU striped-simd")
                   : std::string("CPU bitwise-") + sw::lane_width_name(resolved);
    row.pairs = count;
    row.m = m;
    row.n = n;
    row.stages_ms = {{"W2B", timings.w2b_ms},
                     {"SWA", timings.swa_ms},
                     {"B2W", timings.b2w_ms}};
    row.total_ms = ms;
    row.gcups = gcups;
    rep.rows.push_back(row);
    if (!db_path.empty()) {
      telemetry::RunReportRow db_row;
      db_row.impl = std::string("CPU bitwise-db-") +
                    sw::lane_width_name(db_report.lane_width);
      db_row.pairs = count;
      db_row.m = m;
      db_row.n = n;
      db_row.total_ms = db_ms;
      db_row.gcups = db_ms > 0.0 ? cells / (db_ms * 1e6) : 0.0;
      rep.rows.push_back(db_row);
    }
    if (util::Status s = telemetry::write_run_report(rep, json_path);
        !s.ok()) {
      std::fprintf(stderr, "run report: %s\n", s.to_string().c_str());
      return 1;
    }
    std::printf("Run report written to %s\n", json_path.c_str());
  }

  if (!trace_path.empty()) {
    if (util::Status s = session.tracer()->write_chrome_trace(trace_path);
        !s.ok()) {
      std::printf("trace write failed: %s\n", s.to_string().c_str());
      return 1;
    }
    std::printf("trace written to %s (%zu spans) — open in "
                "https://ui.perfetto.dev\n",
                trace_path.c_str(), session.tracer()->size());
  }
  return 0;
}
