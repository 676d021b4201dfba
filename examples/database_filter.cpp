// Database screening — the workload the paper's introduction motivates:
// a query motif is screened against a database of sequences; the BPBC
// pass computes every pair's maximum alignment score, and only pairs
// reaching the threshold tau get the expensive detailed alignment
// (paper §III).
//
//   ./database_filter [--entries=N] [--tau=T] [--gpu] [--fasta=path]
//                     [--width=32|64|128|256|512|auto]
//                     [--backend=bpbc|striped|auto]
//                     [--json=path] [--db=path]
//                     [--db-flip-shard=K] [--db-fault-seed=S]
//
// With --fasta, database entries are read from a FASTA file (all records
// must share one length); otherwise a synthetic database with planted
// homologs is generated. --width picks the BPBC lane width (default auto:
// widest profitable for this CPU; SWBPBC_FORCE_LANE_WIDTH overrides).
// --json writes a RunReport whose config carries an FNV fingerprint of
// the score vector — scores are bit-identical across widths, so CI diffs
// the fingerprint across the dispatch matrix.
//
// --backend picks the host engine (default auto: the measured cost model
// of sw/dispatch.hpp chooses between the BPBC and striped-SIMD kernels;
// SWBPBC_FORCE_BACKEND overrides). Scores are bit-identical whichever
// engine runs, so the same scores_fnv gate covers the backend matrix.
// Incompatible with --db (the store serves the BPBC kernels).
//
// With --db, SWA reads the pre-transposed planes from the store that
// examples/database_build wrote (mmap, zero-copy) instead of transposing
// the database in memory — only the query side pays W2B. The reader
// verifies the store matches this run's sequences (content fingerprint)
// and checksums each shard on first touch; --db-flip-shard=K attaches an
// IO-layer fault injector that flips bytes of shard K in the private
// mapping (the file is untouched), so the run demonstrates quarantine +
// re-ingest: scores stay bit-identical and the report counts exactly one
// quarantined shard.
#include <cstdio>
#include <fstream>
#include <optional>

#include "db/fault.hpp"
#include "db/reader.hpp"
#include "device/engine.hpp"
#include "encoding/fasta.hpp"
#include "encoding/random.hpp"
#include "sw/pipeline.hpp"
#include "telemetry/run_report.hpp"
#include "util/checksum.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace swbpbc;

  const util::Options opt = util::Options::parse_or_exit(
      argc, argv,
      {"backend", "db", "db-fault-seed", "db-flip-shard", "entries", "fasta",
       "gpu", "json", "tau", "width"});
  const auto entries =
      static_cast<std::size_t>(opt.get_int("entries", 256));
  const std::size_t m = 32, n = 512;

  util::Xoshiro256 rng(7);
  const auto query = encoding::random_sequence(rng, m);

  std::vector<encoding::Sequence> database;
  const std::string fasta_path = opt.get("fasta", "");
  if (!fasta_path.empty()) {
    std::ifstream in(fasta_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", fasta_path.c_str());
      return 1;
    }
    for (auto& rec : encoding::read_fasta(in))
      database.push_back(std::move(rec.sequence));
    std::printf("loaded %zu database entries from %s\n", database.size(),
                fasta_path.c_str());
  } else {
    database = encoding::random_sequences(rng, entries, n);
    // Plant degraded copies of the query in ~6%% of the entries.
    std::size_t planted = 0;
    for (std::size_t k = 0; k < database.size(); k += 17) {
      const auto noisy = encoding::mutate(query, 0.1, rng);
      encoding::plant_motif(database[k], noisy,
                            rng.below(n - m));
      ++planted;
    }
    std::printf("synthetic database: %zu entries of length %zu, "
                "%zu planted homologs\n", database.size(), n, planted);
  }

  const std::vector<encoding::Sequence> queries(database.size(), query);
  const auto tau = static_cast<std::uint32_t>(
      opt.get_int("tau", static_cast<std::int64_t>(2 * m) * 3 / 4));

  const std::string width_name = opt.get("width", "auto");
  const auto width = sw::try_parse_lane_width(width_name, "--width");
  if (!width) {
    std::fprintf(stderr, "%s\n", width.status().to_string().c_str());
    return 1;
  }
  const sw::LaneWidth resolved = sw::resolve_lane_width(*width);
  const char* isa =
      sw::isa_name(sw::kernel_isa(resolved, sw::host_cpu_features()));
  std::printf("lane width: %s (requested %s, kernel %s)\n",
              sw::lane_width_name(resolved), width_name.c_str(), isa);

  const std::string backend_name = opt.get("backend", "auto");
  const auto backend_choice = sw::parse_backend_choice(backend_name);
  if (!backend_choice) {
    std::fprintf(stderr,
                 "unknown --backend=%s (expected bpbc|striped|auto)\n",
                 backend_name.c_str());
    return 1;
  }

  if (opt.get_bool("gpu", false)) {
    // Same screening pass through the simulated-GPU pipeline (§V).
    device::EngineOptions eopts;
    eopts.width = *width;
    device::PipelineEngine engine(eopts);
    sw::ChunkJob job;
    job.xs = queries;
    job.ys = database;
    const auto result = engine.run_stages(job);
    std::size_t hits = 0;
    for (auto sc : result.scores) hits += sc >= tau ? 1 : 0;
    std::printf("[device] H2G %.2fms W2B %.2fms SWA %.2fms B2W %.2fms "
                "G2H %.2fms -> %zu hits >= %u\n",
                result.timings.h2g_ms, result.timings.w2b_ms,
                result.timings.swa_ms, result.timings.b2w_ms,
                result.timings.g2h_ms, hits, tau);
    return 0;
  }

  // Pre-transposed store, optionally with injected faults (drill mode).
  const std::string db_path = opt.get("db", "");
  std::optional<db::FaultInjector> injector;
  std::optional<db::Reader> reader;
  if (!db_path.empty()) {
    db::ReaderOptions ropt;
    const std::int64_t flip_shard = opt.get_int("db-flip-shard", -1);
    if (flip_shard >= 0) {
      db::FaultConfig fc;
      fc.seed = static_cast<std::uint64_t>(opt.get_int("db-fault-seed", 42));
      fc.shard_flip_probability = 1.0;
      fc.target_shard = flip_shard;
      injector.emplace(fc);
      ropt.fault = &*injector;
      std::printf("fault injector armed: flipping mapped bytes of shard "
                  "%lld (seed %llu; file untouched)\n",
                  static_cast<long long>(flip_shard),
                  static_cast<unsigned long long>(fc.seed));
    }
    auto opened = db::Reader::open(db_path, ropt);
    if (!opened.has_value()) {
      // Surface the typed failure (kInternal for a missing/unreadable
      // path, kDbCorrupt / kDbMismatch for a damaged or foreign store)
      // plus a hint — a bad --db is almost always a path typo or a store
      // that was never built.
      std::fprintf(stderr, "cannot open database store %s: %s\n",
                   db_path.c_str(), opened.status().to_string().c_str());
      std::fprintf(stderr,
                   "hint: --db expects a store written by "
                   "examples/database_build (e.g. "
                   "./database_build --out=%s --entries=%zu); check the "
                   "path, or rebuild the store if this library version or "
                   "the database contents changed\n",
                   db_path.c_str(), entries);
      return 2;
    }
    reader.emplace(std::move(*opened));
    std::printf("store %s: %zu entries x %zu, %zu shards (mmap zero-copy)\n",
                db_path.c_str(), reader->entry_count(),
                reader->entry_length(), reader->shard_count());
  }

  sw::ScreenConfig config;
  config.params = {2, 1, 1};
  config.threshold = tau;
  config.width = *width;
  config.mode = bulk::Mode::kParallel;
  config.backend_choice = *backend_choice;
  if (reader) config.database = &*reader;
  if (const util::Status valid = sw::validate(config); !valid.ok()) {
    std::fprintf(stderr, "bad screen config: %s\n",
                 valid.to_string().c_str());
    return 1;
  }
  const auto screened = sw::try_screen(queries, database, config);
  if (!screened.has_value()) {
    // Typed rejection: a corrupt or mismatched store is refused up front
    // (kDbCorrupt / kDbMismatch), never screened against.
    std::fprintf(stderr, "screen rejected: %s\n",
                 screened.status().to_string().c_str());
    return 1;
  }
  const sw::ScreenReport& report = *screened;

  std::printf("BPBC filter: W2B %.2fms, SWA %.2fms, B2W %.2fms; "
              "traceback of %zu hits: %.2fms\n",
              report.bpbc.w2b_ms, report.bpbc.swa_ms, report.bpbc.b2w_ms,
              report.hits.size(), report.traceback_ms);
  std::printf("%zu / %zu entries pass tau = %u\n", report.hits.size(),
              report.scores.size(), tau);
  if (reader) {
    const auto& rel = report.reliability;
    std::printf("store: %llu shards served zero-copy, %llu quarantined, "
                "%llu pairs re-ingested, %llu pairs in-memory fallback\n",
                static_cast<unsigned long long>(rel.db_shards_served),
                static_cast<unsigned long long>(rel.db_shards_quarantined),
                static_cast<unsigned long long>(rel.db_pairs_reingested),
                static_cast<unsigned long long>(rel.db_pairs_fallback));
  }

  // Machine-readable report for CI: the scores fingerprint must be
  // identical whichever lane width dispatched.
  const std::string json_path = opt.get("json", "");
  if (!json_path.empty()) {
    telemetry::RunReport rep;
    rep.tool = "database_filter";
    rep.config["entries"] = std::to_string(report.scores.size());
    rep.config["tau"] = std::to_string(tau);
    rep.config["width_requested"] = width_name;
    rep.config["width_resolved"] = sw::lane_width_name(resolved);
    rep.config["kernel_isa"] = isa;
    rep.config["backend_requested"] = backend_name;
    rep.config["hits"] = std::to_string(report.hits.size());
    rep.config["scores_fnv"] = std::to_string(
        util::fnv1a_span<std::uint32_t>(report.scores));
    if (reader) {
      const auto& rel = report.reliability;
      rep.config["db"] = db_path;
      rep.config["db_shards_served"] = std::to_string(rel.db_shards_served);
      rep.config["db_shards_quarantined"] =
          std::to_string(rel.db_shards_quarantined);
      rep.config["db_pairs_reingested"] =
          std::to_string(rel.db_pairs_reingested);
      rep.config["db_pairs_fallback"] =
          std::to_string(rel.db_pairs_fallback);
    }
    telemetry::RunReportRow row;
    row.impl = std::string("CPU bitwise-") + sw::lane_width_name(resolved);
    row.pairs = report.scores.size();
    row.m = m;
    row.n = n;
    row.stages_ms = {{"W2B", report.bpbc.w2b_ms},
                     {"SWA", report.bpbc.swa_ms},
                     {"B2W", report.bpbc.b2w_ms}};
    row.total_ms = report.bpbc.total_ms() + report.traceback_ms;
    rep.rows.push_back(row);
    if (util::Status s = telemetry::write_run_report(rep, json_path);
        !s.ok()) {
      std::fprintf(stderr, "run report: %s\n", s.to_string().c_str());
      return 1;
    }
    std::printf("Run report written to %s\n", json_path.c_str());
  }
  for (std::size_t h = 0; h < report.hits.size() && h < 5; ++h) {
    const auto& hit = report.hits[h];
    std::printf("\nentry #%zu  score %u  region y[%zu..%zu)\n", hit.index,
                hit.bpbc_score, hit.detail.y_begin, hit.detail.y_end);
    std::printf("  %s\n  %s\n  %s\n", hit.detail.x_row.c_str(),
                hit.detail.mid_row.c_str(), hit.detail.y_row.c_str());
  }
  if (report.hits.size() > 5) {
    std::printf("\n(%zu more hits not shown)\n", report.hits.size() - 5);
  }
  return 0;
}
