// Builds the pre-transposed database store (src/db) from a FASTA file or
// the same synthetic database database_filter generates, so a filter run
// with --db serves exactly what a build run wrote.
//
//   ./database_build --out=seqs.swdb [--entries=N] [--fasta=path]
//                    [--json=path] [--corrupt-shard=K [--corrupt-bit=B]]
//
// The file is published atomically (temp + fsync + rename): a crash
// mid-build leaves the previous database or nothing, never a torn file.
// --corrupt-shard flips one payload bit of shard K *on disk* after the
// build — simulated bit rot for the corruption drill (the screening side
// must quarantine exactly that shard and still score bit-identically).
#include <cstdio>
#include <fstream>

#include "db/builder.hpp"
#include "db/format.hpp"
#include "db/reader.hpp"
#include "encoding/fasta.hpp"
#include "encoding/random.hpp"
#include "telemetry/run_report.hpp"
#include "util/options.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace swbpbc;

  const util::Options opt = util::Options::parse_or_exit(
      argc, argv,
      {"corrupt-bit", "corrupt-shard", "entries", "fasta", "json", "out"});
  const std::string out = opt.get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "usage: database_build --out=path "
                         "[--entries=N] [--fasta=path]\n");
    return 1;
  }
  const auto entries =
      static_cast<std::size_t>(opt.get_int("entries", 256));
  const std::size_t m = 32, n = 512;

  // Synthetic generation mirrors examples/database_filter.cpp exactly
  // (same seed, same draw order), so the two binaries agree on content —
  // the filter's fingerprint verification would reject any drift loudly.
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
    std::size_t planted = 0;
    for (std::size_t k = 0; k < database.size(); k += 17) {
      const auto noisy = encoding::mutate(query, 0.1, rng);
      encoding::plant_motif(database[k], noisy, rng.below(n - m));
      ++planted;
    }
    std::printf("synthetic database: %zu entries of length %zu, "
                "%zu planted homologs\n", database.size(), n, planted);
  }

  util::WallTimer timer;
  if (util::Status s = db::build_database(database, out); !s.ok()) {
    std::fprintf(stderr, "build failed: %s\n", s.to_string().c_str());
    return 1;
  }
  const double build_ms = timer.elapsed_ms();

  // Read the published file back so the numbers reported are the file's,
  // not the builder's intent.
  auto reader = db::Reader::open(out);
  if (!reader.has_value()) {
    std::fprintf(stderr, "re-open failed: %s\n",
                 reader.status().to_string().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu entries x %zu, %zu shards, "
              "content fnv %016llx, %.2f ms\n",
              out.c_str(), reader->entry_count(), reader->entry_length(),
              reader->shard_count(),
              static_cast<unsigned long long>(reader->content_fingerprint()),
              build_ms);

  const std::int64_t corrupt_shard = opt.get_int("corrupt-shard", -1);
  if (corrupt_shard >= 0) {
    const auto bit = static_cast<unsigned>(opt.get_int("corrupt-bit", 3));
    if (util::Status s = db::corrupt_shard_for_testing(
            out, static_cast<std::size_t>(corrupt_shard), /*byte_offset=*/17,
            bit);
        !s.ok()) {
      std::fprintf(stderr, "corrupt-shard failed: %s\n",
                   s.to_string().c_str());
      return 1;
    }
    std::printf("flipped bit %u of payload byte 17 in shard %lld "
                "(simulated on-disk bit rot)\n",
                bit, static_cast<long long>(corrupt_shard));
  }

  const std::string json_path = opt.get("json", "");
  if (!json_path.empty()) {
    telemetry::RunReport rep;
    rep.tool = "database_build";
    rep.config["out"] = out;
    rep.config["entries"] = std::to_string(reader->entry_count());
    rep.config["entry_length"] = std::to_string(reader->entry_length());
    rep.config["shards"] = std::to_string(reader->shard_count());
    rep.config["content_fnv"] =
        std::to_string(reader->content_fingerprint());
    telemetry::RunReportRow row;
    row.impl = "db-build";
    row.pairs = reader->entry_count();
    row.m = m;
    row.n = reader->entry_length();
    row.stages_ms = {{"build", build_ms}};
    row.total_ms = build_ms;
    rep.rows.push_back(row);
    if (util::Status s = telemetry::write_run_report(rep, json_path);
        !s.ok()) {
      std::fprintf(stderr, "run report: %s\n", s.to_string().c_str());
      return 1;
    }
    std::printf("Run report written to %s\n", json_path.c_str());
  }
  return 0;
}
