// scan-dna-db: the paper's screening pipeline against a pre-built store.
//
// Closed loop, one caller thread, serial engine. Each operation screens
// one seeded DNA query against every entry of a pre-transposed
// db::Reader store through sw::try_screen + ScreenConfig::database, with
// traceback on the hits (planted homologs). Only the query side pays
// W2B; SWA dominates. The service, the device engine and the dispatcher
// are bypassed, so kernel changes show here and serving changes do not.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "db/builder.hpp"
#include "db/reader.hpp"
#include "encoding/batch.hpp"
#include "encoding/random.hpp"
#include "ledger.hpp"
#include "sw/pipeline.hpp"
#include "sw/scalar.hpp"
#include "sw/striped.hpp"
#include "telemetry/telemetry.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace ledger {
namespace {

namespace sw = swbpbc::sw;
namespace db = swbpbc::db;
namespace enc = swbpbc::encoding;
namespace util = swbpbc::util;
namespace tel = swbpbc::telemetry;

// Fixed shape of the workload; the seed only changes sequence contents
// and the order in which queries are issued.
constexpr std::size_t kEntries = 1024;     // store entries
constexpr std::size_t kEntryLength = 256;  // uniform entry length
constexpr std::size_t kQueryLength = 48;
constexpr std::size_t kQueries = 32;       // query pool, issued round-robin
constexpr std::size_t kPlantsPerQuery = 4;
constexpr double kPlantMutation = 0.04;
constexpr std::uint32_t kTau = 3 * kQueryLength / 2;  // 3/4 of a perfect hit
constexpr int kSetupRepeats = 25;          // builds + opens, median reported
constexpr double kLimitMs = 40.0;          // per-operation latency limit
constexpr std::size_t kScalarSample = 96;  // pairs re-checked by scalar Gotoh

const sw::ScoringScheme& dna_scheme() {
  static const sw::ScoringScheme scheme =
      sw::ScoringScheme::from_params({2, 1, 1});
  return scheme;
}

enc::GenericSequence to_codes(const enc::Sequence& s) {
  enc::GenericSequence g(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) g[i] = enc::code(s[i]);
  return g;
}

struct Corpus {
  std::vector<enc::Sequence> entries;
  std::vector<enc::Sequence> queries;
  std::vector<std::vector<std::uint32_t>> expected;  // [query][entry]
};

Corpus make_corpus(std::uint64_t seed) {
  Corpus c;
  util::Xoshiro256 rng(seed ^ 0x5ca7d8a11ull);
  c.entries = enc::random_sequences(rng, kEntries, kEntryLength);
  c.queries = enc::random_sequences(rng, kQueries, kQueryLength);
  // Query q is planted, lightly mutated, into kPlantsPerQuery fixed
  // entries, so every operation has the same number of true hits.
  for (std::size_t q = 0; q < kQueries; ++q) {
    for (std::size_t j = 0; j < kPlantsPerQuery; ++j) {
      const std::size_t e = (q * kPlantsPerQuery + j) * 7 % kEntries;
      const std::size_t pos =
          static_cast<std::size_t>(rng.below(kEntryLength - kQueryLength));
      enc::plant_motif(c.entries[e], enc::mutate(c.queries[q],
                                                  kPlantMutation, rng),
                       pos);
    }
  }
  return c;
}

// Reference scores from the striped engine (the screen under test runs
// the BPBC store backend), spot-checked against scalar Gotoh.
bool compute_expected(Corpus& c, std::uint64_t seed) {
  std::vector<enc::GenericSequence> ys;
  ys.reserve(kEntries);
  for (const enc::Sequence& e : c.entries) ys.push_back(to_codes(e));
  sw::StripedProfileCache cache(4);
  for (const enc::Sequence& q : c.queries) {
    const std::vector<enc::GenericSequence> xs(kEntries, to_codes(q));
    auto scores = sw::try_striped_max_scores(xs, ys, dna_scheme(),
                                             swbpbc::bulk::Mode::kSerial,
                                             &cache);
    if (!scores.has_value()) {
      std::fprintf(stderr, "scan-dna-db: reference failed: %s\n",
                   scores.status().to_string().c_str());
      return false;
    }
    c.expected.push_back(std::move(scores).value());
  }
  util::Xoshiro256 rng(seed ^ 0x90705ull);
  for (std::size_t i = 0; i < kScalarSample; ++i) {
    const auto q = static_cast<std::size_t>(rng.below(kQueries));
    const auto e = static_cast<std::size_t>(rng.below(kEntries));
    if (sw::scheme_max_score(c.queries[q], c.entries[e], dna_scheme()) !=
        c.expected[q][e]) {
      std::fprintf(stderr,
                   "scan-dna-db: striped reference disagrees with scalar "
                   "Gotoh at query %zu entry %zu\n",
                   q, e);
      return false;
    }
  }
  return true;
}

struct OpRecord {
  double ms = 0.0;
  bool ok = false;
  sw::PhaseTimings bpbc;
  double traceback_ms = 0.0;
  std::uint64_t shards_served = 0;
  std::uint64_t shards_quarantined = 0;
};

// One operation's correctness: every score equals the reference, the hit
// set is exactly the entries at or above tau, and each hit's traceback
// reproduces its screening score.
bool check_op(const sw::ScreenReport& report,
              const std::vector<std::uint32_t>& expected) {
  if (report.scores != expected) return false;
  std::size_t want_hits = 0;
  for (const std::uint32_t s : expected) want_hits += s >= kTau ? 1 : 0;
  if (report.hits.size() != want_hits) return false;
  for (const sw::ScreenHit& h : report.hits) {
    if (h.index >= expected.size() || expected[h.index] < kTau) return false;
    if (!h.detailed || h.detail.score != h.bpbc_score) return false;
  }
  return true;
}

}  // namespace

Result run_scan_dna_db(const Args& args) {
  Result result;
  std::filesystem::create_directories(args.dir);

  Corpus corpus = make_corpus(args.seed);
  if (!compute_expected(corpus, args.seed)) {
    result.correct = false;
    return result;
  }
  if (args.corrupt_expected) corpus.expected[0][0] ^= 1u;
  std::vector<std::vector<enc::Sequence>> xs;  // query broadcast per op
  xs.reserve(kQueries);
  for (const enc::Sequence& q : corpus.queries)
    xs.emplace_back(kEntries, q);

  // Set-up: publish the store and open it, several times; the last
  // reader serves the timed loop.
  std::vector<double> setup_s, build_ms, open_ms;
  std::optional<db::Reader> reader;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::string path = args.dir + "/store" + std::to_string(r) + ".db";
    util::WallTimer timer;
    if (util::Status s = db::build_database(corpus.entries, path); !s.ok())
      throw std::runtime_error("build_database: " + s.to_string());
    const double built = timer.elapsed_ms();
    auto opened = db::Reader::open(path);
    if (!opened.has_value())
      throw std::runtime_error("Reader::open: " +
                               opened.status().to_string());
    const double total = timer.elapsed_ms();
    setup_s.push_back(total / 1e3);
    build_ms.push_back(built);
    open_ms.push_back(total - built);
    reader.emplace(std::move(opened).value());
    if (r + 1 < kSetupRepeats) std::filesystem::remove(path);
  }

  tel::TelemetryConfig tcfg;
  tcfg.enabled = args.trace;
  tcfg.trace_capacity = kTraceCapacity;
  tel::Telemetry session(tcfg);
  tel::Tracer* tracer = session.tracer();

  sw::ScreenConfig config;
  config.params = {2, 1, 1};
  config.width = sw::LaneWidth::kAuto;
  config.mode = swbpbc::bulk::Mode::kSerial;
  config.threshold = kTau;
  config.traceback = true;
  config.database = &*reader;
  config.telemetry = session.sink();

  // Issue order: seeded permutations of the pool, one full round after
  // another, so every run issues the same mix.
  util::Xoshiro256 order_rng(args.seed ^ 0x0dde5ull);
  std::vector<std::size_t> round(kQueries);
  std::vector<OpRecord> ops;
  Phase phase{"scan", 0, 0, 0};
  std::uint64_t fnv = util::kFnvOffset;
  const double cells_per_op =
      static_cast<double>(kEntries * kEntryLength * kQueryLength);
  util::WallTimer run_timer;
  while (run_timer.elapsed_s() < args.seconds) {
    for (std::size_t i = 0; i < kQueries; ++i) round[i] = i;
    for (std::size_t i = kQueries; i > 1; --i)
      std::swap(round[i - 1],
                round[static_cast<std::size_t>(order_rng.below(i))]);
    for (const std::size_t q : round) {
      if (run_timer.elapsed_s() >= args.seconds) break;
      OpRecord op;
      const std::uint64_t t0 = util::monotonic_us();
      util::WallTimer timer;
      auto report = sw::try_screen(xs[q], corpus.entries, config);
      op.ms = timer.elapsed_ms();
      bench_span(tracer, "scan.op", t0, util::monotonic_us());
      ++phase.sent;
      if (report.has_value()) {
        op.ok = check_op(*report, corpus.expected[q]);
        op.bpbc = report->bpbc;
        op.traceback_ms = report->traceback_ms;
        op.shards_served = report->reliability.db_shards_served;
        op.shards_quarantined = report->reliability.db_shards_quarantined;
        fnv = util::fnv1a_span<std::uint32_t>(report->scores, fnv);
      } else {
        std::fprintf(stderr, "scan-dna-db: %s\n",
                     report.status().to_string().c_str());
      }
      if (!op.ok && phase.failed == 0)
        std::fprintf(stderr, "scan-dna-db: query %zu scored wrong\n", q);
      ++(op.ok ? phase.succeeded : phase.failed);
      ops.push_back(op);
    }
  }
  report_phases({phase}, result);
  result.correct = phase.failed == 0;
  std::printf("scores_fnv %016llx\n", static_cast<unsigned long long>(fnv));

  std::vector<double> lat, one, cells;
  std::uint64_t within = 0;
  for (const OpRecord& op : ops) {
    lat.push_back(op.ms);
    one.push_back(1.0);
    cells.push_back(cells_per_op);
    within += op.ok && op.ms <= kLimitMs ? 1 : 0;
  }
  std::printf("samples %zu ops, lane width %s\n", lat.size(),
              sw::lane_width_name(sw::resolve_lane_width(config.width)));

  if (!args.trace) {
    result.set("setup_s", quantile(setup_s, 0.5), "s");
    result.set("latency_p50_ms", windowed_quantile(lat, 0.5), "ms");
    result.set("latency_p90_ms", windowed_quantile(lat, 0.9), "ms");
    result.set("latency_p99_ms", windowed_quantile(lat, 0.99), "ms");
    result.set("slo_met_frac",
               static_cast<double>(within) /
                   static_cast<double>(std::max<std::uint64_t>(phase.sent, 1)),
               "ratio");
    result.set("capacity_rps", windowed_rate(one, lat), "1/s");
    result.set("gcups", windowed_rate(cells, lat) / 1e9, "GCUPS");
    result.set("peak_rss_mb", peak_rss_mb(), "MiB");
  } else {
    declare_per_layer(result);
    std::vector<double> w2b, swa, b2w, tb, swa_ns;
    double served = 0.0;
    double quarantined = 0.0;
    for (const OpRecord& op : ops) {
      w2b.push_back(op.bpbc.w2b_ms);
      swa.push_back(op.bpbc.swa_ms);
      b2w.push_back(op.bpbc.b2w_ms);
      tb.push_back(op.traceback_ms);
      swa_ns.push_back(op.bpbc.swa_ms * 1e6 / cells_per_op);
      served += static_cast<double>(op.shards_served);
      quarantined += static_cast<double>(op.shards_quarantined);
    }
    result.set("sw.w2b_ms", quantile(w2b, 0.5), "ms");
    result.set("sw.swa_ms", quantile(swa, 0.5), "ms");
    result.set("sw.b2w_ms", quantile(b2w, 0.5), "ms");
    result.set("sw.traceback_ms", quantile(tb, 0.5), "ms");
    result.set("sw.swa_ns_per_cell", quantile(swa_ns, 0.5), "ns");
    result.set("db.build_ms", quantile(build_ms, 0.5), "ms");
    result.set("db.open_ms", quantile(open_ms, 0.5), "ms");
    result.set("db.shards_served",
               served / static_cast<double>(std::max<std::size_t>(ops.size(), 1)),
               "count");
    result.set("db.shards_quarantined", quarantined, "count");
    result.set("encoding.w2b_ns_per_pair", dna_w2b_ns_per_pair(xs[0]), "ns");
    result.set("telemetry.trace_dropped",
               static_cast<double>(tracer->dropped()), "count");
    if (quarantined != 0.0 || tracer->dropped() != 0) result.correct = false;
    if (util::Status s =
            tracer->write_chrome_trace(args.dir + "/trace.json");
        !s.ok())
      std::fprintf(stderr, "scan-dna-db: %s\n", s.to_string().c_str());
  }
  std::error_code ec;
  std::filesystem::remove(reader->path(), ec);
  return result;
}

}  // namespace ledger
