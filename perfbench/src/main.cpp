// Performance ledger entry point: runs one seeded workload for a fixed time
// and prints its metrics as one JSON line (the last line of stdout).
//
//   ledger --workload=serve-dna|scan-dna-db|protein-search --seed=N
//          --seconds=S --trace=0|1 [--dir=.bench_run] [--corrupt-expected]
//
// --trace=0 prints the end-to-end metrics, --trace=1 the per-layer ones
// from a separate traced run. The exit code is non-zero when any score
// disagrees with the reference computed at set-up, or when a traced
// run's own validity checks fail.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "ledger.hpp"
#include "util/options.hpp"

namespace {

// Engine-pool size per workload, fixed before anything touches the
// global pool. serve-dna: the generator thread + the daemon's poll loop
// + two pool workers fill the 4-thread budget. The offline workloads
// run serially on the caller thread, so their pool stays idle.
const char* pool_threads(const std::string& workload) {
  return workload == "serve-dna" ? "2" : "1";
}

void print_result(const ledger::Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    char value[64];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  swbpbc::util::Options opt(argc, argv);
  ledger::Args args;
  args.workload = opt.get("workload", "");
  args.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  args.seconds = opt.get_double("seconds", 10.0);
  args.trace = opt.get_int("trace", 0) != 0;
  args.corrupt_expected = opt.get_bool("corrupt-expected", false);
  args.dir = opt.get("dir", ".bench_run") + "/" + args.workload;
  if (args.seconds <= 0.0) {
    std::fprintf(stderr, "ledger: --seconds must be positive\n");
    return 2;
  }
  ::setenv("SWBPBC_THREADS", pool_threads(args.workload), 1);

  ledger::Result result;
  try {
    if (args.workload == "serve-dna") {
      result = ledger::run_serve_dna(args);
    } else if (args.workload == "scan-dna-db") {
      result = ledger::run_scan_dna_db(args);
    } else if (args.workload == "protein-search") {
      result = ledger::run_protein_search(args);
    } else {
      std::fprintf(stderr,
                   "ledger: unknown --workload=%s (expected serve-dna, "
                   "scan-dna-db or protein-search)\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  print_result(result);
  return result.correct && result.failed == 0 ? 0 : 1;
}
