// Read mapping demo: short sequencing reads (with simulated errors) are
// located on a reference genome. Each read is paired with a window of the
// reference; the BPBC pass scores all (read, window) pairs in bulk, and
// windows whose score clears the threshold are aligned in detail to
// recover the mapping position.
//
//   ./read_mapper [--reads=N] [--read-len=L] [--error-rate=R]
#include <cstdio>

#include "encoding/random.hpp"
#include "sw/pipeline.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace swbpbc;

  const util::Options opt = util::Options::parse_or_exit(
      argc, argv, {"error-rate", "read-len", "reads"});
  const auto n_reads = static_cast<std::size_t>(opt.get_int("reads", 128));
  const auto read_len =
      static_cast<std::size_t>(opt.get_int("read-len", 48));
  const double error_rate = opt.get_double("error-rate", 0.03);
  const std::size_t window = 4 * read_len;

  // Reference genome and reads drawn from random positions with
  // sequencing errors.
  util::Xoshiro256 rng(99);
  const std::size_t genome_len = 1 << 16;
  const auto genome = encoding::random_sequence(rng, genome_len);

  std::vector<encoding::Sequence> reads, windows;
  std::vector<std::size_t> truth_offset;  // read position within its window
  for (std::size_t r = 0; r < n_reads; ++r) {
    const std::size_t pos = rng.below(genome_len - window);
    const std::size_t offset = rng.below(window - read_len);
    const encoding::Sequence fragment(
        genome.begin() + static_cast<std::ptrdiff_t>(pos + offset),
        genome.begin() +
            static_cast<std::ptrdiff_t>(pos + offset + read_len));
    reads.push_back(encoding::mutate(fragment, error_rate, rng));
    windows.emplace_back(
        genome.begin() + static_cast<std::ptrdiff_t>(pos),
        genome.begin() + static_cast<std::ptrdiff_t>(pos + window));
    truth_offset.push_back(offset);
  }

  // Accept a mapping when at least ~85% of the read aligns cleanly:
  // score >= 2 * L - penalty budget.
  sw::ScreenConfig config;
  config.params = {2, 1, 1};
  config.threshold =
      static_cast<std::uint32_t>(2 * read_len - (read_len / 4) * 3);
  config.mode = bulk::Mode::kParallel;
  const sw::ScreenReport report = sw::screen(reads, windows, config);

  std::size_t mapped = 0, placed_exact = 0;
  for (const sw::ScreenHit& hit : report.hits) {
    ++mapped;
    // The traceback's start in y is the recovered in-window position; a
    // local alignment may shave a mismatching prefix, so allow slack of
    // a few bases.
    const std::size_t recovered = hit.detail.y_begin;
    const std::size_t expected = truth_offset[hit.index];
    const std::size_t delta =
        recovered > expected ? recovered - expected : expected - recovered;
    if (delta <= 4) ++placed_exact;
  }
  std::printf("reads: %zu, mapped (score >= %u): %zu, placed within 4bp "
              "of the true offset: %zu\n",
              n_reads, config.threshold, mapped, placed_exact);
  std::printf("BPBC screening: %.2f ms total (%.2f SWA); traceback: %.2f "
              "ms for %zu hits\n",
              report.bpbc.total_ms(), report.bpbc.swa_ms,
              report.traceback_ms, report.hits.size());
  if (!report.hits.empty()) {
    const auto& h = report.hits.front();
    std::printf("\nexample mapping, read #%zu at window offset %zu:\n",
                h.index, h.detail.y_begin);
    std::printf("  %s\n  %s\n  %s\n", h.detail.x_row.c_str(),
                h.detail.mid_row.c_str(), h.detail.y_row.c_str());
  }
  return 0;
}
