// Checkpoint/resume walkthrough: a long screening run is killed mid-flight
// by a wall-clock deadline, its completed chunks already persisted to a
// checkpoint stream; a second invocation resumes from the stream, skips the
// finished chunks, and ends bit-identical to a never-interrupted run.
//
//   ./screen_resume                       # kill via a ~0.5 ms deadline
//   ./screen_resume --deadline-ms=1 --count=4096 --chunk=128
//   ./screen_resume --kill-after-chunks=3 # deterministic kill point
//
// The checkpoint stream is versioned, fingerprinted against the batch and
// chunking, and checksummed per record — a stale or corrupt stream is
// rejected with a typed error instead of resuming garbage.

#include <cstdio>
#include <vector>

#include "encoding/random.hpp"
#include "sw/pipeline.hpp"
#include "util/cancel.hpp"
#include "util/options.hpp"
#include "util/signal.hpp"

using namespace swbpbc;

namespace {

std::size_t completed_chunks(const sw::ScreenReport& report) {
  std::size_t done = 0;
  for (const sw::ChunkOutcome& c : report.chunks)
    if (c.completed) ++done;
  return done;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options opt = util::Options::parse_or_exit(
      argc, argv,
      {"chunk", "count", "deadline-ms", "kill-after-chunks", "m", "n", "seed"});
  const auto count = static_cast<std::size_t>(opt.get_int("count", 2048));
  const auto m = static_cast<std::size_t>(opt.get_int("m", 16));
  const auto n = static_cast<std::size_t>(opt.get_int("n", 48));
  const auto chunk = static_cast<std::size_t>(opt.get_int("chunk", 128));
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 7));
  const double deadline_ms = opt.get_double("deadline-ms", 0.5);
  const auto kill_after =
      static_cast<std::size_t>(opt.get_int("kill-after-chunks", 0));
  const char* ckpt = "screen_resume.ckpt";

  util::Xoshiro256 rng(seed);
  const auto xs = encoding::random_sequences(rng, count, m);
  const auto ys = encoding::random_sequences(rng, count, n);

  // SIGINT/SIGTERM stop the run cooperatively at the next chunk boundary:
  // completed chunks are already flushed to the checkpoint stream, so a
  // later invocation resumes them. A second signal exits immediately.
  util::CancellationToken sig_token;
  if (util::Status s = util::install_cancel_on_signals(sig_token); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.to_string().c_str());
    return 1;
  }

  sw::ScreenConfig base;
  base.params = {2, 1, 1};
  base.threshold = 24;
  base.width = sw::LaneWidth::k64;
  base.chunk_pairs = chunk;
  const std::size_t n_chunks = (count + chunk - 1) / chunk;

  std::printf("screening %zu pairs (m=%zu, n=%zu) in %zu chunks of %zu\n\n",
              count, m, n, n_chunks, chunk);

  // --- the run we will compare against: never interrupted ---------------
  const sw::ScreenReport reference = sw::screen(xs, ys, base);

  // --- run 1: time-boxed, checkpointing every completed chunk -----------
  util::CancellationToken token;
  sw::ScreenConfig first = base;
  first.checkpoint_path = ckpt;
  if (kill_after > 0) {
    first.cancel = &token;
    first.progress = [&token, &sig_token, kill_after](
                         const sw::ChunkProgress& p) {
      if (sig_token.cancelled() || p.chunk + 1 >= kill_after) token.cancel();
    };
    std::printf("run 1: cancelling after %zu chunks, checkpointing to %s\n",
                kill_after, ckpt);
  } else {
    first.cancel = &sig_token;
    first.deadline = util::Deadline::after_ms(deadline_ms);
    std::printf("run 1: %.3g ms deadline, checkpointing to %s\n",
                deadline_ms, ckpt);
  }
  const sw::ScreenReport partial = sw::screen(xs, ys, first);
  std::printf("run 1 stopped: %s\n", partial.status.to_string().c_str());
  std::printf("run 1 completed %zu of %zu chunks before the kill\n\n",
              completed_chunks(partial), n_chunks);
  if (sig_token.cancelled()) {
    std::printf("interrupted by signal: %zu completed chunks are flushed "
                "to %s; rerun with --resume to pick them up (%s)\n",
                completed_chunks(partial), ckpt,
                partial.status.to_string().c_str());
    return 130;
  }

  // --- run 2: resume from the stream, finish the remainder --------------
  sw::ScreenConfig second = base;
  second.resume_path = ckpt;
  second.checkpoint_path = ckpt;
  second.cancel = &sig_token;
  std::size_t resumed = 0;
  second.progress = [&resumed](const sw::ChunkProgress& p) {
    if (p.resumed) ++resumed;
  };
  const auto result = sw::try_screen(xs, ys, second);
  if (!result.has_value()) {
    std::printf("resume rejected: %s\n", result.status().to_string().c_str());
    std::remove(ckpt);
    return 1;
  }
  const sw::ScreenReport& resumed_report = *result;
  if (sig_token.cancelled()) {
    std::printf("interrupted by signal: %zu completed chunks are flushed "
                "to %s (%s)\n",
                completed_chunks(resumed_report), ckpt,
                resumed_report.status.to_string().c_str());
    return 130;
  }
  std::printf("run 2 satisfied %zu chunks from the checkpoint, computed "
              "%zu fresh\n",
              resumed, n_chunks - resumed);

  // --- the acceptance check: resumed == uninterrupted, bit for bit ------
  bool identical = resumed_report.scores == reference.scores &&
                   resumed_report.hits.size() == reference.hits.size();
  if (identical) {
    for (std::size_t h = 0; h < reference.hits.size(); ++h) {
      identical = identical &&
                  resumed_report.hits[h].index == reference.hits[h].index &&
                  resumed_report.hits[h].bpbc_score ==
                      reference.hits[h].bpbc_score &&
                  resumed_report.hits[h].detail.score ==
                      reference.hits[h].detail.score;
    }
  }
  std::printf("scores: %zu, hits: %zu\n", resumed_report.scores.size(),
              resumed_report.hits.size());
  std::printf("%s\n", identical
                          ? "RESUME OK: identical to the uninterrupted run"
                          : "RESUME MISMATCH");
  std::remove(ckpt);
  return identical ? 0 : 1;
}
