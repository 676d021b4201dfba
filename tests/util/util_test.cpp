#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace swbpbc::util {
namespace {

TEST(ThreadPool, SerialModeRunsAllIterations) {
  ThreadPool pool(0);
  std::vector<int> hits(100, 0);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPool, ParallelRunsEveryIterationExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RespectsBeginOffset) {
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(10, 20, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), std::size_t{145});  // 10 + 11 + ... + 19
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t i) {
                                   if (i == 57)
                                     throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, AggregatesConcurrentExceptions) {
  // Two iterations rendezvous before throwing, so both are in flight on
  // distinct threads and BOTH failures must be captured — the old behavior
  // silently dropped all but the first.
  ThreadPool pool(2);
  std::atomic<int> entered{0};
  try {
    pool.parallel_for(0, 2, [&](std::size_t i) {
      entered.fetch_add(1);
      while (entered.load() < 2) std::this_thread::yield();
      throw std::runtime_error("boom " + std::to_string(i));
    });
    FAIL() << "expected AggregateError";
  } catch (const AggregateError& e) {
    EXPECT_EQ(e.errors().size(), 2u);
    EXPECT_EQ(e.dropped(), 0u);
    const std::string what = e.what();
    EXPECT_NE(what.find("2 parallel_for iterations threw"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("boom 0"), std::string::npos) << what;
    EXPECT_NE(what.find("boom 1"), std::string::npos) << what;
  }
}

TEST(ThreadPool, SingleExceptionKeepsOriginalType) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(0, 100, [&](std::size_t i) {
      if (i == 31) throw std::out_of_range("only one");
    });
    FAIL() << "expected out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "only one");
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 64, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 64);
  }
}

// SWBPBC_THREADS parsing, pure: no pool is built from any value here.
TEST(ThreadCount, UnsetAndEmptyMeanHardwareDefault) {
  const auto unset = parse_thread_count(nullptr);
  ASSERT_TRUE(unset.has_value());
  EXPECT_FALSE(unset->has_value());
  const auto empty = parse_thread_count("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_FALSE(empty->has_value());
}

TEST(ThreadCount, AcceptsDigitsUpToTheCap) {
  const std::string cap = std::to_string(kMaxThreadCount);
  const struct {
    const char* value;
    std::size_t threads;
  } cases[] = {{"0", 0}, {"1", 1}, {"2", 2}, {"007", 7},
               {cap.c_str(), kMaxThreadCount}};
  for (const auto& c : cases) {
    const auto parsed = parse_thread_count(c.value);
    ASSERT_TRUE(parsed.has_value()) << c.value;
    ASSERT_TRUE(parsed->has_value()) << c.value;
    EXPECT_EQ(**parsed, c.threads) << c.value;
  }
}

TEST(ThreadCount, JunkAndOversizeAreTypedInvalidInput) {
  const std::string over = std::to_string(kMaxThreadCount + 1);
  for (const char* bad : {"abc", "4x", " 4", "4 ", "-1", "+4", "0x10",
                          over.c_str(), "100000", "99999999999999999999999"}) {
    const auto parsed = parse_thread_count(bad);
    ASSERT_FALSE(parsed.has_value()) << bad;
    EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidInput) << bad;
    EXPECT_NE(parsed.status().message().find("SWBPBC_THREADS"),
              std::string::npos);
    EXPECT_NE(parsed.status().message().find(bad), std::string::npos);
  }
}

TEST(Rng, DeterministicFromSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversRange) {
  Xoshiro256 rng(7);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 1000; ++i) seen[rng.below(8)]++;
  for (int c : seen) EXPECT_GT(c, 0);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"n", "ms"});
  t.add_row({"1024", "1.50"});
  t.add_row({"65536", "95.25"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| n "), std::string::npos);
  EXPECT_NE(out.find("| 65536 "), std::string::npos);
  EXPECT_NE(out.find("+-"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Options, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--n=42", "--name=abc", "--flag",
                        "positional"};
  Options opt(5, const_cast<char**>(argv));
  EXPECT_EQ(opt.get_int("n", 0), 42);
  EXPECT_EQ(opt.get("name", ""), "abc");
  EXPECT_TRUE(opt.get_bool("flag", false));
  EXPECT_FALSE(opt.get_bool("other", false));
  ASSERT_EQ(opt.positional().size(), 1u);
  EXPECT_EQ(opt.positional()[0], "positional");
}

TEST(Options, IntListParsing) {
  const char* argv[] = {"prog", "--sizes=1,2,3"};
  Options opt(2, const_cast<char**>(argv));
  const auto v = opt.get_int_list("sizes", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[2], 3);
}

TEST(Options, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Options opt(1, const_cast<char**>(argv));
  EXPECT_EQ(opt.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(opt.get_double("missing", 1.5), 1.5);
  const auto v = opt.get_int_list("missing", {9});
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 9);
}

// A program that declares its flags rejects any other --name as a typed
// kInvalidInput naming it, bare or with a value; declared flags parse as
// before.
TEST(Options, UndeclaredFlagIsTypedInvalidInput) {
  const char* good[] = {"prog", "--pairs=64", "--full", "positional"};
  const auto parsed =
      Options::parse(4, const_cast<char**>(good), {"pairs", "full", "m"});
  ASSERT_TRUE(parsed.has_value()) << parsed.status().to_string();
  EXPECT_EQ(parsed->get_int("pairs", 0), 64);
  EXPECT_TRUE(parsed->get_bool("full", false));
  EXPECT_EQ(parsed->positional().size(), 1u);

  for (const char* flag : {"--overlap-depth=3", "--overlap", "--emit-modle"}) {
    const char* argv[] = {"prog", "--pairs=64", flag};
    const auto rejected =
        Options::parse(3, const_cast<char**>(argv), {"pairs", "full"});
    ASSERT_FALSE(rejected.has_value()) << flag;
    EXPECT_EQ(rejected.status().code(), ErrorCode::kInvalidInput) << flag;
    const std::string arg = flag;
    const std::string name = arg.substr(0, arg.find('='));
    EXPECT_NE(rejected.status().message().find(name), std::string::npos)
        << rejected.status().message();
    EXPECT_NE(rejected.status().message().find("--pairs"), std::string::npos)
        << rejected.status().message();
  }
}

TEST(Timer, MeasuresNonNegative) {
  WallTimer t;
  EXPECT_GE(t.elapsed_ms(), 0.0);
  double acc = 0.0;
  { ScopedAccumulator guard(acc); }
  EXPECT_GE(acc, 0.0);
}

}  // namespace
}  // namespace swbpbc::util
