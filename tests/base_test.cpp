#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "base/flags.hpp"
#include "base/format.hpp"
#include "base/math.hpp"
#include "base/queue.hpp"
#include "base/rng.hpp"
#include "base/time.hpp"

namespace mgpusw {
namespace {

// ---------------------------------------------------------------------------
// Rng

TEST(RngTest, DeterministicForSameSeed) {
  base::Rng a(123);
  base::Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  base::Rng a(1);
  base::Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextBelowRespectsBound) {
  base::Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowZeroReturnsZero) {
  base::Rng rng(7);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  base::Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.next_double();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, NextRangeInclusive) {
  base::Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t value = rng.next_range(-2, 2);
    EXPECT_GE(value, -2);
    EXPECT_LE(value, 2);
    seen.insert(value);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, BernoulliExtremes) {
  base::Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(RngTest, ReseedResets) {
  base::Rng rng(42);
  const std::uint64_t first = rng.next_u64();
  (void)rng.next_u64();
  rng.reseed(42);
  EXPECT_EQ(rng.next_u64(), first);
}

// ---------------------------------------------------------------------------
// math

TEST(MathTest, DivCeil) {
  EXPECT_EQ(base::div_ceil(0, 4), 0);
  EXPECT_EQ(base::div_ceil(1, 4), 1);
  EXPECT_EQ(base::div_ceil(4, 4), 1);
  EXPECT_EQ(base::div_ceil(5, 4), 2);
  EXPECT_EQ(base::div_ceil(8, 4), 2);
}

TEST(MathTest, RoundUpDown) {
  EXPECT_EQ(base::round_up(5, 4), 8);
  EXPECT_EQ(base::round_up(8, 4), 8);
  EXPECT_EQ(base::round_down(5, 4), 4);
  EXPECT_EQ(base::round_down(8, 4), 8);
}

// ---------------------------------------------------------------------------
// time

TEST(TimeTest, CellsToNs) {
  // 1 GCUPS = 1 cell per nanosecond.
  EXPECT_EQ(base::cells_to_ns(1000, 1.0), 1000);
  EXPECT_EQ(base::cells_to_ns(1000, 2.0), 500);
  EXPECT_EQ(base::cells_to_ns(0, 1.0), 0);
  // Non-empty work never takes zero time.
  EXPECT_GE(base::cells_to_ns(1, 1000.0), 1);
}

TEST(TimeTest, BytesToNs) {
  EXPECT_EQ(base::bytes_to_ns(3'000'000'000LL, 3.0), 1'000'000'000LL);
  EXPECT_GE(base::bytes_to_ns(1, 100.0), 1);
}

TEST(TimeTest, WallTimerAdvances) {
  base::WallTimer timer;
  volatile std::int64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(timer.elapsed_ns(), 0);
}

// ---------------------------------------------------------------------------
// format

TEST(FormatTest, WithThousands) {
  EXPECT_EQ(base::with_thousands(0), "0");
  EXPECT_EQ(base::with_thousands(999), "999");
  EXPECT_EQ(base::with_thousands(1000), "1,000");
  EXPECT_EQ(base::with_thousands(1234567), "1,234,567");
  EXPECT_EQ(base::with_thousands(-1234567), "-1,234,567");
}

TEST(FormatTest, HumanBytes) {
  EXPECT_EQ(base::human_bytes(512), "512 B");
  EXPECT_EQ(base::human_bytes(1536), "1.5 KiB");
  EXPECT_EQ(base::human_bytes(1LL << 20), "1.0 MiB");
}

TEST(FormatTest, HumanBp) {
  EXPECT_EQ(base::human_bp(500), "500 bp");
  EXPECT_EQ(base::human_bp(46'944'323), "46.94 Mbp");
}

TEST(FormatTest, HumanDuration) {
  EXPECT_EQ(base::human_duration(0.0001), "100.0 us");
  EXPECT_EQ(base::human_duration(0.085), "85.0 ms");
  EXPECT_EQ(base::human_duration(12.4), "12.40 s");
  EXPECT_EQ(base::human_duration(200.0), "3m20s");
  EXPECT_EQ(base::human_duration(3720.0), "1h2m");
}

TEST(FormatTest, TextTableAlignsColumns) {
  base::TextTable table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "22"});
  const std::string text = table.str();
  EXPECT_NE(text.find("| name   | value |"), std::string::npos);
  EXPECT_NE(text.find("| longer | 22    |"), std::string::npos);
}

TEST(FormatTest, TextTableRejectsBadRow) {
  base::TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// flags

TEST(FlagsTest, ParsesAllTypes) {
  base::FlagSet flags("test");
  flags.add_int("n", 5, "count");
  flags.add_double("rate", 1.5, "rate");
  flags.add_bool("verbose", false, "verbosity");
  flags.add_string("name", "default", "a name");

  const char* argv[] = {"prog", "--n=7", "--rate", "2.25", "--verbose",
                        "--name=abc", "positional"};
  ASSERT_TRUE(flags.parse(7, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("n"), 7);
  EXPECT_DOUBLE_EQ(flags.get_double("rate"), 2.25);
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_EQ(flags.get_string("name"), "abc");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagsTest, DefaultsSurviveParse) {
  base::FlagSet flags("test");
  flags.add_int("n", 5, "count");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("n"), 5);
}

TEST(FlagsTest, UnknownFlagThrows) {
  base::FlagSet flags("test");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(flags.parse(2, const_cast<char**>(argv)), InvalidArgument);
}

TEST(FlagsTest, MalformedIntThrows) {
  base::FlagSet flags("test");
  flags.add_int("n", 5, "count");
  const char* argv[] = {"prog", "--n=abc"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_THROW((void)flags.get_int("n"), InvalidArgument);
}

TEST(FlagsTest, HelpReturnsFalse) {
  base::FlagSet flags("test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
}

TEST(FlagsTest, ChoiceAcceptsListedValue) {
  base::FlagSet flags("test");
  flags.add_choice("mode", "fast", {"fast", "slow"}, "speed mode");
  const char* argv[] = {"prog", "--mode=slow"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_string("mode"), "slow");
}

TEST(FlagsTest, ChoiceRejectsUnlistedValueAtParseTime) {
  base::FlagSet flags("test");
  flags.add_choice("mode", "fast", {"fast", "slow"}, "speed mode");
  const char* argv[] = {"prog", "--mode=medium"};
  EXPECT_THROW(flags.parse(2, const_cast<char**>(argv)), InvalidArgument);
}

TEST(FlagsTest, ChoiceRejectsBadDefault) {
  base::FlagSet flags("test");
  EXPECT_THROW(flags.add_choice("mode", "medium", {"fast", "slow"}, "m"),
               InvalidArgument);
}

TEST(FlagsTest, ChoiceListedInUsage) {
  base::FlagSet flags("test");
  flags.add_choice("mode", "fast", {"fast", "slow"}, "speed mode");
  EXPECT_NE(flags.usage().find("fast|slow"), std::string::npos);
}

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(QueueTest, FifoOrder) {
  base::BoundedQueue<int> queue(4);
  queue.push(1);
  queue.push(2);
  queue.push(3);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), 3);
}

TEST(QueueTest, CloseDrainsThenStops) {
  base::BoundedQueue<int> queue(4);
  queue.push(1);
  queue.close();
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(QueueTest, PushAfterCloseThrows) {
  base::BoundedQueue<int> queue(4);
  queue.close();
  EXPECT_THROW(queue.push(1), Error);
}

TEST(QueueTest, BlockingPushUnblocksOnPop) {
  base::BoundedQueue<int> queue(1);
  queue.push(1);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    queue.push(2);
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(queue.pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_GT(queue.producer_stall_ns(), 0);
}

TEST(QueueTest, ConsumerStallAccounted) {
  base::BoundedQueue<int> queue(1);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.push(42);
  });
  EXPECT_EQ(queue.pop(), 42);
  producer.join();
  EXPECT_GT(queue.consumer_stall_ns(), 5'000'000);
}

TEST(QueueTest, ManyProducersManyConsumers) {
  base::BoundedQueue<int> queue(8);
  constexpr int kPerProducer = 200;
  constexpr int kProducers = 3;
  std::atomic<int> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        queue.push(p * kPerProducer + i);
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (auto value = queue.pop()) {
        sum += *value;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  queue.close();
  for (auto& thread : consumers) thread.join();
  const int n = kProducers * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(QueueTest, ZeroCapacityRejected) {
  EXPECT_THROW(base::BoundedQueue<int>(0), InvalidArgument);
}

// ---------------------------------------------------------------------------
// error macros

TEST(ErrorTest, CheckThrowsInternalError) {
  EXPECT_THROW([] { MGPUSW_CHECK(1 == 2); }(), InternalError);
}

TEST(ErrorTest, RequireThrowsInvalidArgument) {
  EXPECT_THROW([] { MGPUSW_REQUIRE(false, "nope"); }(), InvalidArgument);
}

TEST(ErrorTest, MessagesCarryContext) {
  try {
    MGPUSW_REQUIRE(false, "value was " << 42);
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("value was 42"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace mgpusw
