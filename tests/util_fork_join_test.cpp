// util::ForkJoinTeam: back-to-back regions, exception propagation and
// teardown; util::usable_cpus: the affinity mask is what counts.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "util/cpus.h"
#include "util/fork_join.h"

namespace nwlb::util {
namespace {

// Every region runs each block exactly once, and run() returns only after
// all of them have finished: the caller reads what every block wrote in
// the region that just ended, thousands of times in a row.
TEST(ForkJoinTeam, ThousandsOfBackToBackRegions) {
  constexpr int kRegions = 5000;
  ForkJoinTeam team(3);
  ASSERT_EQ(team.size(), 3);
  struct alignas(64) Slot {
    int last_region = -1;
    long long sum = 0;
  };
  std::vector<Slot> slots(3);
  for (int region = 0; region < kRegions; ++region) {
    team.run([&slots, region](int b) {
      Slot& slot = slots[static_cast<std::size_t>(b)];
      slot.last_region = region;
      slot.sum += region;
    });
    for (const Slot& slot : slots) ASSERT_EQ(slot.last_region, region);
  }
  const long long want = static_cast<long long>(kRegions) * (kRegions - 1) / 2;
  for (const Slot& slot : slots) EXPECT_EQ(slot.sum, want);
}

TEST(ForkJoinTeam, OneBlockRunsOnTheCaller) {
  ForkJoinTeam team(1);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  team.run([&](int b) {
    EXPECT_EQ(b, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

// A helper's exception reaches the caller, but only after the blocks that
// did not throw have finished; the team keeps working afterwards.
TEST(ForkJoinTeam, RethrowsAHelperExceptionAfterTheOtherBlocksFinish) {
  ForkJoinTeam team(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::atomic<int> helper_throws{0};
  std::array<std::atomic<bool>, 3> finished{};
  const auto region = [&](int b) {
    started.fetch_add(1, std::memory_order_relaxed);
    if (b == 0) {
      // Hold the caller in block 0 until helpers have claimed the other
      // two blocks, then finish last: the rethrow must wait for it.
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (started.load(std::memory_order_relaxed) < 3 &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    } else if (std::this_thread::get_id() != caller &&
               helper_throws.fetch_add(1, std::memory_order_relaxed) == 0) {
      throw std::runtime_error("block " + std::to_string(b));
    }
    finished[static_cast<std::size_t>(b)].store(true, std::memory_order_relaxed);
  };
  EXPECT_THROW(team.run(region), std::runtime_error);
  EXPECT_GE(helper_throws.load(std::memory_order_relaxed), 1);
  EXPECT_TRUE(finished[0].load(std::memory_order_relaxed));
  const int others_finished = (finished[1].load(std::memory_order_relaxed) ? 1 : 0) +
                              (finished[2].load(std::memory_order_relaxed) ? 1 : 0);
  EXPECT_EQ(others_finished, 1);

  std::array<int, 3> hits{};
  team.run([&hits](int b) { ++hits[static_cast<std::size_t>(b)]; });
  EXPECT_EQ(hits, (std::array<int, 3>{1, 1, 1}));
}

TEST(ForkJoinTeam, LowestThrowingBlockWins) {
  ForkJoinTeam team(3);
  try {
    team.run([](int b) { throw std::runtime_error("block " + std::to_string(b)); });
    FAIL() << "run() returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "block 0");
  }
}

TEST(ForkJoinTeam, DestroysATeamThatNeverRanARegion) {
  for (int size = 1; size <= 4; ++size) {
    const ForkJoinTeam team(size);
    EXPECT_EQ(team.size(), size);
  }
}

TEST(ForkJoinTeam, RejectsAnEmptyTeam) {
  EXPECT_THROW(ForkJoinTeam(0), std::invalid_argument);
}

#if defined(__linux__)
// Pinned to one CPU, the process may run on one CPU, however many the host
// has; ParallelReplay.AutoWorkerCountResolves checks that replay's auto
// worker count follows.
TEST(UsableCpus, CountsTheAffinityMask) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int pinned = usable_cpus();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);

  EXPECT_EQ(pinned, 1);
  EXPECT_EQ(usable_cpus(), CPU_COUNT(&saved));
}
#endif

}  // namespace
}  // namespace nwlb::util
