#include "util/fork_join.h"

#include <algorithm>

#include "util/check.h"

namespace nwlb::util {
namespace {

// A waiting thread pauses this many times between yields of its core.
constexpr unsigned kSpinsPerYield = 64;

/// `spins` is unsigned so that an arbitrarily long wait wraps, not overflows.
void backoff(unsigned& spins) {
  if (++spins % kSpinsPerYield == 0) {
    std::this_thread::yield();
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

}  // namespace

ForkJoinTeam::ForkJoinTeam(int size)
    : size_(size), errors_(static_cast<std::size_t>(std::max(size, 1))) {
  NWLB_CHECK_GE(size, 1, "ForkJoinTeam: need at least one block");
  helpers_.reserve(static_cast<std::size_t>(size - 1));
  try {
    for (int i = 1; i < size; ++i) helpers_.emplace_back([this] { helper_loop(); });
  } catch (...) {
    stop_and_join();  // The helpers already started must not outlive a failed constructor.
    throw;
  }
}

ForkJoinTeam::~ForkJoinTeam() { stop_and_join(); }

void ForkJoinTeam::stop_and_join() {
  // Relaxed: a helper only needs to see the flag eventually; join() is the
  // synchronization point.
  stopping_.store(true, std::memory_order_relaxed);
  for (std::thread& helper : helpers_) helper.join();
}

void ForkJoinTeam::run_erased(Invoker invoker, const void* fn) {
  invoker_ = invoker;
  fn_ = fn;
  blocks_done_.store(0, std::memory_order_relaxed);
  // nwlb-analyze: order(release: a helper whose claim reads this value sees invoker_, fn_ and the blocks_done_ reset above)
  next_block_.store(1, std::memory_order_release);
  // nwlb-analyze: order(release: a helper that sees the new generation claims after the next_block_ reset above, never before it)
  generation_.fetch_add(1, std::memory_order_release);

  run_block(0);
  for (int block = claim(); block < size_; block = claim()) run_block(block);
  unsigned spins = 0;
  // nwlb-analyze: order(acquire: pairs with every block's release increment, so all block writes and errors_ slots are visible below)
  while (blocks_done_.load(std::memory_order_acquire) < size_) backoff(spins);

  std::exception_ptr first;
  for (std::exception_ptr& error : errors_) {
    if (error != nullptr && first == nullptr) first = error;
    error = nullptr;
  }
  if (first != nullptr) std::rethrow_exception(first);
}

void ForkJoinTeam::helper_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    unsigned spins = 0;
    std::uint64_t generation = 0;
    // nwlb-analyze: order(acquire: pairs with the caller's release bump, so the claims below read this region's next_block_ reset)
    while ((generation = generation_.load(std::memory_order_acquire)) == seen) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      backoff(spins);
    }
    seen = generation;
    for (int block = claim(); block < size_; block = claim()) run_block(block);
  }
}

int ForkJoinTeam::claim() {
  // A claim below size_ belongs to a region that cannot finish before this
  // block does, so invoker_ and fn_ stay that region's until run_block ends.
  // nwlb-analyze: order(acquire: pairs with the region's release reset of next_block_, publishing invoker_ and fn_)
  return next_block_.fetch_add(1, std::memory_order_acquire);
}

void ForkJoinTeam::run_block(int block) {
  try {
    invoker_(fn_, block);
  } catch (...) {
    errors_[static_cast<std::size_t>(block)] = std::current_exception();
  }
  // nwlb-analyze: order(release: publishes the block's writes and its errors_ slot to the caller's acquire load)
  blocks_done_.fetch_add(1, std::memory_order_release);
}

}  // namespace nwlb::util
