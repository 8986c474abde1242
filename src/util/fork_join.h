// A fork-join team for short parallel regions issued back to back.
//
// run(fn) calls fn(b) once for every block b in [0, size()) and returns
// when all of them have finished.  The caller runs block 0 and then any
// block no helper has claimed yet; the size() - 1 helper threads claim the
// rest.  Which thread runs a block is not fixed, so a block writes only
// state that belongs to it (results indexed by b) and the caller merges
// those in block order after run() returns — the merged result is then the
// same at every team size and on every schedule.
//
// Between regions the helpers spin on a generation counter with a CPU
// pause hint and yield the core every few dozen spins.  A region issued a
// few hundred microseconds after the previous one therefore starts without
// a sleep/wake round trip, at the price of each helper keeping a core busy
// for the team's whole lifetime: build a team around one burst of regions
// (one LP solve, one replay call), not for the life of a program.
//
// An exception escaping a block is rethrown from run() once every other
// block has finished; when several blocks throw, the lowest block's
// exception wins.  run() is called from one thread at a time.  The
// destructor stops and joins the helpers.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace nwlb::util {

class ForkJoinTeam {
 public:
  /// A team of `size` blocks (at least 1): the caller plus `size - 1`
  /// helper threads, started here.
  explicit ForkJoinTeam(int size);
  ~ForkJoinTeam();

  ForkJoinTeam(const ForkJoinTeam&) = delete;
  ForkJoinTeam& operator=(const ForkJoinTeam&) = delete;

  int size() const { return size_; }

  /// Calls fn(b) for every block b in [0, size()), concurrently, and
  /// returns once all have finished.  `fn` is shared by every thread of
  /// the team, so it must be safe to call concurrently.
  template <typename Fn>
  void run(Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    run_erased(&invoke<F>, std::addressof(fn));
  }

 private:
  using Invoker = void (*)(const void* fn, int block);

  template <typename F>
  static void invoke(const void* fn, int block) {
    (*static_cast<F*>(const_cast<void*>(fn)))(block);
  }

  void run_erased(Invoker invoker, const void* fn);
  void helper_loop();
  int claim();
  void run_block(int block);
  void stop_and_join();

  const int size_;
  // The current region, written by the caller between regions only.
  Invoker invoker_ = nullptr;
  const void* fn_ = nullptr;
  std::vector<std::exception_ptr> errors_;  // One slot per block.

  std::atomic<std::uint64_t> generation_{0};  // Bumped once per region.
  std::atomic<int> next_block_{0};            // Next unclaimed block.
  std::atomic<int> blocks_done_{0};           // Finished blocks this region.
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> helpers_;
};

}  // namespace nwlb::util
