#include "util/cpus.h"

#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace nwlb::util {

int usable_cpus(int fallback) {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  // Fails (EINVAL) only on hosts with more CPUs than a cpu_set_t holds.
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int count = CPU_COUNT(&mask);
    if (count > 0) return count;
  }
#endif
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? fallback : static_cast<int>(hw);
}

}  // namespace nwlb::util
