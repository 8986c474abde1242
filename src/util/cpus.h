// How many CPUs this process may run on.
#pragma once

namespace nwlb::util {

/// The number of CPUs in the calling thread's affinity mask (so a process
/// started under `taskset -c 0` counts 1), else
/// std::thread::hardware_concurrency(), else `fallback` when neither is
/// known.
int usable_cpus(int fallback = 4);

}  // namespace nwlb::util
