#include "shim/bundle.h"

#include <algorithm>
#include <vector>

namespace nwlb::shim {

double moved_fraction(const RangeTable* a, const RangeTable* b) {
  if (a == nullptr && b == nullptr) return 0.0;
  // Sweep the union of both tables' segment boundaries; inside one segment
  // both lookups are constant, so probing the segment start decides it.
  std::vector<std::uint64_t> bounds;
  bounds.push_back(0);
  const auto collect = [&bounds](const RangeTable* t) {
    if (t == nullptr) return;
    for (const HashRange& r : t->ranges()) {
      bounds.push_back(r.begin);
      bounds.push_back(r.end);
    }
  };
  collect(a);
  collect(b);
  bounds.push_back(kHashSpace);
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  std::uint64_t moved = 0;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    const std::uint64_t begin = bounds[i];
    const std::uint64_t end = bounds[i + 1];
    if (begin >= kHashSpace) break;
    const auto probe = static_cast<std::uint32_t>(begin);
    const Action from = a != nullptr ? a->lookup(probe) : Action::ignore();
    const Action to = b != nullptr ? b->lookup(probe) : Action::ignore();
    if (!(from == to)) moved += end - begin;
  }
  return static_cast<double>(moved) / static_cast<double>(kHashSpace);
}

ChurnReport churn_between(const ConfigBundle& previous, const ConfigBundle& next) {
  ChurnReport report;
  const std::size_t pops = std::max(previous.configs.size(), next.configs.size());
  report.pop_moved.assign(pops, 0.0);
  double total_moved = 0.0;
  static const ShimConfig kEmpty;
  for (std::size_t j = 0; j < pops; ++j) {
    const ShimConfig& before = j < previous.configs.size() ? previous.configs[j] : kEmpty;
    const ShimConfig& after = j < next.configs.size() ? next.configs[j] : kEmpty;
    // Every (class, direction) key present on either side: before's tables
    // against after's, then the keys only after has; a key missing from one
    // side compares against the implicit all-ignore table.  Each fraction
    // is a whole number of 2^-32 units and no sum nears 2^53 of them, so
    // the sums are exact and the report does not depend on walk order.
    double pop_total = 0.0;
    int pop_tables = 0;
    before.for_each_table([&](int class_id, nids::Direction direction,
                              const RangeTable& table) {
      pop_total += moved_fraction(&table, after.table(class_id, direction));
      ++pop_tables;
    });
    after.for_each_table([&](int class_id, nids::Direction direction,
                             const RangeTable& table) {
      if (before.table(class_id, direction) != nullptr) return;
      pop_total += moved_fraction(nullptr, &table);
      ++pop_tables;
    });
    report.tables_compared += pop_tables;
    const double pop_mean =
        pop_tables == 0 ? 0.0 : pop_total / static_cast<double>(pop_tables);
    report.pop_moved[j] = pop_mean;
    if (pop_mean > 0.0) ++report.pops_changed;
    total_moved += pop_total;
  }
  report.moved_fraction = report.tables_compared > 0
                              ? total_moved / static_cast<double>(report.tables_compared)
                              : 0.0;
  return report;
}

}  // namespace nwlb::shim
