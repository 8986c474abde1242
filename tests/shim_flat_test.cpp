// Property tests for the compiled flat fast-path tables: FlatConfig must
// agree with the reference RangeTable/ShimConfig lookup on every input —
// random hashes, the extremes of the hash space, and every range edge —
// and Shim::decide_hashed_repeat, the one decide path, must give the
// reference verdict and account exactly like repeated scalar decide()
// calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "shim/config.h"
#include "shim/flat_table.h"
#include "shim/shim.h"
#include "util/rng.h"

namespace nwlb::shim {
namespace {

/// Builds a randomized config: a random subset of classes, each with a
/// random partition of the hash space into process/replicate/ignore
/// segments (explicit gaps included), sometimes with distinct per-direction
/// tables.
ShimConfig random_config(nwlb::util::Rng& rng) {
  ShimConfig config;
  const int classes = static_cast<int>(rng.range(1, 40));
  for (int c = 0; c < classes; ++c) {
    if (rng.bernoulli(0.2)) continue;  // Class not handled at this node.
    const bool split_directions = rng.bernoulli(0.3);
    const int num_dirs = split_directions ? 2 : 1;
    for (int d = 0; d < num_dirs; ++d) {
      RangeTable table;
      std::uint64_t cursor = 0;
      while (cursor < kHashSpace) {
        // Random segment length; bias toward both tiny and huge segments.
        const std::uint64_t max_len = kHashSpace - cursor;
        std::uint64_t len = rng.bernoulli(0.3)
                                ? rng.below(1024) + 1
                                : rng.below(max_len) + 1;
        if (len > max_len) len = max_len;
        const double coin = rng.uniform();
        if (coin < 0.4)
          table.add(HashRange{cursor, cursor + len, Action::process()});
        else if (coin < 0.7)
          table.add(HashRange{cursor, cursor + len,
                              Action::replicate(static_cast<int>(rng.below(16)))});
        // else: leave a gap (implicit ignore).
        cursor += len;
      }
      if (split_directions)
        config.set_table(c, d == 0 ? nids::Direction::kForward : nids::Direction::kReverse,
                         table);
      else
        config.set_table(c, table);
    }
  }
  return config;
}

/// The hard probes for a config: both hash-space extremes plus every range
/// begin and end ±1 from every table, sorted and deduplicated.
std::vector<std::uint32_t> boundary_probes(const ShimConfig& config) {
  std::vector<std::uint32_t> probes{0u, 0xffffffffu};
  config.for_each_table([&](int, nids::Direction, const RangeTable& table) {
    for (const HashRange& range : table.ranges())
      for (const std::uint64_t edge : {range.begin, range.end})
        for (const std::uint64_t probe : {edge - 1, edge, edge + 1})
          if (probe <= 0xffffffffu) probes.push_back(static_cast<std::uint32_t>(probe));
  });
  std::sort(probes.begin(), probes.end());
  probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
  return probes;
}

TEST(FlatConfig, MatchesReferenceLookupOnRandomInputs) {
  nwlb::util::Rng rng(0xf1a7);
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const ShimConfig config = random_config(rng);
    const FlatConfig flat(config);
    const int max_class = 45;  // Beyond any installed class id.
    for (int i = 0; i < 2500; ++i) {
      const int class_id = static_cast<int>(rng.range(-2, max_class));
      const auto dir =
          rng.bernoulli(0.5) ? nids::Direction::kForward : nids::Direction::kReverse;
      const auto hash = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(flat.lookup(class_id, dir, hash), config.lookup(class_id, dir, hash))
          << "trial=" << trial << " class=" << class_id << " hash=" << hash;
      ++checked;
    }
    // One more input: the boundary probes of every table, against every
    // class id (installed or not) and both directions.
    for (const std::uint32_t hash : boundary_probes(config))
      for (int class_id = -2; class_id < max_class; ++class_id)
        for (const auto dir : {nids::Direction::kForward, nids::Direction::kReverse})
          ASSERT_EQ(flat.lookup(class_id, dir, hash), config.lookup(class_id, dir, hash))
              << "trial=" << trial << " class=" << class_id << " boundary hash=" << hash;
  }
  EXPECT_EQ(checked, 100000);
}

TEST(FlatConfig, MatchesReferenceAtExtremesAndRangeEdges) {
  nwlb::util::Rng rng(0xed6e);
  for (int trial = 0; trial < 25; ++trial) {
    const ShimConfig config = random_config(rng);
    const FlatConfig flat(config);
    config.for_each_table([&](int class_id, nids::Direction dir, const RangeTable& table) {
      std::vector<std::uint32_t> probes{0u, 0xffffffffu};
      for (const HashRange& range : table.ranges()) {
        probes.push_back(static_cast<std::uint32_t>(range.begin));
        if (range.begin > 0)
          probes.push_back(static_cast<std::uint32_t>(range.begin - 1));
        probes.push_back(static_cast<std::uint32_t>(range.end - 1));
        if (range.end < kHashSpace)
          probes.push_back(static_cast<std::uint32_t>(range.end));
      }
      for (const std::uint32_t hash : probes)
        ASSERT_EQ(flat.lookup(class_id, dir, hash), config.lookup(class_id, dir, hash))
            << "trial=" << trial << " class=" << class_id << " hash=" << hash;
    });
  }
}

TEST(FlatConfig, EmptyAndMissingClassesIgnore) {
  const FlatConfig empty{ShimConfig{}};
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.lookup(0, nids::Direction::kForward, 123).kind, Action::Kind::kIgnore);

  ShimConfig config;
  RangeTable table;
  table.add(HashRange{0, kHashSpace, Action::process()});
  config.set_table(7, nids::Direction::kForward, table);
  const FlatConfig flat(config);
  EXPECT_FALSE(flat.empty());
  // Installed class/direction processes; everything else ignores.
  EXPECT_EQ(flat.lookup(7, nids::Direction::kForward, 0).kind, Action::Kind::kProcess);
  EXPECT_EQ(flat.lookup(7, nids::Direction::kReverse, 0).kind, Action::Kind::kIgnore);
  EXPECT_EQ(flat.lookup(6, nids::Direction::kForward, 0).kind, Action::Kind::kIgnore);
  EXPECT_EQ(flat.lookup(-1, nids::Direction::kForward, 0).kind, Action::Kind::kIgnore);
  EXPECT_EQ(flat.lookup(1 << 20, nids::Direction::kForward, 0).kind,
            Action::Kind::kIgnore);
}

TEST(Shim, HashedBatchMatchesScalarDecideAndCountsPackets) {
  // A batch of sessions, each a run of packets of one 5-tuple, decided the
  // way the replay decides them: one decide_hashed_repeat per run on the
  // tuple's hash.  Each verdict matches scalar decide() and follows the
  // half of the hash space the hash falls in, and the counters add up to
  // every packet of the batch.
  ShimConfig config;
  RangeTable table;
  table.add(HashRange{0, kHashSpace / 2, Action::process()});
  table.add(HashRange{kHashSpace / 2, kHashSpace, Action::replicate(3)});
  config.set_table(0, table);
  const Shim shim(1, config);

  nwlb::util::Rng rng(5);
  std::uint64_t packets = 0;
  std::uint64_t low_half_packets = 0;
  ShimStats hashed_stats;
  for (int session = 0; session < 256; ++session) {
    nids::FiveTuple tuple;
    tuple.src_ip = static_cast<std::uint32_t>(rng());
    tuple.dst_ip = static_cast<std::uint32_t>(rng());
    tuple.src_port = static_cast<std::uint16_t>(rng());
    tuple.dst_port = static_cast<std::uint16_t>(rng());
    tuple.protocol = 6;
    const std::uint64_t count = 1 + rng.below(8);
    ShimStats scalar_stats;
    const Decision d = shim.decide(0, tuple, nids::Direction::kForward, scalar_stats);
    ASSERT_EQ(d.hash, hash_tuple(tuple));
    const bool low_half = d.hash < kHashSpace / 2;
    ASSERT_EQ(d.action, low_half ? Action::process() : Action::replicate(3));
    ASSERT_EQ(shim.decide_hashed_repeat(0, nids::Direction::kForward, d.hash, count,
                                        hashed_stats),
              d.action)
        << "session=" << session;
    packets += count;
    if (low_half) low_half_packets += count;
  }
  EXPECT_EQ(hashed_stats.packets_seen, packets);
  EXPECT_EQ(hashed_stats.decided_process, low_half_packets);
  EXPECT_EQ(hashed_stats.decided_replicate, packets - low_half_packets);
  EXPECT_EQ(hashed_stats.decided_ignore, 0u);
  EXPECT_GT(low_half_packets, 0u);
  EXPECT_LT(low_half_packets, packets);
}

// The ShimSimd cases once held the batch decide kernels to the scalar
// lookup.  The kernels are gone; these cases hold the one decide path left
// — Shim::decide_hashed_repeat over the shim's compiled FlatConfig — to
// the same oracles: the reference ShimConfig lookup and scalar decide().

TEST(ShimSimd, AllBackendsMatchScalarOracleOnRandomConfigs) {
  // Through a Shim compiled from random configs: every boundary probe plus
  // random fill, for every class id (configured or not) and both
  // directions.
  nwlb::util::Rng rng(0x51d3);
  std::uint64_t probes_checked = 0;
  ShimStats stats;
  for (int trial = 0; trial < 12; ++trial) {
    const ShimConfig config = random_config(rng);
    const Shim shim(0, config);
    std::vector<std::uint32_t> hashes = boundary_probes(config);
    for (int i = 0; i < 1024; ++i) hashes.push_back(static_cast<std::uint32_t>(rng()));
    for (int class_id = -1; class_id < 42; ++class_id)
      for (const auto dir : {nids::Direction::kForward, nids::Direction::kReverse})
        for (const std::uint32_t hash : hashes) {
          ASSERT_EQ(shim.decide_hashed_repeat(class_id, dir, hash, 1, stats),
                    config.lookup(class_id, dir, hash))
              << "trial=" << trial << " class=" << class_id << " hash=" << hash;
          ++probes_checked;
        }
  }
  EXPECT_GE(probes_checked, 100000u);
  EXPECT_EQ(stats.packets_seen, probes_checked);
  EXPECT_EQ(stats.decided_process + stats.decided_replicate + stats.decided_ignore,
            probes_checked);
}

TEST(ShimSimd, EqualHashRunsMatchScalar) {
  // The replay's shape: runs of one hash value, one run per session
  // direction.  Deciding a run once with its length gives the oracle's
  // verdict and accounts exactly like deciding each packet of it alone.
  nwlb::util::Rng rng(0x9a110);
  const ShimConfig config = random_config(rng);
  const Shim shim(0, config);
  for (int class_id = 0; class_id < 8; ++class_id) {
    ShimStats per_run;
    ShimStats per_packet;
    std::uint64_t packets = 0;
    while (packets < 20000) {
      const auto hash = static_cast<std::uint32_t>(rng());
      const std::uint64_t run = 1 + rng.below(24);
      const Action want = config.lookup(class_id, nids::Direction::kForward, hash);
      ASSERT_EQ(shim.decide_hashed_repeat(class_id, nids::Direction::kForward, hash, run,
                                          per_run),
                want)
          << "class=" << class_id << " hash=" << hash;
      for (std::uint64_t i = 0; i < run; ++i)
        ASSERT_EQ(shim.decide_hashed_repeat(class_id, nids::Direction::kForward, hash, 1,
                                            per_packet),
                  want);
      packets += run;
    }
    EXPECT_EQ(per_run.packets_seen, packets);
    EXPECT_EQ(per_packet.packets_seen, packets);
    EXPECT_EQ(per_run.decided_process, per_packet.decided_process);
    EXPECT_EQ(per_run.decided_replicate, per_packet.decided_replicate);
    EXPECT_EQ(per_run.decided_ignore, per_packet.decided_ignore);
  }
}

TEST(ShimSimd, UninstalledSlotsResolveToIgnoreOnEveryBackend) {
  // A shim compiled from an empty config, and every slot a config
  // leaves empty (an absent direction, absent classes, negative and huge
  // class ids), decide ignore by hash and by tuple, and count as ignore.
  ShimConfig config;
  RangeTable table;
  table.add(HashRange{0, kHashSpace, Action::process()});
  config.set_table(3, nids::Direction::kForward, table);
  const Shim installed(0, config);
  const Shim uninstalled(1, ShimConfig{});

  struct Slot {
    const Shim* shim;
    int class_id;
    nids::Direction dir;
  };
  const Slot slots[] = {
      {&uninstalled, 3, nids::Direction::kForward},
      {&installed, 3, nids::Direction::kReverse},
      {&installed, 2, nids::Direction::kForward},
      {&installed, 4, nids::Direction::kForward},
      {&installed, -1, nids::Direction::kForward},
      {&installed, 1 << 20, nids::Direction::kForward},
  };
  nids::FiveTuple tuple;
  tuple.src_ip = 42;
  tuple.dst_ip = 7;
  tuple.protocol = 6;
  ShimStats stats;
  for (const Slot& slot : slots) {
    for (const std::uint32_t hash : {0u, 42u, 0xffffffffu})
      EXPECT_EQ(slot.shim->decide_hashed_repeat(slot.class_id, slot.dir, hash, 100, stats),
                Action::ignore())
          << "class=" << slot.class_id << " hash=" << hash;
    EXPECT_EQ(slot.shim->decide(slot.class_id, tuple, slot.dir, stats).action,
              Action::ignore())
        << "class=" << slot.class_id;
  }
  const std::uint64_t packets = std::size(slots) * (3 * 100 + 1);
  EXPECT_EQ(stats.packets_seen, packets);
  EXPECT_EQ(stats.decided_ignore, packets);
  // The installed slot itself processes, so the ignores above are the
  // empty slots' doing.
  EXPECT_EQ(installed.decide_hashed_repeat(3, nids::Direction::kForward, 42, 1, stats),
            Action::process());
}

TEST(ShimSimd, DecideHashedRepeatMatchesBatch) {
  // decide_hashed_repeat is the replay's only decide call: one probe per
  // session direction stands for a batch of `count` packets of one
  // 5-tuple.  It must return the verdict scalar decide() gives that tuple
  // and move all four counters exactly as `count` decide() calls would.
  nwlb::util::Rng rng(0x2e9ea7);
  const ShimConfig config = random_config(rng);
  const Shim shim(0, config);
  for (int trial = 0; trial < 400; ++trial) {
    const int class_id = static_cast<int>(rng.range(-1, 42));
    const auto dir =
        rng.bernoulli(0.5) ? nids::Direction::kForward : nids::Direction::kReverse;
    nids::FiveTuple tuple;
    tuple.src_ip = static_cast<std::uint32_t>(rng());
    tuple.dst_ip = static_cast<std::uint32_t>(rng());
    tuple.src_port = static_cast<std::uint16_t>(rng());
    tuple.dst_port = static_cast<std::uint16_t>(rng());
    tuple.protocol = rng.bernoulli(0.5) ? 6 : 17;
    const std::uint64_t count = rng.below(40);
    ShimStats scratch;
    const Decision want = shim.decide(class_id, tuple, dir, scratch);
    ASSERT_EQ(want.hash, hash_tuple(tuple));
    ShimStats scalar_stats;
    for (std::uint64_t k = 0; k < count; ++k)
      ASSERT_EQ(shim.decide(class_id, tuple, dir, scalar_stats).action, want.action);
    ShimStats repeat_stats;
    EXPECT_EQ(shim.decide_hashed_repeat(class_id, dir, want.hash, count, repeat_stats),
              want.action)
        << "trial=" << trial;
    EXPECT_EQ(repeat_stats.packets_seen, count);
    EXPECT_EQ(repeat_stats.packets_seen, scalar_stats.packets_seen);
    EXPECT_EQ(repeat_stats.decided_process, scalar_stats.decided_process);
    EXPECT_EQ(repeat_stats.decided_replicate, scalar_stats.decided_replicate);
    EXPECT_EQ(repeat_stats.decided_ignore, scalar_stats.decided_ignore);
  }
}

}  // namespace
}  // namespace nwlb::shim
