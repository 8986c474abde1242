// §8.1 "Shim overhead" microbenchmarks (google-benchmark).
//
// The paper reports the shim adds no packet drops up to 1 Gbps in front of
// a single-threaded Snort/Bro.  The equivalent claim here: hash + class
// range lookup runs at tens of millions of packets per second — orders of
// magnitude above the per-packet budget of a 1 Gbps feed (~83K pkts/s at
// 1500B MTU) — so the decision layer is never the bottleneck; the
// signature engine (also measured below) is.
#include <benchmark/benchmark.h>

#include <vector>

#include "nids/signature.h"
#include "shim/config.h"
#include "shim/hash.h"
#include "shim/shim.h"
#include "util/rng.h"

namespace {

using namespace nwlb;

std::vector<nids::FiveTuple> make_tuples(std::size_t count) {
  nwlb::util::Rng rng(99);
  std::vector<nids::FiveTuple> out(count);
  for (auto& t : out) {
    t.src_ip = static_cast<std::uint32_t>(rng());
    t.dst_ip = static_cast<std::uint32_t>(rng());
    t.src_port = static_cast<std::uint16_t>(rng());
    t.dst_port = static_cast<std::uint16_t>(rng());
    t.protocol = 6;
  }
  return out;
}

void BM_HashTuple(benchmark::State& state) {
  const auto tuples = make_tuples(4096);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shim::hash_tuple(tuples[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashTuple);

void BM_ShimDecide(benchmark::State& state) {
  shim::ShimConfig config;
  shim::RangeTable table;
  const auto third = shim::kHashSpace / 3;
  table.add(shim::HashRange{0, third, shim::Action::process()});
  table.add(shim::HashRange{third, 2 * third, shim::Action::replicate(7)});
  config.set_table(0, table);
  const shim::Shim shim(0, config);
  const auto tuples = make_tuples(4096);
  shim::ShimStats stats;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        shim.decide(0, tuples[i++ & 4095], nids::Direction::kForward, stats));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShimDecide);

void BM_ShimDecideManyClasses(benchmark::State& state) {
  // A realistic config: one table per class for 110 classes (Internet2).
  shim::ShimConfig config;
  for (int c = 0; c < 110; ++c) {
    shim::RangeTable table;
    table.add(shim::HashRange{0, shim::kHashSpace / 2, shim::Action::process()});
    config.set_table(c, std::move(table));
  }
  const shim::Shim shim(0, config);
  const auto tuples = make_tuples(4096);
  shim::ShimStats stats;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shim.decide(static_cast<int>(i % 110), tuples[i & 4095],
                                         nids::Direction::kForward, stats));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShimDecideManyClasses);

void BM_SignatureScan(benchmark::State& state) {
  const nids::SignatureEngine engine(nids::SignatureEngine::default_rules());
  nwlb::util::Rng rng(7);
  std::string payload(static_cast<std::size_t>(state.range(0)), '\0');
  for (auto& ch : payload) ch = static_cast<char>('a' + rng.below(26));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.count_matches(payload));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SignatureScan)->Arg(256)->Arg(1500);

}  // namespace

BENCHMARK_MAIN();
