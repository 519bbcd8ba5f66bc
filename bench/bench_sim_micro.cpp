// Simulator micro-costs (infrastructure bench): event-queue throughput,
// fluid bandwidth-model updates, bitfield/LRF selection, availability
// updates, tracker sampling, the flow-control eligibility scan, the T-Chain
// transaction table, the invariant checker over a recorded trace.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/bt/bitfield.h"
#include "src/bt/row_kernels.h"
#include "src/bt/swarm.h"
#include "src/check/invariants.h"
#include "src/core/pending.h"
#include "src/core/policy.h"
#include "src/core/transaction.h"
#include "src/net/tracker.h"
#include "src/protocols/tchain.h"
#include "src/sim/bandwidth.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace {

using namespace tc;

void BM_EventScheduleAndRun(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator s;
    for (int i = 0; i < n; ++i) {
      s.schedule_at((i * 2654435761u) % 1000, [] {});
    }
    s.run();
    benchmark::DoNotOptimize(s.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventScheduleAndRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EventCancellation(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    std::vector<sim::Simulator::EventId> ids;
    ids.reserve(10000);
    for (int i = 0; i < 10000; ++i)
      ids.push_back(s.schedule_at(i, [] {}));
    for (std::size_t i = 0; i < ids.size(); i += 2) s.cancel(ids[i]);
    s.run();
    benchmark::DoNotOptimize(s.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventCancellation);

void BM_BandwidthFlowChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    sim::BandwidthModel bw(s);
    for (sim::NodeId u = 1; u <= 20; ++u) bw.set_capacity(u, 100'000.0);
    int completed = 0;
    for (int i = 0; i < 2000; ++i) {
      bw.start_flow(1 + static_cast<sim::NodeId>(i % 20),
                    100 + static_cast<sim::NodeId>(i % 50), 65536.0,
                    [&](sim::FlowId) { ++completed; });
    }
    s.run();
    benchmark::DoNotOptimize(completed);
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_BandwidthFlowChurn);

void BM_BitfieldMissingFrom(benchmark::State& state) {
  const auto pieces = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  bt::Bitfield mine(pieces), theirs(pieces);
  for (std::size_t i = 0; i < pieces; ++i) {
    if (rng.bernoulli(0.5)) mine.set(static_cast<bt::PieceIndex>(i));
    if (rng.bernoulli(0.7)) theirs.set(static_cast<bt::PieceIndex>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mine.missing_from(theirs));
  }
}
BENCHMARK(BM_BitfieldMissingFrom)->Arg(512)->Arg(2048);

// Swarm::connect/disconnect/cut_off's availability update: one
// neighbour's have set added into a per-piece counter row. Arg 0 picks the
// kernel (0: the scalar per-set-bit loop, 1: the one Bitfield::add_to
// dispatches to), arg 1 the piece count, arg 2 the have set's density in
// percent (36 % and 69 % are the mean densities of the sets the
// sim-attack-churn and sim-flash-tchain workloads add).
void BM_AvailabilityRowUpdate(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  const auto pieces = static_cast<std::size_t>(state.range(1));
  const double density = static_cast<double>(state.range(2)) / 100.0;
  util::Rng rng(3);
  bt::Bitfield have(pieces);
  std::vector<std::uint64_t> words((pieces + 63) / 64, 0);
  for (std::size_t i = 0; i < pieces; ++i) {
    if (!rng.bernoulli(density)) continue;
    have.set(static_cast<bt::PieceIndex>(i));
    words[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  std::vector<std::uint32_t> row(pieces, 0);
  std::uint32_t delta = 1;
  for (auto _ : state) {
    if (dispatched) {
      have.add_to(row, static_cast<std::int32_t>(delta));
    } else {
      bt::detail::row_add_scalar(words.data(), pieces, row.data(), delta);
    }
    delta = 0u - delta;  // alternate +1 and -1: the row stays bounded
    benchmark::DoNotOptimize(row.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(dispatched ? bt::detail::row_add_kernel_name() : "scalar");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(have.count()));
}
BENCHMARK(BM_AvailabilityRowUpdate)
    ->ArgNames({"dispatched", "pieces", "density_pct"})
    ->ArgsProduct({{0, 1}, {256, 2048}, {36, 69}});

void BM_TrackerNeighborList(benchmark::State& state) {
  net::Tracker tracker;
  for (net::PeerId p = 1; p <= static_cast<net::PeerId>(state.range(0)); ++p)
    tracker.announce(p);
  util::Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.neighbor_list(1, rng));
  }
}
// 401 members is a sim-flash-tchain swarm: the rejection sampler's regime.
BENCHMARK(BM_TrackerNeighborList)->Arg(401)->Arg(1000)->Arg(10000);

// One flow-control pass as choose_payee makes it: eligible() for each of a
// donor's 49 neighbours, against a tracker holding 21 outstanding counts,
// 3 of them at the cap (the mean shape of a sim-flash-tchain donor).
void BM_FlowControlScan(benchmark::State& state) {
  std::vector<net::PeerId> neighbors;
  for (net::PeerId n = 1; n <= 49; ++n) neighbors.push_back(n);
  util::Rng rng(3);
  rng.shuffle(neighbors);
  core::PendingTracker pending(core::kPendingCap);
  for (std::size_t i = 0; i < 21; ++i) {
    const int adds = i < 3 ? core::kPendingCap : 1;
    for (int a = 0; a < adds; ++a) pending.add(neighbors[i]);
  }
  rng.shuffle(neighbors);
  for (auto _ : state) {
    int eligible = 0;
    for (net::PeerId n : neighbors) eligible += pending.eligible(n);
    benchmark::DoNotOptimize(eligible);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(neighbors.size()));
}
BENCHMARK(BM_FlowControlScan);

// A donor's pending churn: a tracker holding 21 outstanding counts, 3 of
// them at the cap, and one resolve/add pair per count in shuffled order.
// The at-cap counts drop below the cap and climb back; the others drop to
// zero and return. One item is one pair.
void BM_PendingTrackerResolve(benchmark::State& state) {
  std::vector<net::PeerId> held;
  for (net::PeerId n = 1; n <= 49; ++n) held.push_back(n);
  util::Rng rng(5);
  rng.shuffle(held);
  held.resize(21);
  core::PendingTracker pending(core::kPendingCap);
  for (std::size_t i = 0; i < held.size(); ++i) {
    const int adds = i < 3 ? core::kPendingCap : 1;
    for (int a = 0; a < adds; ++a) pending.add(held[i]);
  }
  rng.shuffle(held);
  for (auto _ : state) {
    for (net::PeerId n : held) {
      pending.resolve(n);
      pending.add(n);
    }
    benchmark::DoNotOptimize(pending.pending(held.front()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(held.size()));
}
BENCHMARK(BM_PendingTrackerResolve);

// core::TransactionTable over a sliding window of live transactions, the
// size a sim-flash-tchain swarm holds mid-run. One op: create the newest
// transaction, get() a live one, erase the oldest. Ids name pool slots, not
// creation order, so the window's ids are kept in a ring.
void BM_TransactionTableChurn(benchmark::State& state) {
  const auto window = static_cast<std::size_t>(state.range(0));
  constexpr std::uint32_t kPeers = 400;
  core::TransactionTable txs;
  std::uint32_t k = 0;
  auto create = [&] {
    ++k;
    const auto d = static_cast<net::PeerId>((k * 2654435761u) % kPeers);
    const auto r = static_cast<net::PeerId>((d + 1 + k % 53) % kPeers);
    const auto p = static_cast<net::PeerId>((r + 1 + k % 97) % kPeers);
    return txs.create(1, d, r, p, k % 1024, 0, 0.0).id;
  };
  std::vector<core::TxId> ring(window);  // ring[oldest] is the oldest id
  for (core::TxId& id : ring) id = create();
  std::size_t oldest = 0;
  for (auto _ : state) {
    const core::TxId gone = ring[oldest];
    ring[oldest] = create();
    oldest = (oldest + 1) % window;
    benchmark::DoNotOptimize(txs.get(ring[(k * 40503u) % window]));
    txs.erase(gone);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransactionTableChurn)->Arg(7000);

// check::check_events over the full event stream of one T-Chain flash crowd
// (args: leechers, file MiB; 64 KiB pieces, seed 1). The swarm runs once,
// outside the timed loop; one item is one event checked. 400 x 16 MiB is
// one swarm of perfbench's sim-flash-tchain (about 745 k events); the small
// shape (about 48 k events) keeps the checker's tables far smaller than a
// checked run of that workload grows them.
void BM_CheckerReplay(benchmark::State& state) {
  bt::SwarmConfig cfg;
  cfg.leecher_count = static_cast<std::size_t>(state.range(0));
  cfg.file_bytes = static_cast<util::ByteCount>(state.range(1)) * util::kMiB;
  cfg.piece_bytes = 64 * util::kKiB;
  cfg.seed = 1;
  protocols::TChainProtocol proto;
  bt::Swarm swarm(cfg, proto);
  // Room for every event of the larger shape, so the ring never wraps.
  obs::TraceConfig trace;
  trace.ring_capacity = std::size_t{1} << 21;
  swarm.enable_obs(trace);
  swarm.run();
  if (swarm.obs()->ring().dropped() != 0) {
    state.SkipWithError("trace ring wrapped");
    return;
  }
  const std::vector<obs::TraceEvent> events = swarm.obs()->events();
  for (auto _ : state) {
    const check::CheckReport report = check::check_events(events);
    if (!report.clean()) state.SkipWithError("checker found violations");
    benchmark::DoNotOptimize(report.events);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_CheckerReplay)
    ->Args({100, 4})
    ->Args({400, 16})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
