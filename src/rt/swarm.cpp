#include "src/rt/swarm.h"

#include <cmath>
#include <memory>
#include <utility>

#include "src/core/policy.h"
#include "src/rt/reactor.h"
#include "src/rt/swarm_context.h"
#include "src/rt/tracker_service.h"

namespace tc::rt {

SwarmResult run_local_swarm(const SwarmOptions& opts) {
  // Destruction order matters: nodes and the tracker unregister their fds
  // and timers in their destructors, so the reactor must outlive them.
  Reactor reactor;

  obs::TraceConfig tcfg;
  tcfg.enabled = true;
  tcfg.kind_mask = obs::kAllKinds;
  obs::Trace trace(tcfg);

  check::CheckerOptions copts;
  copts.pending_cap = core::kPendingCap;
  check::Checker checker(copts);
  trace.set_sink(&checker);

  SwarmContext ctx(reactor, &trace,
                   core::SwarmFileMeta::make(opts.piece_count,
                                             opts.piece_bytes, opts.seed),
                   "rt-local-swarm");

  TrackerService tracker(reactor, TrackerService::Options{});

  const std::size_t leechers = opts.peers > 0 ? opts.peers - 1 : 0;
  std::size_t completed = 0;

  std::vector<std::unique_ptr<PeerNode>> nodes;
  nodes.reserve(opts.peers);

  // Once every leecher holds the file, stop on the settlement that closes
  // the last open donor transaction (a receipt's key release or a gratis
  // settlement), so the checker sees closed escrows instead of end-of-run
  // warnings. kDrainGrace bounds the wait for one that never settles.
  static constexpr double kDrainGrace = 2.0;
  const auto stop_if_settled = [&] {
    if (completed < leechers) return;
    for (const auto& n : nodes) {
      if (n->open_donor_txs() != 0) return;
    }
    reactor.stop();
  };

  for (std::size_t i = 0; i < opts.peers; ++i) {
    PeerNode::Options popts;
    popts.id = static_cast<net::PeerId>(i + 1);
    popts.seeder = (i == 0);
    popts.tracker_port = tracker.port();
    popts.watchdog_seconds = opts.watchdog_seconds;
    popts.seed = opts.seed * 1000003ull + popts.id;
    popts.on_complete = [&](net::PeerId) {
      if (++completed != leechers) return;
      reactor.schedule(kDrainGrace, [&reactor] { reactor.stop(); });
      stop_if_settled();
    };
    popts.on_settled = [&](net::PeerId) { stop_if_settled(); };
    nodes.push_back(std::make_unique<PeerNode>(ctx, popts));
  }
  for (auto& n : nodes) n->start();

  reactor.schedule(opts.deadline_seconds, [&reactor] { reactor.stop(); });
  if (leechers == 0) reactor.post([&reactor] { reactor.stop(); });

  reactor.run();

  SwarmResult res;
  res.wall_seconds = reactor.now();
  res.all_complete = true;
  for (const auto& n : nodes) {
    PeerStat s;
    s.id = n->id();
    s.seeder = n->seeder();
    s.complete = n->complete();
    s.finish_seconds = n->finish_time();
    if (!s.complete) res.all_complete = false;
    res.peers.push_back(s);
  }

  obs::Registry& reg = trace.registry();
  reg.counter("rt.reactor_turns").inc(reactor.turns());
  reg.counter("rt.reactor_events").inc(reactor.events());
  reg.counter("rt.reactor_turn_max_ms")
      .inc(static_cast<std::uint64_t>(
          std::ceil(reactor.turn_max_seconds() * 1e3)));
  if (tracker.accept_emfile() != 0)
    reg.counter("rt.accept_emfile").inc(tracker.accept_emfile());

  trace.set_sink(nullptr);
  res.events = trace.events();
  res.events_recorded = trace.ring().recorded();
  res.events_dropped = trace.ring().dropped();
  res.metrics = trace.snapshot();
  res.check = checker.finish();
  return res;
}

}  // namespace tc::rt
