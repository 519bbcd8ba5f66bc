// End-to-end coverage of the live deployment runtime: a real multi-peer
// swarm over loopback sockets must reach 100% on every leecher, the live
// invariant checker must PASS the run, and the exported trace must
// round-trip through the CSV codec into the same verdict offline.
#include "src/rt/swarm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/bt/bitfield.h"
#include "src/check/invariants.h"
#include "src/obs/export.h"
#include "src/rt/frame_conn.h"
#include "src/rt/peer_node.h"
#include "src/rt/swarm_context.h"
#include "src/rt/tracker_service.h"

namespace tc::rt {
namespace {

double metric(const std::vector<std::pair<std::string, double>>& metrics,
              const std::string& name) {
  for (const auto& [key, value] : metrics) {
    if (key == name) return value;
  }
  return -1.0;
}

SwarmOptions small_swarm() {
  SwarmOptions opts;
  opts.peers = 4;
  opts.piece_count = 8;
  opts.piece_bytes = 4 * 1024;
  opts.seed = 7;
  opts.deadline_seconds = 60.0;  // generous; loaded CI machines stall
  return opts;
}

TEST(LiveSwarm, FourPeersCompleteAndVerifySound) {
  const SwarmResult res = run_local_swarm(small_swarm());

  ASSERT_EQ(res.peers.size(), 4u);
  EXPECT_TRUE(res.all_complete);
  for (const PeerStat& p : res.peers) {
    EXPECT_TRUE(p.complete) << "peer " << p.id;
    if (!p.seeder && p.complete) {
      EXPECT_GE(p.finish_seconds, 0.0);
      EXPECT_LE(p.finish_seconds, res.wall_seconds);
    }
  }

  // Live online verification: lossless sink => sound, and the protocol
  // implementation must not violate any invariant.
  EXPECT_TRUE(res.check.sound);
  EXPECT_EQ(res.check.total_violations, 0u) << res.check.findings.size();
  EXPECT_STREQ(res.check.verdict(), "PASS");
  EXPECT_EQ(res.events_dropped, 0u);
  EXPECT_GT(res.events_recorded, 0u);

  // Each pair dials exactly once, from the tracker's lists alone.
  EXPECT_EQ(metric(res.metrics, "rt.dials"), 6.0);
  EXPECT_EQ(metric(res.metrics, "rt.conns_accepted"), 6.0);
}

TEST(LiveSwarm, TraceRoundTripsThroughCsvToSameVerdict) {
  const SwarmResult res = run_local_swarm(small_swarm());
  ASSERT_TRUE(res.all_complete);
  ASSERT_EQ(res.events_dropped, 0u);

  std::stringstream csv;
  obs::write_event_csv(csv, res.events);
  const std::vector<obs::TraceEvent> replayed = obs::read_event_csv(csv);
  ASSERT_EQ(replayed.size(), res.events.size());

  const check::CheckReport offline = check::check_events(replayed, 0);
  EXPECT_TRUE(offline.sound);
  EXPECT_EQ(offline.total_violations, 0u);
  EXPECT_STREQ(offline.verdict(), "PASS");
}

TEST(LiveSwarm, TraceContainsTheLiveProtocolVocabulary) {
  const SwarmResult res = run_local_swarm(small_swarm());
  ASSERT_TRUE(res.all_complete);

  std::array<std::uint64_t, obs::kEventKindCount> counts{};
  for (const obs::TraceEvent& e : res.events) {
    ++counts[static_cast<std::size_t>(e.kind)];
  }
  const auto n = [&](obs::EventKind k) {
    return counts[static_cast<std::size_t>(k)];
  };

  EXPECT_EQ(n(obs::EventKind::kPeerJoin), 4u);
  EXPECT_EQ(n(obs::EventKind::kPeerFinish), 3u);  // the seeder never "finishes"
  // 3 leechers x 8 pieces decrypt or arrive plain.
  EXPECT_EQ(n(obs::EventKind::kPieceGranted), 24u);
  EXPECT_GT(n(obs::EventKind::kChainStart), 0u);
  EXPECT_EQ(n(obs::EventKind::kChainStart), n(obs::EventKind::kChainBreak));
  EXPECT_GT(n(obs::EventKind::kTxOpen), 0u);
  EXPECT_EQ(n(obs::EventKind::kTxOpen), n(obs::EventKind::kTxClose));
  EXPECT_EQ(n(obs::EventKind::kTxOpen), n(obs::EventKind::kChainExtend));
  EXPECT_EQ(n(obs::EventKind::kPieceSent),
            n(obs::EventKind::kPieceDelivered));
}

TEST(LiveSwarm, MetricsExposeRuntimeCounters) {
  const SwarmResult res = run_local_swarm(small_swarm());
  EXPECT_GT(metric(res.metrics, "rt.tx_opened"), 0.0);
  // The reactor's loop: turns, fd events dispatched, longest turn.
  EXPECT_GT(metric(res.metrics, "rt.reactor_turns"), 0.0);
  EXPECT_GT(metric(res.metrics, "rt.reactor_events"), 0.0);
  EXPECT_GT(metric(res.metrics, "rt.reactor_turn_max_ms"), 0.0);
}

TEST(LiveSwarm, SettlesThroughMessagesWithoutWatchdogs) {
  // With a watchdog far beyond the deadline, only protocol messages can
  // finish the swarm: payees re-selected when they finish, receipts and key
  // releases. The run stops on the last settlement, not on a grace timer.
  for (const std::size_t peers : {4, 8}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE(::testing::Message() << peers << " peers, seed " << seed);
      SwarmOptions opts;
      opts.peers = peers;
      opts.piece_count = 16;
      opts.piece_bytes = 8 * 1024;
      opts.seed = seed;
      opts.watchdog_seconds = 30.0;
      opts.deadline_seconds = 20.0;
      const SwarmResult res = run_local_swarm(opts);
      EXPECT_TRUE(res.all_complete);
      EXPECT_STREQ(res.check.verdict(), "PASS");
      double last_finish = 0.0;
      for (const PeerStat& p : res.peers) {
        last_finish = std::max(last_finish, p.finish_seconds);
      }
      EXPECT_LT(res.wall_seconds - last_finish, 1.0);
      for (const obs::TraceEvent& e : res.events) {
        if (e.kind != obs::EventKind::kTxRetry &&
            e.kind != obs::EventKind::kTxTimeout) {
          continue;
        }
        EXPECT_NE(e.aux, static_cast<std::uint8_t>(obs::RetryCause::kWatchdog))
            << obs::event_kind_name(e.kind) << " tx " << e.ref;
      }
    }
  }
}

TEST(LiveSwarm, DeterministicFileMetaAcrossCalls) {
  // The swarm content derives from the seed alone; two metas with the same
  // seed are identical (live socket timing must not leak into the data).
  const auto a = core::SwarmFileMeta::make(4, 1024, 42);
  const auto b = core::SwarmFileMeta::make(4, 1024, 42);
  ASSERT_EQ(a.pieces.size(), 4u);
  EXPECT_EQ(a.pieces, b.pieces);
  EXPECT_EQ(a.hashes, b.hashes);
  const auto c = core::SwarmFileMeta::make(4, 1024, 43);
  EXPECT_NE(a.pieces, c.pieces);
}

TEST(LiveSwarm, ReverseStartOrderFormsFullMeshAndCompletes) {
  // Peers start 3, 2, 1. The higher id dials, so when the announces reach
  // the tracker in that order no announce reply names a peer to dial:
  // every link comes from a later joiner pushed to an earlier member.
  Reactor reactor;
  obs::Trace trace(obs::TraceConfig{});
  check::Checker checker;
  trace.set_sink(&checker);
  SwarmContext ctx(reactor, &trace, core::SwarmFileMeta::make(8, 1024, 3),
                   "reverse");
  TrackerService tracker(reactor, TrackerService::Options{});

  std::vector<std::unique_ptr<PeerNode>> nodes;
  int completed = 0;
  // Once both leechers hold the file, stop when the donor transactions
  // have settled, so the checker sees closed escrows.
  const auto stop_if_settled = [&] {
    if (completed < 2) return;
    for (const auto& n : nodes) {
      if (n->open_donor_txs() != 0) return;
    }
    reactor.stop();
  };
  for (net::PeerId id = 1; id <= 3; ++id) {
    PeerNode::Options opts;
    opts.id = id;
    opts.seeder = (id == 1);
    opts.tracker_port = tracker.port();
    opts.seed = id;
    opts.on_complete = [&](net::PeerId) {
      ++completed;
      stop_if_settled();
    };
    opts.on_settled = [&](net::PeerId) { stop_if_settled(); };
    nodes.push_back(std::make_unique<PeerNode>(ctx, opts));
  }
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) (*it)->start();
  reactor.schedule(30.0, [&] { reactor.stop(); });  // failsafe
  reactor.run();
  trace.set_sink(nullptr);

  for (const auto& n : nodes) EXPECT_TRUE(n->complete()) << "peer " << n->id();
  const auto metrics = trace.snapshot();
  EXPECT_EQ(metric(metrics, "rt.dials"), 3.0);
  EXPECT_EQ(metric(metrics, "rt.conns_accepted"), 3.0);
  EXPECT_STREQ(checker.finish().verdict(), "PASS");
}

// A hand-driven neighbour: handshakes with a node, then sends `bitfield`.
class RawNeighbour : public FrameConn::Delegate {
 public:
  RawNeighbour(net::PeerId id, net::BitfieldMsg bitfield)
      : id_(id), bitfield_(std::move(bitfield)) {}
  void on_conn_open(FrameConn& c) override {
    c.send(net::Message{net::HandshakeMsg{id_, "raw"}});
    c.send(net::Message{bitfield_});
  }
  void on_message(FrameConn& c, net::Message m) override {
    (void)c;
    served = served || std::holds_alternative<net::BitfieldMsg>(m);
    on_change();
  }
  void on_conn_closed(FrameConn& c) override {
    (void)c;
    closed = true;
    on_change();
  }
  std::function<void()> on_change;
  bool served = false;  // the node sent its own bitfield
  bool closed = false;

 private:
  net::PeerId id_;
  net::BitfieldMsg bitfield_;
};

TEST(LiveSwarm, MalformedBitfieldDropsOnlyThatNeighbour) {
  Reactor reactor;
  SwarmContext ctx(reactor, nullptr, core::SwarmFileMeta::make(8, 1024, 1),
                   "raw");
  TrackerService tracker(reactor, TrackerService::Options{});
  PeerNode::Options opts;
  opts.id = 1;
  opts.seeder = true;
  opts.tracker_port = tracker.port();
  PeerNode node(ctx, opts);
  node.start();

  // The right piece_count, but a bit vector too short to hold it.
  RawNeighbour bad(50, net::BitfieldMsg{8, {}});
  RawNeighbour good(51, bt::Bitfield(8).to_message());
  std::unique_ptr<FrameConn> good_conn;
  bad.on_change = [&] {
    if (bad.closed && good_conn == nullptr)
      good_conn = FrameConn::dial(reactor, "127.0.0.1", node.port(), &good);
  };
  good.on_change = [&] {
    if (good.served) reactor.stop();
  };
  const auto bad_conn =
      FrameConn::dial(reactor, "127.0.0.1", node.port(), &bad);
  reactor.schedule(10.0, [&] { reactor.stop(); });  // failsafe
  reactor.run();
  EXPECT_TRUE(bad.closed);
  EXPECT_TRUE(good.served);
  EXPECT_FALSE(good.closed);
}

}  // namespace
}  // namespace tc::rt
