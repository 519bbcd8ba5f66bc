#include "src/bt/swarm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <tuple>

#include "src/protocols/choking.h"

namespace tc::bt {
namespace {

// Inert protocol: lets us drive the swarm by hand.
class NullProtocol : public Protocol {
 public:
  std::string name() const override { return "null"; }
  util::ByteCount default_piece_bytes() const override { return 64 * util::kKiB; }

  std::vector<std::pair<PeerId, PieceIndex>> completions;
  void on_piece_complete(PeerId peer, PieceIndex piece, PeerId) override {
    completions.emplace_back(peer, piece);
  }
};

SwarmConfig tiny_config(std::size_t leechers = 4) {
  SwarmConfig cfg;
  cfg.leecher_count = leechers;
  cfg.file_bytes = 4 * 64 * util::kKiB;  // 4 pieces
  cfg.piece_bytes = 64 * util::kKiB;
  cfg.seed = 7;
  cfg.max_sim_time = 100.0;
  cfg.wait_for_freeriders = false;
  return cfg;
}

TEST(Swarm, SeederAndLeechersJoinAndConnect) {
  NullProtocol proto;
  Swarm swarm(tiny_config(4), proto);
  swarm.run();  // no protocol => nobody downloads; run ends at max time or idle

  const Peer* seeder = swarm.peer(swarm.seeder_id());
  ASSERT_NE(seeder, nullptr);
  EXPECT_TRUE(seeder->seeder);
  EXPECT_TRUE(seeder->have.complete());
  EXPECT_EQ(swarm.piece_count(), 4u);
  // Everyone should be everyone's neighbor in a tiny swarm.
  EXPECT_EQ(seeder->neighbors.size(), 4u);
  for (PeerId id : swarm.active_peers()) {
    const Peer* p = swarm.peer(id);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->neighbors.size(), 4u) << id;
  }
}

TEST(Swarm, BandwidthClassesAssignedRoundRobin) {
  NullProtocol proto;
  Swarm swarm(tiny_config(10), proto);
  swarm.run();
  std::map<double, int> per_class, expected;
  for (double kbps : kLeecherUploadKbps) expected[kbps] = 2;
  for (PeerId id : swarm.active_peers()) {
    const Peer* p = swarm.peer(id);
    if (!p->seeder) ++per_class[p->upload_kbps];
  }
  EXPECT_EQ(per_class, expected);
}

TEST(Swarm, FreeriderFractionIsExact) {
  NullProtocol proto;
  auto cfg = tiny_config(20);
  cfg.freerider_fraction = 0.25;
  Swarm swarm(cfg, proto);
  swarm.run();
  int fr = 0;
  for (PeerId id : swarm.active_peers()) {
    const Peer* p = swarm.peer(id);
    if (!p->seeder && p->freerider) ++fr;
  }
  EXPECT_EQ(fr, 5);
}

TEST(Swarm, NeedsFromAndLrfRespectAvailability) {
  NullProtocol proto;
  auto cfg = tiny_config(3);
  Swarm swarm(cfg, proto);
  swarm.run();
  const auto peers = swarm.active_peers();
  const PeerId seeder = swarm.seeder_id();
  PeerId leecher = net::kNoPeer;
  for (PeerId id : peers)
    if (id != seeder) leecher = id;
  ASSERT_NE(leecher, net::kNoPeer);

  EXPECT_TRUE(swarm.needs_from(leecher, seeder));
  EXPECT_FALSE(swarm.needs_from(seeder, leecher));
  EXPECT_EQ(swarm.peer(leecher)->requested.missing_from(
                swarm.peer(seeder)->have).size(),
            4u);
  EXPECT_TRUE(swarm.select_lrf(leecher, seeder).has_value());
  EXPECT_FALSE(swarm.select_lrf(seeder, leecher).has_value());
}

TEST(Swarm, LrfPrefersRarestPiece) {
  NullProtocol proto;
  auto cfg = tiny_config(5);
  Swarm swarm(cfg, proto);
  swarm.run();
  const PeerId seeder = swarm.seeder_id();
  std::vector<PeerId> leechers;
  for (PeerId id : swarm.active_peers())
    if (id != seeder) leechers.push_back(id);

  // Give everyone piece 0..2 except piece 3 rare: only one holder besides
  // the seeder. A chooser should pick the piece with minimal availability.
  for (std::size_t i = 0; i < leechers.size(); ++i) {
    for (PieceIndex p = 0; p < 3; ++p) swarm.grant_piece(leechers[i], p, seeder);
  }
  // Now every leecher needs only piece 3 from the seeder.
  const PeerId chooser = leechers[0];
  const auto sel = swarm.select_lrf(chooser, seeder);
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(*sel, 3u);
}

TEST(Swarm, GrantPieceUpdatesMetricsAndAvailability) {
  NullProtocol proto;
  Swarm swarm(tiny_config(3), proto);
  swarm.run();
  const PeerId seeder = swarm.seeder_id();
  PeerId a = net::kNoPeer, b = net::kNoPeer;
  for (PeerId id : swarm.active_peers()) {
    if (id == seeder) continue;
    if (a == net::kNoPeer) {
      a = id;
    } else if (b == net::kNoPeer) {
      b = id;
    }
  }
  EXPECT_EQ(swarm.availability(b, 2), 1u);  // only the seeder has piece 2
  swarm.grant_piece(a, 2, seeder);
  EXPECT_EQ(swarm.availability(b, 2), 2u);  // now a has it too
  EXPECT_EQ(swarm.metrics().find(a)->pieces_downloaded, 1);
  // Duplicate grant is a no-op.
  swarm.grant_piece(a, 2, seeder);
  EXPECT_EQ(swarm.metrics().find(a)->pieces_downloaded, 1);
  ASSERT_FALSE(proto.completions.empty());
  EXPECT_EQ(proto.completions.back(), (std::pair<PeerId, PieceIndex>{a, 2}));
}

TEST(Swarm, UploadDeliversAndCounts) {
  NullProtocol proto;
  Swarm swarm(tiny_config(2), proto);
  swarm.run();
  const PeerId seeder = swarm.seeder_id();
  PeerId leecher = net::kNoPeer;
  for (PeerId id : swarm.active_peers())
    if (id != seeder) leecher = id;

  bool delivered = false;
  swarm.start_upload(seeder, leecher, 1, 1.0,
                     [&](PeerId, PeerId, PieceIndex, bool ok) {
                       delivered = ok;
                     });
  // Piece marked in-flight immediately.
  EXPECT_TRUE(swarm.peer(leecher)->requested.get(1));
  swarm.simulator().run(swarm.simulator().now() + 60.0);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(swarm.metrics().find(seeder)->pieces_uploaded, 1);
  EXPECT_GT(swarm.metrics().find(leecher)->bytes_downloaded, 0.0);
}

TEST(Swarm, DepartAbortsTransfersAndClearsRequested) {
  NullProtocol proto;
  Swarm swarm(tiny_config(3), proto);
  swarm.run();
  const PeerId seeder = swarm.seeder_id();
  std::vector<PeerId> leechers;
  for (PeerId id : swarm.active_peers())
    if (id != seeder) leechers.push_back(id);

  bool ok = true;
  swarm.start_upload(seeder, leechers[0], 0, 1.0,
                     [&](PeerId, PeerId, PieceIndex, bool k) { ok = k; });
  swarm.depart(leechers[0]);
  EXPECT_FALSE(ok);  // abort callback fired
  EXPECT_FALSE(swarm.is_active(leechers[0]));
  // Departed peer no longer neighbors anyone.
  EXPECT_FALSE(swarm.peer(leechers[1])->is_neighbor(leechers[0]));
}

TEST(Swarm, LeaverGetsOneAbortPerTransferInFlowIdOrder) {
  NullProtocol proto;
  Swarm swarm(tiny_config(3), proto);
  swarm.run();
  const PeerId seeder = swarm.seeder_id();
  std::vector<PeerId> l;
  for (PeerId id : swarm.active_peers())
    if (id != seeder) l.push_back(id);
  ASSERT_EQ(l.size(), 3u);
  const PeerId leaver = l[0];

  using Transfer = std::tuple<PeerId, PeerId, PieceIndex, bool>;
  std::vector<Transfer> reports;
  const auto record = [&](PeerId from, PeerId to, PieceIndex piece, bool ok) {
    reports.emplace_back(from, to, piece, ok);
  };
  // The leaver's transfers, inbound and outbound interleaved, in the order
  // their flows (and FlowIds) are minted; plus one that does not touch it.
  const std::vector<Transfer> leaver_flows = {{seeder, leaver, 0, false},
                                              {leaver, l[1], 1, false},
                                              {l[2], leaver, 2, false},
                                              {leaver, l[2], 3, false}};
  sim::FlowId last = 0;
  for (const auto& [from, to, piece, ok] : leaver_flows) {
    const sim::FlowId id = swarm.start_upload(from, to, piece, 1.0, record);
    EXPECT_GT(id, last);
    last = id;
  }
  swarm.start_upload(seeder, l[1], 2, 1.0, record);
  swarm.depart(leaver);
  EXPECT_EQ(reports, leaver_flows);

  // The receivers may fetch the aborted pieces again.
  EXPECT_FALSE(swarm.peer(l[1])->requested.get(1));
  EXPECT_FALSE(swarm.peer(l[2])->requested.get(3));
  swarm.start_upload(seeder, l[2], 3, 1.0, record);
  reports.clear();
  swarm.simulator().run(swarm.simulator().now() + 60.0);
  EXPECT_EQ(reports, (std::vector<Transfer>{{seeder, l[1], 2, true},
                                           {seeder, l[2], 3, true}}));
}

// Passes every trace event to a callback as it is emitted.
struct SinkFn : obs::EventSink {
  std::function<void(const obs::TraceEvent&)> fn;
  void on_event(const obs::TraceEvent& e) override { fn(e); }
};

TEST(Swarm, OutageDarkensUploadsThenRestoresTheClassRate) {
  NullProtocol proto;
  auto cfg = tiny_config(3);
  cfg.max_sim_time = 2'000.0;
  cfg.faults.outage_rate = 0.01;
  cfg.faults.outage_mean_duration = 20.0;
  SinkFn sink;  // outlives the swarm's trace
  Swarm swarm(cfg, proto);
  swarm.enable_obs(obs::TraceConfig{});

  // The first peer to go dark starts one upload at once; nothing else
  // uploads, so its only flow progresses at whatever the peer's capacity
  // is.
  PeerId dark = net::kNoPeer;
  double began = -1, ended = -1, delivered = -1;
  sink.fn = [&](const obs::TraceEvent& e) {
    if (e.kind == obs::EventKind::kFaultOutageBegin && dark == net::kNoPeer) {
      dark = e.a;
      began = e.t;
      swarm.simulator().schedule_in(0.0, [&] {
        swarm.start_upload(dark, swarm.seeder_id(), 0, 1.0,
                           [&](PeerId, PeerId, PieceIndex, bool ok) {
                             if (ok) delivered = swarm.simulator().now();
                           });
      });
    } else if (e.kind == obs::EventKind::kFaultOutageEnd && e.a == dark &&
               ended < 0) {
      ended = e.t;
    }
  };
  swarm.obs()->set_sink(&sink);
  swarm.run();

  ASSERT_NE(dark, net::kNoPeer);
  ASSERT_GT(ended, began);
  // Capacity 0 while dark: not a byte moves before the outage ends. Then
  // the piece goes at the peer's class rate.
  const double rate = util::kbps_to_bytes_per_sec(swarm.peer(dark)->upload_kbps);
  EXPECT_NEAR(delivered,
              ended + static_cast<double>(cfg.piece_bytes) / rate, 1e-6);
}

TEST(Swarm, WhitewashKeepsPiecesUnderNewIdentity) {
  NullProtocol proto;
  auto cfg = tiny_config(3);
  cfg.freerider_fraction = 0.4;  // 1 freerider of 3
  cfg.freerider_whitewash = false;  // manual control below
  Swarm swarm(cfg, proto);
  swarm.run();
  PeerId fr = net::kNoPeer;
  for (PeerId id : swarm.active_peers()) {
    const Peer* p = swarm.peer(id);
    if (!p->seeder && p->freerider) fr = id;
  }
  ASSERT_NE(fr, net::kNoPeer);
  swarm.grant_piece(fr, 0, swarm.seeder_id());

  const PeerId fresh = swarm.whitewash(fr);
  EXPECT_NE(fresh, fr);
  EXPECT_EQ(swarm.peer(fr), nullptr);
  const Peer* p = swarm.peer(fresh);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->have.get(0));  // downloads survive the identity change
  // Metrics carried over under the new identity.
  const auto* rec = swarm.metrics().find(fresh);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->pieces_downloaded, 1);
  EXPECT_EQ(rec->whitewash_count, 1);
  EXPECT_EQ(swarm.metrics().find(fr), nullptr);
}

TEST(Swarm, InitialPieceFractionPrepopulates) {
  NullProtocol proto;
  auto cfg = tiny_config(4);
  cfg.initial_piece_fraction = 0.5;
  Swarm swarm(cfg, proto);
  swarm.run();
  for (PeerId id : swarm.active_peers()) {
    const Peer* p = swarm.peer(id);
    if (p->seeder) continue;
    EXPECT_EQ(p->have.count(), 2u);  // 50% of 4 pieces
  }
}

TEST(Swarm, RejectsEmptyLeecherSet) {
  // The run's end-of-arrivals bookkeeping needs at least one leecher.
  NullProtocol proto;
  EXPECT_THROW(Swarm(tiny_config(0), proto), std::invalid_argument);
}

// BitTorrent that remembers the highest identity it has seen join and
// counts whitewashes.
class IdTrackingBitTorrent : public protocols::BitTorrentProtocol {
 public:
  PeerId max_id = 0;
  std::size_t whitewashes = 0;
  void on_peer_join(PeerId id) override {
    max_id = std::max(max_id, id);
    BitTorrentProtocol::on_peer_join(id);
  }
  void on_peer_rekeyed(PeerId old_id, PeerId fresh) override {
    ++whitewashes;
    BitTorrentProtocol::on_peer_rekeyed(old_id, fresh);
  }
};

// availability(p, i) must be the number of p's neighbours holding piece i,
// and 0 for every identity that is gone (departed, crashed, whitewashed).
::testing::AssertionResult availability_matches_neighbourhood(
    const Swarm& swarm, PeerId max_id, std::size_t* retired) {
  for (PeerId id = 1; id <= max_id; ++id) {
    const Peer* p = swarm.peer(id);
    const bool live = p != nullptr && p->active;
    if (!live && retired != nullptr) ++*retired;
    for (PieceIndex i = 0; i < swarm.piece_count(); ++i) {
      std::uint32_t holders = 0;
      if (live) {
        for (PeerId n : p->neighbors) holders += swarm.peer(n)->have.get(i);
      }
      if (swarm.availability(id, i) != holders) {
        return ::testing::AssertionFailure()
               << "peer " << id << (live ? "" : " (gone)") << " piece " << i
               << ": availability " << swarm.availability(id, i)
               << ", neighbours holding it " << holders;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(Swarm, AvailabilityMatchesNeighbourhoodUnderAttackAndChurn) {
  IdTrackingBitTorrent proto;
  SwarmConfig cfg;
  cfg.leecher_count = 40;
  cfg.piece_bytes = 64 * util::kKiB;
  cfg.file_bytes = 130 * cfg.piece_bytes;  // three availability words
  cfg.freerider_fraction = 0.25;           // large view + whitewash
  cfg.faults.session_kind = sim::FaultPlan::SessionKind::kLogNormal;
  cfg.faults.mean_session = 150.0;         // half the exits crash
  cfg.seed = 3;
  cfg.max_sim_time = 5'000.0;
  cfg.wait_for_freeriders = false;
  Swarm swarm(cfg, proto);

  int checks = 0;
  std::function<void()> check = [&] {
    ++checks;
    EXPECT_TRUE(availability_matches_neighbourhood(swarm, proto.max_id,
                                                   nullptr))
        << "at t=" << swarm.simulator().now();
    swarm.simulator().schedule_in(20.0, check);
  };
  swarm.simulator().schedule_at(5.0, check);
  swarm.run();

  std::size_t retired = 0;
  EXPECT_TRUE(availability_matches_neighbourhood(swarm, proto.max_id,
                                                 &retired));
  // The run exercised what the invariant is about.
  EXPECT_GE(checks, 5);
  EXPECT_GT(proto.whitewashes, 0u);
  EXPECT_GT(swarm.metrics().resilience().crashes, 0u);
  EXPECT_GT(retired, proto.whitewashes);
}

TEST(Swarm, ControlMessageLatency) {
  NullProtocol proto;
  Swarm swarm(tiny_config(2), proto);
  swarm.run();
  double fired_at = -1;
  const double t0 = swarm.simulator().now();
  swarm.send_control([&] { fired_at = swarm.simulator().now(); });
  swarm.simulator().run(swarm.simulator().now() + 10.0);
  EXPECT_NEAR(fired_at - t0, kControlLatency, 1e-9);
}

}  // namespace
}  // namespace tc::bt
