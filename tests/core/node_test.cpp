// The T-Chain engine through its sans-IO seam. A FIFO bus with a manual
// clock drives real core::Nodes with check::Checker as the trace sink, and
// single nodes are fed hand-written messages to pin down the orderings and
// senders a live network can produce.
#include "src/core/node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <variant>
#include <vector>

#include "src/check/invariants.h"
#include "src/crypto/cipher.h"

namespace tc::core {
namespace {

using obs::EventKind;

// Records one node's outputs.
struct Recorder : Node::Effects {
  struct Sent {
    net::PeerId to;
    net::Message m;
  };
  std::vector<Sent> sent;
  std::set<net::TxId> watchdogs;
  std::vector<obs::TraceEvent> events;
  std::map<std::string, int> counters;

  void send(net::PeerId to, net::Message m) override {
    sent.push_back({to, std::move(m)});
  }
  void arm_watchdog(net::TxId tx) override { watchdogs.insert(tx); }
  void cancel_watchdog(net::TxId tx) override { watchdogs.erase(tx); }
  void emit(const obs::TraceEvent& e) override { events.push_back(e); }
  void count(const char* name) override { ++counters[name]; }

  // Messages of type M sent to `to`, oldest first.
  template <typename M>
  std::vector<M> sent_to(net::PeerId to) const {
    std::vector<M> out;
    for (const Sent& s : sent) {
      if (s.to != to) continue;
      if (const M* m = std::get_if<M>(&s.m)) out.push_back(*m);
    }
    return out;
  }
};

// An in-memory swarm: every node neighbours every other, messages are
// delivered in FIFO order, and time advances only in ticks.
class Bus {
 public:
  static constexpr double kTick = 0.02;
  static constexpr double kWatchdog = 0.2;

  Bus(std::size_t peers, std::uint32_t pieces, std::uint32_t piece_bytes,
      std::uint64_t seed)
      : meta_(SwarmFileMeta::make(pieces, piece_bytes, seed)) {
    for (std::size_t i = 0; i < peers; ++i) {
      auto p = std::make_unique<Peer>();
      p->bus = this;
      p->opts.id = static_cast<net::PeerId>(i + 1);
      p->opts.seeder = (i == 0);
      p->opts.seed = seed * 1000003ull + p->opts.id;
      p->node = std::make_unique<Node>(meta_, p->opts, *p);
      record({.kind = EventKind::kPeerJoin,
              .aux = p->opts.seeder ? std::uint8_t{obs::kPeerFlagSeeder}
                                    : std::uint8_t{0},
              .a = p->opts.id});
      peers_.push_back(std::move(p));
    }
    for (auto& a : peers_) {
      for (auto& b : peers_) {
        if (a != b) a->node->on_neighbor_up(b->opts.id);
      }
    }
  }

  // Runs until every leecher holds the file and every donor transaction
  // has settled, or `horizon` simulated seconds pass.
  void run(double horizon) {
    while (now_ < horizon && !settled()) {
      deliver_all();
      now_ += kTick;
      fire_watchdogs();
      for (auto& p : peers_) p->node->on_tick();
    }
    deliver_all();
  }

  bool settled() const {
    for (const auto& p : peers_) {
      if (!p->node->complete() || p->node->open_donor_txs() != 0) return false;
    }
    return true;
  }

  const Node& node(std::size_t i) const { return *peers_[i]->node; }
  std::size_t size() const { return peers_.size(); }
  const SwarmFileMeta& meta() const { return meta_; }
  const check::CheckReport& finish() { return checker_.finish(); }
  int count(EventKind k) const {
    return static_cast<int>(std::count_if(
        events_.begin(), events_.end(),
        [k](const obs::TraceEvent& e) { return e.kind == k; }));
  }
  const std::vector<obs::TraceEvent>& events() const { return events_; }

 private:
  struct Peer : Node::Effects {
    Bus* bus = nullptr;
    Node::Options opts;
    std::unique_ptr<Node> node;

    void send(net::PeerId to, net::Message m) override {
      bus->queue_.push_back({opts.id, to, std::move(m)});
    }
    void arm_watchdog(net::TxId tx) override {
      bus->watchdogs_[{opts.id, tx}] = bus->now_ + kWatchdog;
    }
    void cancel_watchdog(net::TxId tx) override {
      bus->watchdogs_.erase({opts.id, tx});
    }
    void emit(const obs::TraceEvent& e) override { bus->record(e); }
    void count(const char* name) override { (void)name; }
  };
  struct InFlight {
    net::PeerId from;
    net::PeerId to;
    net::Message m;
  };

  void record(obs::TraceEvent e) {
    // Several peers may see one chain end; the trace keeps the first.
    if (e.kind == EventKind::kChainBreak && !broken_.insert(e.chain).second) {
      return;
    }
    e.t = now_;
    events_.push_back(e);
    checker_.on_event(e);
  }

  void deliver_all() {
    while (!queue_.empty()) {
      InFlight f = std::move(queue_.front());
      queue_.pop_front();
      peers_[f.to - 1]->node->on_message(f.from, std::move(f.m));
    }
  }

  void fire_watchdogs() {
    std::vector<std::tuple<double, net::PeerId, net::TxId>> due;
    for (const auto& [key, deadline] : watchdogs_) {
      if (deadline <= now_) due.emplace_back(deadline, key.first, key.second);
    }
    std::sort(due.begin(), due.end());
    for (const auto& [deadline, peer, tx] : due) {
      (void)deadline;
      watchdogs_.erase({peer, tx});
      peers_[peer - 1]->node->on_watchdog(tx);
    }
  }

  SwarmFileMeta meta_;
  std::vector<std::unique_ptr<Peer>> peers_;
  std::deque<InFlight> queue_;
  std::map<std::pair<net::PeerId, net::TxId>, double> watchdogs_;
  std::set<std::uint64_t> broken_;
  std::vector<obs::TraceEvent> events_;
  check::Checker checker_;
  double now_ = 0.0;
};

TEST(NodeSwarm, SeederAndThreeLeechersCompleteWithoutSockets) {
  Bus bus(4, 16, 1024, 7);
  bus.run(60.0);
  ASSERT_TRUE(bus.settled());
  for (std::size_t i = 0; i < bus.size(); ++i) {
    for (std::uint32_t p = 0; p < bus.meta().piece_count; ++p) {
      EXPECT_EQ(crypto::sha256(bus.node(i).piece(p)), bus.meta().hashes[p])
          << "node " << i + 1 << " piece " << p;
    }
  }
  const check::CheckReport& report = bus.finish();
  EXPECT_TRUE(report.sound);
  EXPECT_EQ(report.total_violations, 0u);
  EXPECT_STREQ(report.verdict(), "PASS");
  EXPECT_EQ(bus.count(EventKind::kPeerFinish), 3);
  EXPECT_EQ(bus.count(EventKind::kPieceGranted), 3 * 16);
  EXPECT_EQ(bus.count(EventKind::kChainStart),
            bus.count(EventKind::kChainBreak));

  // Ids are namespaced per initiator: (peer << 32) | local counter.
  for (const obs::TraceEvent& e : bus.events()) {
    if (e.kind == EventKind::kTxOpen) {
      EXPECT_EQ(e.ref >> 32, e.a);
    } else if (e.kind == EventKind::kChainStart) {
      EXPECT_EQ(e.chain >> 32, e.a);
    }
  }
}

TEST(NodeSwarm, SettledTriangleHoldsNoPayload) {
  Bus bus(3, 8, 2048, 3);
  bus.run(60.0);
  ASSERT_TRUE(bus.settled());
  EXPECT_STREQ(bus.finish().verdict(), "PASS");
  for (std::size_t i = 0; i < bus.size(); ++i) {
    EXPECT_EQ(bus.node(i).open_donor_txs(), 0u) << "node " << i + 1;
    EXPECT_EQ(bus.node(i).payload_bytes(), 0u) << "node " << i + 1;
  }
}

// Hand-driven nodes: the test plays every other peer.
class NodeTest : public ::testing::Test {
 protected:
  static constexpr net::PeerId kA = 1;  // original donor
  static constexpr net::PeerId kR = 2;  // requestor under test
  static constexpr net::PeerId kX = 3;  // bystander / downstream requestor
  static constexpr net::PeerId kY = 4;  // payee
  static constexpr net::PieceIndex kPiece = 5;

  SwarmFileMeta meta = SwarmFileMeta::make(8, 1024, 11);
  crypto::KeySource keys{99};

  std::unique_ptr<Node> make_node(net::PeerId id, Recorder& rec,
                                  std::initializer_list<net::PeerId> up) {
    Node::Options opts;
    opts.id = id;
    opts.seed = id;
    auto n = std::make_unique<Node>(meta, opts, rec);
    for (const net::PeerId p : up) n->on_neighbor_up(p);
    return n;
  }

  // A's offer of kPiece to R, payee `payee`.
  DonorSession offer_from_a(net::PeerId payee) {
    return DonorSession(/*tx=*/777, /*chain=*/9, kA, kR, payee, kPiece,
                        net::kNoPeer, net::kNoPiece, meta.pieces[kPiece],
                        keys);
  }

  bool holds_piece(const Node& n) const {
    return crypto::sha256(n.piece(kPiece)) == meta.hashes[kPiece];
  }
};

TEST_F(NodeTest, ReciprocationBeforePayeeNotifyStillYieldsReceipt) {
  // Y is A's payee for tx 777; R's reciprocation reaches Y before A's
  // PayeeNotify does (they travel on different connections).
  Recorder rec;
  auto y = make_node(kY, rec, {kA, kR});
  net::EncryptedPieceMsg recip;
  recip.tx = 5000;
  recip.chain = 9;
  recip.donor = kR;
  recip.requestor = kY;
  recip.payee = kA;
  recip.piece = 6;
  recip.prev_donor = kA;
  recip.prev_piece = kPiece;
  recip.ciphertext = util::Bytes(1024, 0x5a);
  y->on_message(kR, net::Message{recip});
  EXPECT_TRUE(rec.sent_to<net::ReceiptMsg>(kA).empty());

  y->on_message(kA, net::Message{net::PayeeNotifyMsg{777, 9, kA, kR, kPiece}});
  const auto receipts = rec.sent_to<net::ReceiptMsg>(kA);
  ASSERT_EQ(receipts.size(), 1u);
  DonorSession a = offer_from_a(kY);
  EXPECT_TRUE(a.accept_receipt(receipts[0]));
}

TEST_F(NodeTest, ForwardedBufferDecryptsWithKeysInEitherOrder) {
  for (const bool donor_key_first : {true, false}) {
    SCOPED_TRACE(donor_key_first ? "donor key first" : "forwarder key first");
    // R banks A's ciphertext and, holding nothing else, forwards it to its
    // payee X re-encrypted under its own key (§II-D1). Y is R's payee.
    Recorder r_rec;
    auto r = make_node(kR, r_rec, {kA, kX, kY});
    DonorSession a = offer_from_a(kX);
    r->on_message(kA, net::Message{a.take_offer()});
    const auto fwd = r_rec.sent_to<net::EncryptedPieceMsg>(kX);
    ASSERT_EQ(fwd.size(), 1u);
    ASSERT_EQ(fwd[0].prev_donor, kA);
    const net::PeerId payee = fwd[0].payee;
    ASSERT_NE(payee, net::kNoPeer);
    // The forward's ciphertext left with the offer: R holds only its own
    // banked buffer.
    EXPECT_EQ(r->payload_bytes(), meta.piece_bytes);

    Recorder x_rec;
    auto x = make_node(kX, x_rec, {kR});
    x->on_message(kR, net::Message{fwd[0]});

    // Two keys reach R: A's (cascaded on to X) and R's own, released when
    // R's payee confirms the reciprocation X owes.
    net::ReceiptMsg receipt;
    receipt.reciprocated_tx = fwd[0].tx;
    receipt.payee = payee;
    receipt.requestor = kX;
    receipt.piece = 7;
    receipt.mac = net::receipt_mac(derive_mac_key(kR, payee), fwd[0].tx,
                                   payee, kX, 7);
    if (donor_key_first) {
      r->on_message(kA, net::Message{a.key_release()});
      r->on_message(payee, net::Message{receipt});
    } else {
      r->on_message(payee, net::Message{receipt});
      r->on_message(kA, net::Message{a.key_release()});
    }
    EXPECT_TRUE(holds_piece(*r));
    EXPECT_EQ(r->payload_bytes(), 0u);

    const auto to_x = r_rec.sent_to<net::KeyReleaseMsg>(kX);
    ASSERT_EQ(to_x.size(), 2u);
    for (const auto& k : to_x) EXPECT_EQ(k.tx, fwd[0].tx);
    x->on_message(kR, net::Message{to_x[0]});
    EXPECT_FALSE(holds_piece(*x));
    x->on_message(kR, net::Message{to_x[1]});
    EXPECT_TRUE(holds_piece(*x));
    EXPECT_EQ(x->payload_bytes(), 0u);
  }
}

TEST_F(NodeTest, ThirdPartyGarbageKeyLeavesTheBufferIntact) {
  Recorder rec;
  auto r = make_node(kR, rec, {kA, kX, kY});
  DonorSession a = offer_from_a(kY);
  r->on_message(kA, net::Message{a.take_offer()});

  // A bystander's garbage key for A's transaction is ignored: applied, it
  // would stay XORed into the buffer, and the dedup of applied keys would
  // make the damage permanent.
  net::KeyReleaseMsg garbage{777, kPiece, keys.next().serialize()};
  r->on_message(kX, net::Message{garbage});
  r->on_message(kA, net::Message{a.key_release()});
  EXPECT_TRUE(holds_piece(*r));
}

TEST_F(NodeTest, ThirdPartyWaiverIsIgnored) {
  for (const net::PeerId waiver_from : {kX, kA}) {
    SCOPED_TRACE(waiver_from == kA ? "donor waives" : "bystander waives");
    // R's payee Y is not connected yet, so R cannot reciprocate at once.
    Recorder rec;
    auto r = make_node(kR, rec, {kA, kX});
    DonorSession a = offer_from_a(kY);
    r->on_message(kA, net::Message{a.take_offer()});
    r->on_message(waiver_from,
                  net::Message{net::PayeeReassignMsg{777, net::kNoPeer}});
    r->on_neighbor_up(kY);
    r->on_tick();
    const auto recips = rec.sent_to<net::EncryptedPieceMsg>(kY);
    if (waiver_from == kA) {
      EXPECT_TRUE(recips.empty());  // the donor settled gratis: no debt
    } else {
      ASSERT_EQ(recips.size(), 1u);  // the debt to A still stands
      EXPECT_EQ(recips[0].prev_donor, kA);
      EXPECT_EQ(recips[0].prev_piece, kPiece);
    }
  }
}

}  // namespace
}  // namespace tc::core
