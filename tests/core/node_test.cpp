// The T-Chain engine through its sans-IO seam. A FIFO bus whose clock moves
// only to fire watchdogs drives real core::Nodes with check::Checker as the
// trace sink, and single nodes are fed hand-written messages to pin down
// the orderings and senders a live network can produce.
#include "src/core/node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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
  // Messages of any type sent to `to`.
  std::size_t sent_count(net::PeerId to) const {
    return static_cast<std::size_t>(std::count_if(
        sent.begin(), sent.end(), [to](const Sent& s) { return s.to == to; }));
  }
};

// An in-memory swarm: every node neighbours every other and messages are
// delivered in FIFO rounds, each followed by an advance() of every node.
// Time moves only when no message is left, to the next watchdog deadline.
class Bus {
 public:
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
  // has settled, until nothing is left to deliver or fire, or until the
  // next watchdog is due after `horizon` simulated seconds.
  void run(double horizon) {
    for (;;) {
      for (auto& p : peers_) p->node->advance();
      if (!queue_.empty()) {
        deliver_round();
        continue;
      }
      if (settled() || watchdogs_.empty()) return;
      double next = horizon;
      for (const auto& [key, deadline] : watchdogs_) {
        next = std::min(next, deadline);
      }
      if (next >= horizon) return;
      now_ = next;
      fire_watchdogs();
    }
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
  double now() const { return now_; }
  // Simulated times at which watchdogs fired, in firing order.
  const std::vector<double>& watchdog_fires() const { return fired_; }

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

  // Delivers the messages queued so far; their answers wait for the next
  // round.
  void deliver_round() {
    std::deque<InFlight> round;
    round.swap(queue_);
    for (InFlight& f : round) {
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
      fired_.push_back(now_);
      peers_[peer - 1]->node->on_watchdog(tx);
    }
  }

  SwarmFileMeta meta_;
  std::vector<std::unique_ptr<Peer>> peers_;
  std::deque<InFlight> queue_;
  std::map<std::pair<net::PeerId, net::TxId>, double> watchdogs_;
  std::set<std::uint64_t> broken_;
  std::vector<obs::TraceEvent> events_;
  std::vector<double> fired_;
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

TEST(NodeSwarm, PieceEventsNameTheirTransaction) {
  Bus bus(8, 16, 1024, 5);
  bus.run(60.0);
  ASSERT_TRUE(bus.settled());
  // The bus's checker holds the trace grammar (tx-lifecycle).
  EXPECT_STREQ(bus.finish().verdict(), "PASS");
  std::array<std::size_t, obs::kEventKindCount> kinds{};
  std::array<std::size_t, 5> closes{};  // by TxState
  for (const obs::TraceEvent& e : bus.events()) {
    ++kinds[static_cast<std::size_t>(e.kind)];
    if (e.kind == EventKind::kTxClose) ++closes.at(e.aux);
  }
  const auto count = [&kinds](EventKind k) {
    return kinds[static_cast<std::size_t>(k)];
  };
  EXPECT_EQ(count(EventKind::kPieceSent), count(EventKind::kPieceDelivered));
  EXPECT_GE(count(EventKind::kPieceDelivered), 7u * 16u);
  EXPECT_EQ(count(EventKind::kPieceAborted), 0u);
  EXPECT_GT(closes[static_cast<std::size_t>(obs::TxState::kCompleted)], 0u);
  EXPECT_GT(closes[static_cast<std::size_t>(obs::TxState::kTerminal)], 0u);
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

TEST(NodeSwarm, SettlesOnTheLastFinishWithoutWatchdogs) {
  // Progress needs no clock: messages alone carry every swarm to the end.
  // Once the last leecher finishes, the advance() after its HAVEs makes
  // every donor re-select the payee of each open transaction (§II-B4). No
  // qualified payee is left, so every transaction no receipt has settled
  // yet settles gratis in that same round.
  for (const std::uint64_t seed : {3, 7, 11, 21}) {
    for (const std::size_t peers : {4, 6, 8}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", " << peers
                                        << " peers");
      Bus bus(peers, 16, 1024, seed);
      bus.run(60.0);
      ASSERT_TRUE(bus.settled());
      EXPECT_STREQ(bus.finish().verdict(), "PASS");
      EXPECT_EQ(bus.now(), 0.0);
      EXPECT_TRUE(bus.watchdog_fires().empty());
    }
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
                        net::kNoPeer, 0, meta.pieces[kPiece], keys);
  }

  bool holds_piece(const Node& n) const {
    return crypto::sha256(n.piece(kPiece)) == meta.hashes[kPiece];
  }

  // A's one open transaction, as the test sees it.
  struct OpenTx {
    net::EncryptedPieceMsg offer;
    net::PeerId bystander = net::kNoPeer;  // the up leecher in neither role
  };

  // A seeds with one chain slot. Every neighbour in `up` lacks only kPiece,
  // so A's one chain head offers kPiece to one of them, with another as
  // payee.
  std::unique_ptr<Node> open_seeder_tx(Recorder& rec,
                                       std::initializer_list<net::PeerId> up,
                                       OpenTx& open) {
    Node::Options opts;
    opts.id = kA;
    opts.seed = kA;
    opts.seeder = true;
    opts.seeder_slots = 1;
    auto a = std::make_unique<Node>(meta, opts, rec);
    bt::Bitfield lacks_piece(meta.piece_count);
    for (std::uint32_t p = 0; p < meta.piece_count; ++p) {
      if (p != kPiece) lacks_piece.set(p);
    }
    for (const net::PeerId p : up) {
      a->on_neighbor_up(p);
      a->on_message(p, net::Message{lacks_piece.to_message()});
    }
    a->advance();
    for (const net::PeerId p : up) {
      const auto offers = rec.sent_to<net::EncryptedPieceMsg>(p);
      if (!offers.empty()) open.offer = offers[0];
    }
    for (const net::PeerId p : up) {
      if (p != open.offer.requestor && p != open.offer.payee) {
        open.bystander = p;
      }
    }
    return a;
  }

  // The trace events of `kind` the recorder holds.
  static std::vector<obs::TraceEvent> events_of(const Recorder& rec,
                                                EventKind kind) {
    std::vector<obs::TraceEvent> out;
    for (const obs::TraceEvent& e : rec.events) {
      if (e.kind == kind) out.push_back(e);
    }
    return out;
  }

  static std::uint8_t aux(obs::RetryCause c) {
    return static_cast<std::uint8_t>(c);
  }
};

TEST_F(NodeTest, PayeeFinishingReassignsWithoutAWatchdog) {
  Recorder rec;
  OpenTx open;
  auto a = open_seeder_tx(rec, {kR, kX, kY}, open);
  ASSERT_EQ(a->open_donor_txs(), 1u);
  ASSERT_NE(open.offer.payee, net::kNoPeer);
  ASSERT_NE(open.bystander, net::kNoPeer);
  const net::PeerId r = open.offer.requestor;

  // The payee's HAVE for its last piece: it no longer needs anything, so
  // A's next advance re-selects (§II-B4), with no watchdog. The bystander
  // is the only qualified payee.
  const std::size_t to_bystander = rec.sent_count(open.bystander);
  a->on_message(open.offer.payee, net::Message{net::HaveMsg{kPiece}});
  a->advance();
  const auto reassigned = rec.sent_to<net::PayeeReassignMsg>(r);
  ASSERT_EQ(reassigned.size(), 1u);
  EXPECT_EQ(reassigned[0], (net::PayeeReassignMsg{open.offer.tx,
                                                  open.bystander}));
  // The reciprocation names the transaction: the new payee is sent nothing.
  EXPECT_EQ(rec.sent_count(open.bystander), to_bystander);

  const auto retries = events_of(rec, EventKind::kTxRetry);
  ASSERT_EQ(retries.size(), 1u);
  EXPECT_EQ(retries[0].aux, aux(obs::RetryCause::kPayeeFinished));
  EXPECT_EQ(rec.counters["rt.payee_reselects"], 1);
  EXPECT_EQ(rec.counters.count("rt.tx_retries"), 0u);
  EXPECT_EQ(a->open_donor_txs(), 1u);
  EXPECT_EQ(rec.watchdogs.count(open.offer.tx), 1u);  // still the safety net
}

TEST_F(NodeTest, PayeeFinishingWithNoPayeeLeftSettlesGratis) {
  Recorder rec;
  OpenTx open;
  auto a = open_seeder_tx(rec, {kR, kY}, open);
  ASSERT_EQ(a->open_donor_txs(), 1u);
  const net::PeerId r = open.offer.requestor;

  a->on_message(open.offer.payee, net::Message{net::HaveMsg{kPiece}});
  a->advance();
  EXPECT_EQ(a->open_donor_txs(), 0u);
  EXPECT_TRUE(rec.watchdogs.empty());

  // The break precedes the gratis key; the waiver follows the key.
  std::vector<EventKind> kinds;
  for (const obs::TraceEvent& e : rec.events) {
    if (e.kind == EventKind::kTxRetry || e.kind == EventKind::kChainBreak ||
        e.kind == EventKind::kKeyDelivered || e.kind == EventKind::kTxClose) {
      kinds.push_back(e.kind);
    }
  }
  EXPECT_EQ(kinds, (std::vector<EventKind>{
                       EventKind::kTxRetry, EventKind::kChainBreak,
                       EventKind::kKeyDelivered, EventKind::kTxClose}));
  const auto breaks = events_of(rec, EventKind::kChainBreak);
  ASSERT_EQ(breaks.size(), 1u);
  EXPECT_EQ(breaks[0].aux,
            static_cast<std::uint8_t>(obs::ChainBreakCause::kNoPayee));

  std::vector<std::size_t> order;  // positions of the key and the waiver
  for (std::size_t i = 0; i < rec.sent.size(); ++i) {
    if (rec.sent[i].to != r) continue;
    if (const auto* k = std::get_if<net::KeyReleaseMsg>(&rec.sent[i].m)) {
      EXPECT_EQ(k->tx, open.offer.tx);
      order.push_back(i);
    }
    if (const auto* w = std::get_if<net::PayeeReassignMsg>(&rec.sent[i].m)) {
      EXPECT_EQ(*w, (net::PayeeReassignMsg{open.offer.tx, net::kNoPeer}));
      order.push_back(i);
    }
  }
  ASSERT_EQ(order.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<net::KeyReleaseMsg>(rec.sent[order[0]].m));
}

TEST_F(NodeTest, DonorFinishingAsItsOwnPayeeReselects) {
  // A leeches from the seeder X and lacks only kPiece, which R holds: its
  // opportunistic chain head toward R designates A itself (direct
  // reciprocity, §II-B2).
  Recorder rec;
  auto a = make_node(kA, rec, {kR, kX});
  bt::Bitfield only_piece(meta.piece_count);
  only_piece.set(kPiece);
  bt::Bitfield all(meta.piece_count);
  for (std::uint32_t p = 0; p < meta.piece_count; ++p) all.set(p);
  a->on_message(kR, net::Message{only_piece.to_message()});
  a->on_message(kX, net::Message{all.to_message()});
  const auto plain = [&](net::PieceIndex p) {
    return net::Message{net::PlainPieceMsg{100 + p, 200 + p, kX, p,
                                           net::kNoPeer, 0, meta.pieces[p]}};
  };
  for (net::PieceIndex p = 0; p < meta.piece_count; ++p) {
    if (p != kPiece) a->on_message(kX, plain(p));
  }
  a->advance();
  const auto offers = rec.sent_to<net::EncryptedPieceMsg>(kR);
  ASSERT_EQ(offers.size(), 1u);
  ASSERT_EQ(offers[0].payee, kA);

  // X's kPiece completes A, which can no longer be paid: with R the
  // requestor and X complete, no payee qualifies, so A settles gratis.
  a->on_message(kX, plain(kPiece));
  a->advance();
  ASSERT_TRUE(a->complete());
  EXPECT_EQ(a->open_donor_txs(), 0u);
  const auto retries = events_of(rec, EventKind::kTxRetry);
  ASSERT_EQ(retries.size(), 1u);
  EXPECT_EQ(retries[0].ref, offers[0].tx);
  EXPECT_EQ(retries[0].aux, aux(obs::RetryCause::kPayeeFinished));
  const auto waivers = rec.sent_to<net::PayeeReassignMsg>(kR);
  ASSERT_EQ(waivers.size(), 1u);
  EXPECT_EQ(waivers[0], (net::PayeeReassignMsg{offers[0].tx, net::kNoPeer}));
  EXPECT_EQ(rec.sent_to<net::KeyReleaseMsg>(kR).size(), 1u);
}

TEST_F(NodeTest, PayeeDisconnectingReassigns) {
  Recorder rec;
  OpenTx open;
  auto a = open_seeder_tx(rec, {kR, kX, kY}, open);
  ASSERT_NE(open.bystander, net::kNoPeer);

  const std::size_t to_bystander = rec.sent_count(open.bystander);
  a->on_neighbor_down(open.offer.payee);
  a->advance();
  const auto reassigned = rec.sent_to<net::PayeeReassignMsg>(
      open.offer.requestor);
  ASSERT_EQ(reassigned.size(), 1u);
  EXPECT_EQ(reassigned[0].new_payee, open.bystander);
  EXPECT_EQ(rec.sent_count(open.bystander), to_bystander);
  const auto retries = events_of(rec, EventKind::kTxRetry);
  ASSERT_EQ(retries.size(), 1u);
  EXPECT_EQ(retries[0].aux, aux(obs::RetryCause::kPayeeGone));
  EXPECT_EQ(a->open_donor_txs(), 1u);
}

TEST_F(NodeTest, ReceiptFromThePreviousPayeeStillReleasesTheKey) {
  // R's reciprocation was already on its way to the old payee when it
  // finished; that payee's receipt arrives after the reassignment.
  Recorder rec;
  OpenTx open;
  auto a = open_seeder_tx(rec, {kR, kX, kY}, open);
  const net::PeerId old_payee = open.offer.payee;
  const net::PeerId r = open.offer.requestor;
  a->on_message(old_payee, net::Message{net::HaveMsg{kPiece}});
  a->advance();
  ASSERT_EQ(rec.sent_to<net::PayeeReassignMsg>(r).size(), 1u);

  net::ReceiptMsg receipt;
  receipt.reciprocated_tx = open.offer.tx;
  receipt.payee = old_payee;
  receipt.requestor = r;
  receipt.piece = 2;
  receipt.mac = net::receipt_mac(derive_mac_key(kA, old_payee),
                                 open.offer.tx, old_payee, r, 2);
  a->on_message(old_payee, net::Message{receipt});
  const auto keys_sent = rec.sent_to<net::KeyReleaseMsg>(r);
  ASSERT_EQ(keys_sent.size(), 1u);
  EXPECT_EQ(keys_sent[0].tx, open.offer.tx);
  EXPECT_EQ(a->open_donor_txs(), 0u);
  EXPECT_TRUE(events_of(rec, EventKind::kChainBreak).empty());  // paid
}

TEST_F(NodeTest, ReciprocationYieldsReceiptOnDelivery) {
  // Y is A's payee for tx 777. R's reciprocation names that transaction, so
  // its delivery alone is enough: Y receipts at once, with nothing from A.
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
  recip.prev_tx = 777;
  recip.ciphertext = util::Bytes(1024, 0x5a);
  y->on_message(kR, net::Message{recip});
  const auto receipts = rec.sent_to<net::ReceiptMsg>(kA);
  ASSERT_EQ(receipts.size(), 1u);
  DonorSession a = offer_from_a(kY);
  EXPECT_TRUE(a.accept_receipt(receipts[0]));
}

TEST_F(NodeTest, StuckDebtIsPaidInTheBatchOfThePieceThatUnsticksIt) {
  // R holds piece 0 and owes A for kPiece, payable to Y. Y already claims
  // both, so R has nothing to give and cannot forward: the debt is stuck.
  constexpr net::PieceIndex kHeld = 0;
  constexpr net::PieceIndex kNew = 3;
  Recorder rec;
  auto r = make_node(kR, rec, {kA, kX, kY});
  bt::Bitfield y_has(meta.piece_count);
  y_has.set(kHeld);
  y_has.set(kPiece);
  r->on_message(kY, net::Message{y_has.to_message()});
  const auto plain = [&](net::PieceIndex p) {
    return net::Message{net::PlainPieceMsg{100 + p, 200 + p, kX, p,
                                           net::kNoPeer, 0, meta.pieces[p]}};
  };
  r->on_message(kX, plain(kHeld));
  r->advance();
  DonorSession a = offer_from_a(kY);
  r->on_message(kA, net::Message{a.take_offer()});
  r->advance();
  r->advance();  // nothing moved: the stuck debt is not retried
  EXPECT_TRUE(rec.sent_to<net::EncryptedPieceMsg>(kY).empty());
  EXPECT_TRUE(rec.sent_to<net::PlainPieceMsg>(kY).empty());

  // A piece Y lacks arrives: the advance after it pays the debt with it.
  r->on_message(kX, plain(kNew));
  r->advance();
  const auto recips = rec.sent_to<net::EncryptedPieceMsg>(kY);
  ASSERT_EQ(recips.size(), 1u);
  EXPECT_EQ(recips[0].piece, kNew);
  EXPECT_EQ(recips[0].prev_donor, kA);
  EXPECT_EQ(recips[0].prev_tx, 777u);
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
    r->advance();
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

TEST_F(NodeTest, KeyForAHeldPieceCascadesWithoutDecrypting) {
  // A's ciphertext is itself a forward, under two keys, so one key cannot
  // complete it. R, holding nothing, forwards it to its payee X.
  Recorder rec;
  auto r = make_node(kR, rec, {kA, kX, kY});
  const crypto::SymmetricKey k1 = keys.next();
  const crypto::SymmetricKey k2 = keys.next();
  net::EncryptedPieceMsg offer;
  offer.tx = 777;
  offer.chain = 9;
  offer.donor = kA;
  offer.requestor = kR;
  offer.payee = kX;
  offer.piece = kPiece;
  offer.ciphertext =
      crypto::piece_xor(k1, crypto::piece_xor(k2, meta.pieces[kPiece]));
  r->on_message(kA, net::Message{offer});
  r->advance();
  const auto fwd = rec.sent_to<net::EncryptedPieceMsg>(kX);
  ASSERT_EQ(fwd.size(), 1u);
  ASSERT_EQ(fwd[0].piece, kPiece);

  // Y's plain copy of the piece arrives before either key.
  r->on_message(kY, net::Message{net::PlainPieceMsg{
                        900, 901, kY, kPiece, net::kNoPeer, 0,
                        meta.pieces[kPiece]}});
  ASSERT_TRUE(holds_piece(*r));
  ASSERT_EQ(events_of(rec, EventKind::kPieceGranted).size(), 1u);
  const std::size_t before = r->payload_bytes();

  // The first key still reaches X; R skips the peel and frees the buffer.
  r->on_message(kA, net::Message{net::KeyReleaseMsg{777, kPiece,
                                                    k1.serialize()}});
  auto to_x = rec.sent_to<net::KeyReleaseMsg>(kX);
  ASSERT_EQ(to_x.size(), 1u);
  EXPECT_EQ(to_x[0], (net::KeyReleaseMsg{fwd[0].tx, kPiece, k1.serialize()}));
  EXPECT_EQ(rec.counters["rt.keys_held"], 1);
  EXPECT_EQ(r->payload_bytes(), before - meta.piece_bytes);
  EXPECT_EQ(events_of(rec, EventKind::kPieceGranted).size(), 1u);

  // The transaction is not done: the second key cascades too.
  r->on_message(kA, net::Message{net::KeyReleaseMsg{777, kPiece,
                                                    k2.serialize()}});
  to_x = rec.sent_to<net::KeyReleaseMsg>(kX);
  ASSERT_EQ(to_x.size(), 2u);
  EXPECT_EQ(to_x[1], (net::KeyReleaseMsg{fwd[0].tx, kPiece, k2.serialize()}));
  EXPECT_EQ(rec.counters["rt.keys_held"], 2);
  EXPECT_EQ(events_of(rec, EventKind::kPieceGranted).size(), 1u);
  EXPECT_TRUE(holds_piece(*r));
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
    r->advance();
    const auto recips = rec.sent_to<net::EncryptedPieceMsg>(kY);
    if (waiver_from == kA) {
      EXPECT_TRUE(recips.empty());  // the donor settled gratis: no debt
    } else {
      ASSERT_EQ(recips.size(), 1u);  // the debt to A still stands
      EXPECT_EQ(recips[0].prev_donor, kA);
      EXPECT_EQ(recips[0].prev_tx, 777u);
    }
  }
}

}  // namespace
}  // namespace tc::core
