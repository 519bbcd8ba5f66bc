#include "src/core/transaction.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

namespace tc::core {
namespace {

TEST(TransactionTable, CreateAssignsUniqueIds) {
  TransactionTable t;
  const auto& a = t.create(1, 10, 20, 30, 5, 0, 0.0);
  const auto& b = t.create(1, 20, 30, 40, 6, a.id, 1.0);
  EXPECT_NE(a.id, b.id);
  EXPECT_EQ(b.prev, a.id);
  EXPECT_EQ(t.size(), 2u);
}

TEST(TransactionTable, GetAndErase) {
  TransactionTable t;
  const TxId id = t.create(1, 10, 20, 30, 5, 0, 0.0).id;
  ASSERT_NE(t.get(id), nullptr);
  EXPECT_EQ(t.get(id)->donor, 10u);
  t.erase(id);
  EXPECT_EQ(t.get(id), nullptr);
  EXPECT_EQ(t.size(), 0u);
  t.erase(id);  // idempotent
}

// An id names its slot and the slot's use count, so an id kept past its
// erase must miss once the slot holds a newer transaction, and id 0 (the
// "no transaction" link) never matches a freed slot.
TEST(TransactionTable, StaleIdMissesAfterItsSlotIsReused) {
  TransactionTable t;
  const TxId stale = t.create(1, 10, 20, 30, 5, 0, 0.0).id;
  EXPECT_EQ(t.get(0), nullptr);
  t.erase(stale);
  EXPECT_EQ(t.get(0), nullptr);  // the slot is free now
  Transaction& fresh = t.create(2, 11, 21, 31, 6, 0, 1.0);
  ASSERT_NE(fresh.id, stale);
  EXPECT_EQ(t.get(stale), nullptr);
  t.erase(stale);
  t.set_payee(stale, 40);
  ASSERT_EQ(t.get(fresh.id), &fresh);
  EXPECT_EQ(fresh.payee, 31u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.involving(31), (std::vector<TxId>{fresh.id}));
  EXPECT_TRUE(t.involving(40).empty());
  t.erase(0);
  t.set_payee(0, 40);
  EXPECT_EQ(t.get(fresh.id), &fresh);
  EXPECT_EQ(t.size(), 1u);
}

// A slot retires before its use count would carry an id past 2^53, the
// largest integer a double (the Chrome JSON export) holds exactly.
TEST(TransactionTable, IdsStayExactAsDoubles) {
  TransactionTable t;
  TxId id = 0;
  for (int i = 0; i < (1 << 21); ++i) {
    id = t.create(1, 10, 20, 30, 5, 0, 0.0).id;
    ASSERT_LT(id, TxId{1} << 53);
    t.erase(id);
  }
  EXPECT_EQ(static_cast<std::uint32_t>(id), 1u);  // slot 0 has retired
}

TEST(TransactionTable, InvolvingIndexesAllRoles) {
  TransactionTable t;
  const TxId id = t.create(1, 10, 20, 30, 5, 0, 0.0).id;
  for (PeerId p : {10u, 20u, 30u}) {
    const auto v = t.involving(p);
    ASSERT_EQ(v.size(), 1u) << p;
    EXPECT_EQ(v[0], id);
  }
  EXPECT_TRUE(t.involving(99).empty());
  t.erase(id);
  for (PeerId p : {10u, 20u, 30u}) EXPECT_TRUE(t.involving(p).empty());
}

TEST(TransactionTable, DirectReciprocityIndexesDonorOnce) {
  TransactionTable t;
  // payee == donor (direct reciprocity): donor must appear once.
  const TxId id = t.create(1, 10, 20, 10, 5, 0, 0.0).id;
  EXPECT_EQ(t.involving(10).size(), 1u);
  t.erase(id);
  EXPECT_TRUE(t.involving(10).empty());
}

TEST(TransactionTable, TerminalTxHasNoPayee) {
  TransactionTable t;
  const auto& tx = t.create(1, 10, 20, net::kNoPeer, 5, 0, 0.0);
  EXPECT_FALSE(tx.encrypted());
  EXPECT_TRUE(t.involving(20).size() == 1);
}

TEST(TransactionTable, SetPayeeReindexes) {
  TransactionTable t;
  const TxId id = t.create(1, 10, 20, 30, 5, 0, 0.0).id;
  t.set_payee(id, 40);
  EXPECT_TRUE(t.involving(30).empty());
  ASSERT_EQ(t.involving(40).size(), 1u);
  EXPECT_EQ(t.get(id)->payee, 40u);
  // Reassigning to the donor itself must not double-index.
  t.set_payee(id, 10);
  EXPECT_EQ(t.involving(10).size(), 1u);
}

TEST(TransactionTable, InvolvingWithManyTransactions) {
  TransactionTable t;
  std::vector<TxId> ids;
  for (int i = 0; i < 10; ++i)
    ids.push_back(t.create(1, 10, static_cast<PeerId>(20 + i), 30, 5, 0, 0.0).id);
  EXPECT_EQ(t.involving(10).size(), 10u);
  EXPECT_EQ(t.involving(30).size(), 10u);
  EXPECT_EQ(t.involving(25).size(), 1u);
  t.erase(ids[3]);
  EXPECT_EQ(t.involving(10).size(), 9u);
}

TEST(TransactionTable, PayeeReassignedAwayAndBackReappends) {
  TransactionTable t;
  const TxId a = t.create(1, 10, 20, 30, 5, 0, 0.0).id;
  const TxId b = t.create(2, 11, 21, 30, 6, 0, 0.0).id;
  EXPECT_EQ(t.involving(30), (std::vector<TxId>{a, b}));
  t.set_payee(a, 40);
  EXPECT_EQ(t.involving(30), (std::vector<TxId>{b}));
  EXPECT_EQ(t.involving(40), (std::vector<TxId>{a}));
  t.set_payee(a, 30);
  // Back under 30, but at the end: involving() is indexing order.
  EXPECT_EQ(t.involving(30), (std::vector<TxId>{b, a}));
  EXPECT_TRUE(t.involving(40).empty());
}

// The table as it was kept before the slot pool: an ordered map of
// transactions and, per peer, a vector of ids appended on indexing and
// filtered on unindexing. involving() order is the vector order. It takes
// the table's ids, which name slots, not creation order.
class ReferenceTable {
 public:
  struct Tx {
    PeerId donor, requestor, payee;
    PieceIndex piece;
  };

  // False if `id` is 0 or was ever issued before.
  bool create(TxId id, PeerId d, PeerId r, PeerId p, PieceIndex piece) {
    if (id == 0 || !issued_.insert(id).second) return false;
    txs_[id] = {d, r, p, piece};
    by_peer_[d].push_back(id);
    by_peer_[r].push_back(id);
    if (p != net::kNoPeer && p != d && p != r) by_peer_[p].push_back(id);
    return true;
  }
  void erase(TxId id) {
    const auto it = txs_.find(id);
    if (it == txs_.end()) return;
    const Tx tx = it->second;
    unindex(tx.donor, id);
    unindex(tx.requestor, id);
    if (tx.payee != net::kNoPeer && tx.payee != tx.donor &&
        tx.payee != tx.requestor)
      unindex(tx.payee, id);
    txs_.erase(it);
  }
  void set_payee(TxId id, PeerId p) {
    const auto it = txs_.find(id);
    if (it == txs_.end() || it->second.payee == p) return;
    Tx& tx = it->second;
    if (tx.payee != net::kNoPeer && tx.payee != tx.donor &&
        tx.payee != tx.requestor)
      unindex(tx.payee, id);
    tx.payee = p;
    if (p != net::kNoPeer && p != tx.donor && p != tx.requestor)
      by_peer_[p].push_back(id);
  }
  std::vector<TxId> involving(PeerId p) const {
    const auto it = by_peer_.find(p);
    return it == by_peer_.end() ? std::vector<TxId>{} : it->second;
  }
  const std::map<TxId, Tx>& txs() const { return txs_; }

 private:
  void unindex(PeerId p, TxId id) {
    auto& v = by_peer_[p];
    v.erase(std::remove(v.begin(), v.end(), id), v.end());
  }

  std::set<TxId> issued_;
  std::map<TxId, Tx> txs_;
  std::map<PeerId, std::vector<TxId>> by_peer_;
};

// Randomized differential run against ReferenceTable: thousands of
// short-lived ids over a live window that swells (growing the id index and
// the slot pool) and drains, a few long-lived ids from the start, payee
// reassignments away and back, and get() pointers held across creates.
TEST(TransactionTable, MatchesReferenceModelUnderChurn) {
  std::mt19937_64 rng(20150629);
  auto uniform = [&](std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
  };
  TransactionTable t;
  ReferenceTable ref;
  std::vector<TxId> live;  // short-lived ids, in no particular order
  std::vector<TxId> old;   // created first, erased last
  PeerId peer_span = 40;   // widened mid-run: the per-peer table grows too
  std::vector<std::pair<TxId, const Transaction*>> held;

  auto pick_peer = [&] { return static_cast<PeerId>(uniform(peer_span)); };
  auto make = [&] {
    const PeerId d = pick_peer();
    PeerId r = pick_peer();
    if (r == d) r = (d + 1) % peer_span;
    const std::uint64_t kind = uniform(10);
    const PeerId p = kind == 0 ? net::kNoPeer
                   : kind == 1 ? d
                   : kind == 2 ? r
                               : pick_peer();
    const auto piece = static_cast<PieceIndex>(uniform(64));
    const Transaction& tx = t.create(7, d, r, p, piece, 0, 0.0);
    EXPECT_TRUE(ref.create(tx.id, d, r, p, piece)) << tx.id;
    return &tx;
  };
  auto check_all = [&] {
    ASSERT_EQ(t.size(), ref.txs().size());
    for (const auto& [id, want] : ref.txs()) {
      const Transaction* got = t.get(id);
      ASSERT_NE(got, nullptr) << id;
      EXPECT_EQ(got->id, id);
      EXPECT_EQ(got->donor, want.donor);
      EXPECT_EQ(got->requestor, want.requestor);
      EXPECT_EQ(got->payee, want.payee);
      EXPECT_EQ(got->piece, want.piece);
    }
    for (PeerId p = 0; p < peer_span + 2; ++p)
      ASSERT_EQ(t.involving(p), ref.involving(p)) << "peer " << p;
    for (const auto& [id, ptr] : held) EXPECT_EQ(t.get(id), ptr) << id;
  };

  for (int i = 0; i < 5; ++i) old.push_back(make()->id);
  constexpr int kSteps = 40000;
  for (int step = 0; step < kSteps; ++step) {
    if (step == kSteps / 2) peer_span = 300;
    // Swell to a few thousand live ids, then drain, twice.
    const bool swelling = (step / (kSteps / 4)) % 2 == 0;
    const std::uint64_t op = uniform(100);
    if (op < (swelling ? 55u : 30u)) {
      const Transaction* tx = make();
      live.push_back(tx->id);
      if (held.size() < 8 && uniform(500) == 0) held.emplace_back(tx->id, tx);
    } else if (op < 85) {
      if (live.empty()) continue;
      const std::size_t k = uniform(live.size());
      const TxId id = live[k];
      if (std::any_of(held.begin(), held.end(),
                      [&](const auto& h) { return h.first == id; }))
        continue;
      live[k] = live.back();
      live.pop_back();
      t.erase(id);
      ref.erase(id);
      t.erase(id);  // idempotent, as is erasing an id never issued
      t.erase((TxId{1} << 32) | 0xfffffffeu);  // a slot never handed out
    } else if (op < 97) {
      if (live.empty()) continue;
      const TxId id = live[uniform(live.size())];
      const Transaction* tx = t.get(id);
      ASSERT_NE(tx, nullptr);
      const PeerId before = tx->payee;
      const std::uint64_t kind = uniform(4);
      const PeerId p = kind == 0 ? net::kNoPeer
                     : kind == 1 ? tx->donor
                                 : pick_peer();
      t.set_payee(id, p);
      ref.set_payee(id, p);
      if (uniform(3) == 0) {  // and back again
        t.set_payee(id, before);
        ref.set_payee(id, before);
      }
    } else {
      const PeerId p = pick_peer();
      ASSERT_EQ(t.involving(p), ref.involving(p)) << "peer " << p;
      EXPECT_EQ(t.get(0), nullptr);
    }
    if (step % 5000 == 4999) check_all();
  }
  EXPECT_EQ(held.size(), 8u);
  check_all();
  for (const TxId id : live) {
    t.erase(id);
    ref.erase(id);
  }
  for (const auto& [id, ptr] : held) {
    t.erase(id);
    ref.erase(id);
  }
  for (const TxId id : old) {
    ASSERT_NE(t.get(id), nullptr);
    t.erase(id);
    ref.erase(id);
  }
  held.clear();
  check_all();
  EXPECT_EQ(t.size(), 0u);
}

}  // namespace
}  // namespace tc::core
