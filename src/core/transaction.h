// T-Chain transactions (paper §II-B, Table I).
//
// A transaction t_j is a triple (Donor D_j, Requestor R_j, Payee P_j): D_j
// uploads an encrypted piece to R_j, who must reciprocate by uploading a
// piece to P_j before D_j releases the decryption key. The reciprocation
// upload *is* transaction t_{j+1} (R_j becomes D_{j+1}, P_j becomes
// R_{j+1}), chaining transactions indefinitely.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/peer_id.h"
#include "src/net/message.h"
#include "src/obs/trace.h"
#include "src/util/units.h"

namespace tc::core {

using net::PeerId;
using net::PieceIndex;
using TxId = std::uint64_t;
using ChainId = std::uint64_t;

using obs::TxState;

struct Transaction {
  TxId id = 0;
  ChainId chain = 0;
  PeerId donor = net::kNoPeer;
  PeerId requestor = net::kNoPeer;
  PeerId payee = net::kNoPeer;  // kNoPeer => unencrypted / terminal upload
  PieceIndex piece = net::kNoPiece;
  TxId prev = 0;  // transaction this upload reciprocates (0 = chain head)
  TxId next = 0;  // reciprocation transaction, once started
  // kUploading until the encrypted piece lands, then kAwaitKey. A
  // transaction leaves the table on its end; the state it ends in is
  // written only to the kTxClose event its driver emits.
  TxState state = TxState::kUploading;
  // Donor departed after delivery; the key is escrowed with the payee, who
  // releases it directly upon reciprocation (§II-B4).
  bool key_escrowed = false;
  // The reciprocation upload (`next`) delivered its piece, so a receipt is
  // owed to this transaction's donor. Lets the per-transaction watchdog
  // tell "receipt lost in transit" (re-send it) from "reciprocation never
  // happened" (re-kick the chain).
  bool next_delivered = false;
  util::SimTime started = 0.0;

  bool encrypted() const { return payee != net::kNoPeer; }
};

// Transaction store with a per-peer role index so departures can find every
// transaction a peer participates in, in O(its transactions).
//
// Transactions live in a pool of fixed-size chunks, so a Transaction& stays
// valid across later create() calls until that transaction is erased, and a
// freed slot is reused by the next create(). An id names its slot:
// id = uses << 32 | slot, where `uses` counts how often that slot has been
// handed out (from 1), so a lookup reads the slot and compares ids, and an
// id kept past its erase misses once the slot is reused. Id 0 never
// matches. Each slot carries one link pair per role (donor, requestor,
// payee), threading it into a doubly linked list per PeerId, so indexing
// and unindexing are O(1). Memory follows the live transaction count, not
// the ids ever issued. The table does not trace: its driver emits kTxOpen
// beside create() and kTxClose beside erase().
class TransactionTable {
 public:
  Transaction& create(ChainId chain, PeerId donor, PeerId requestor,
                      PeerId payee, PieceIndex piece, TxId prev,
                      util::SimTime now);

  Transaction* get(TxId id) {
    Slot* s = find(id);
    return s == nullptr ? nullptr : &s->tx;
  }
  const Transaction* get(TxId id) const {
    const Slot* s = find(id);
    return s == nullptr ? nullptr : &s->tx;
  }

  // Removes an ended transaction from the table.
  void erase(TxId id);

  // Payee reassignment after a departure (§II-B4); keeps the role index
  // consistent.
  void set_payee(TxId id, PeerId new_payee);

  // All live transaction ids in which `peer` plays any role, in the order
  // they were indexed under it: creation order, except that a set_payee()
  // onto `peer` appends at the end.
  std::vector<TxId> involving(PeerId peer) const;

  std::size_t size() const { return live_; }

 private:
  // A link names one (slot, role) pair: slot << 2 | role.
  using Link = std::uint32_t;
  static constexpr std::uint32_t kNil = 0xffffffffu;
  enum Role : std::uint32_t { kDonor = 0, kRequestor = 1, kPayee = 2 };

  struct Slot {
    Transaction tx;  // tx.id == 0 while the slot is free
    // Per role: the neighbouring links in the list of the peer playing it.
    Link prev[3] = {kNil, kNil, kNil};
    Link next[3] = {kNil, kNil, kNil};
    std::uint32_t index = 0;  // this slot's number in the pool
    std::uint32_t uses = 0;   // times this slot was handed out
  };
  struct List {
    Link head = kNil;
    Link tail = kNil;
  };

  static constexpr std::uint32_t kChunkBits = 9;
  static constexpr std::uint32_t kChunk = 1u << kChunkBits;
  // A slot retires after this many uses, so every id stays below 2^53 and
  // is exact as a double (the Chrome JSON export). The most uses seen on
  // one slot is about 8,200, in a 128 MiB fig8 run.
  static constexpr std::uint32_t kMaxUses = (1u << 21) - 1;

  Slot& slot_at(std::uint32_t i) const {
    return chunks_[i >> kChunkBits][i & (kChunk - 1)];
  }
  static PeerId role_peer(const Transaction& tx, Role role) {
    return role == kDonor ? tx.donor
         : role == kRequestor ? tx.requestor : tx.payee;
  }
  // Whether `tx` sits in the list of the peer playing `role`: a payee who
  // is also the donor or the requestor is listed once, under that role.
  static bool listed(const Transaction& tx, Role role) {
    const PeerId p = role_peer(tx, role);
    return p != net::kNoPeer &&
           (role != kPayee || (p != tx.donor && p != tx.requestor));
  }

  Slot* find(TxId id) const {
    const auto i = static_cast<std::uint32_t>(id);
    if (id == 0 || i >= slots_used_) return nullptr;
    Slot& s = slot_at(i);
    return s.tx.id == id ? &s : nullptr;
  }
  Slot& alloc_slot();
  void link(Slot& s, Role role);
  void unlink(Slot& s, Role role);

  std::size_t live_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slots_used_ = 0;     // slots ever handed out
  std::vector<std::uint32_t> free_;  // erased slots, reused LIFO
  std::vector<List> lists_;          // PeerId -> its role list
};

}  // namespace tc::core
