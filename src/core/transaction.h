// T-Chain transactions (paper §II-B, Table I).
//
// A transaction t_j is a triple (Donor D_j, Requestor R_j, Payee P_j): D_j
// uploads an encrypted piece to R_j, who must reciprocate by uploading a
// piece to P_j before D_j releases the decryption key. The reciprocation
// upload *is* transaction t_{j+1} (R_j becomes D_{j+1}, P_j becomes
// R_{j+1}), chaining transactions indefinitely.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
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
class TransactionTable {
 public:
  Transaction& create(ChainId chain, PeerId donor, PeerId requestor,
                      PeerId payee, PieceIndex piece, TxId prev,
                      util::SimTime now);

  Transaction* get(TxId id);
  const Transaction* get(TxId id) const;

  // Removes a settled transaction from the table (state must be final).
  void erase(TxId id);

  // Payee reassignment after a departure (§II-B4); keeps the role index
  // consistent.
  void set_payee(TxId id, PeerId new_payee);

  // All live transaction ids in which `peer` plays any role.
  std::vector<TxId> involving(PeerId peer) const;

  std::size_t size() const { return txs_.size(); }
  std::uint64_t created() const { return next_id_ - 1; }

  // Observability hookup: create() then emits kTxOpen and erase() kTxClose
  // (with the final state in aux). `clock` supplies the erase timestamp —
  // a std::function so core stays independent of the sim layer. Null trace
  // (the default) keeps both paths branch-only.
  void set_trace(obs::Trace* trace, std::function<util::SimTime()> clock) {
    trace_ = trace;
    clock_ = std::move(clock);
  }

 private:
  void index_peer(PeerId p, TxId id);
  void unindex_peer(PeerId p, TxId id);

  TxId next_id_ = 1;
  std::unordered_map<TxId, Transaction> txs_;
  std::unordered_map<PeerId, std::vector<TxId>> by_peer_;
  obs::Trace* trace_ = nullptr;
  std::function<util::SimTime()> clock_;
};

}  // namespace tc::core
