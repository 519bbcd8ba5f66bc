#include "src/core/transaction.h"

#include <algorithm>
#include <stdexcept>

namespace tc::core {

Transaction& TransactionTable::create(ChainId chain, PeerId donor,
                                      PeerId requestor, PeerId payee,
                                      PieceIndex piece, TxId prev,
                                      util::SimTime now) {
  const TxId id = next_id_++;
  Transaction tx;
  tx.id = id;
  tx.chain = chain;
  tx.donor = donor;
  tx.requestor = requestor;
  tx.payee = payee;
  tx.piece = piece;
  tx.prev = prev;
  tx.started = now;
  auto [it, ok] = txs_.emplace(id, tx);
  if (!ok) throw std::logic_error("duplicate tx id");
  index_peer(donor, id);
  index_peer(requestor, id);
  if (payee != net::kNoPeer && payee != donor && payee != requestor)
    index_peer(payee, id);
  if (trace_ != nullptr) {
    trace_->emit({.t = now,
                  .kind = obs::EventKind::kTxOpen,
                  .piece = piece,
                  .a = donor,
                  .b = requestor,
                  .c = payee,
                  .ref = id,
                  .chain = chain});
  }
  return it->second;
}

Transaction* TransactionTable::get(TxId id) {
  const auto it = txs_.find(id);
  return it == txs_.end() ? nullptr : &it->second;
}

const Transaction* TransactionTable::get(TxId id) const {
  const auto it = txs_.find(id);
  return it == txs_.end() ? nullptr : &it->second;
}

void TransactionTable::erase(TxId id) {
  const auto it = txs_.find(id);
  if (it == txs_.end()) return;
  const Transaction& tx = it->second;
  if (trace_ != nullptr) {
    trace_->emit({.t = clock_ ? clock_() : tx.started,
                  .kind = obs::EventKind::kTxClose,
                  .aux = static_cast<std::uint8_t>(tx.state),
                  .piece = tx.piece,
                  .a = tx.donor,
                  .b = tx.requestor,
                  .c = tx.payee,
                  .ref = id,
                  .chain = tx.chain});
  }
  unindex_peer(tx.donor, id);
  unindex_peer(tx.requestor, id);
  if (tx.payee != net::kNoPeer && tx.payee != tx.donor &&
      tx.payee != tx.requestor)
    unindex_peer(tx.payee, id);
  txs_.erase(it);
}

void TransactionTable::set_payee(TxId id, PeerId new_payee) {
  Transaction* tx = get(id);
  if (tx == nullptr || tx->payee == new_payee) return;
  if (tx->payee != net::kNoPeer && tx->payee != tx->donor &&
      tx->payee != tx->requestor)
    unindex_peer(tx->payee, id);
  tx->payee = new_payee;
  if (new_payee != net::kNoPeer && new_payee != tx->donor &&
      new_payee != tx->requestor)
    index_peer(new_payee, id);
}

std::vector<TxId> TransactionTable::involving(PeerId peer) const {
  const auto it = by_peer_.find(peer);
  return it == by_peer_.end() ? std::vector<TxId>{} : it->second;
}

void TransactionTable::index_peer(PeerId p, TxId id) {
  by_peer_[p].push_back(id);
}

void TransactionTable::unindex_peer(PeerId p, TxId id) {
  const auto it = by_peer_.find(p);
  if (it == by_peer_.end()) return;
  auto& v = it->second;
  v.erase(std::remove(v.begin(), v.end(), id), v.end());
  if (v.empty()) by_peer_.erase(it);
}

}  // namespace tc::core
