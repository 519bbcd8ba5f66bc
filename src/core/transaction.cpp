#include "src/core/transaction.h"

namespace tc::core {

Transaction& TransactionTable::create(ChainId chain, PeerId donor,
                                      PeerId requestor, PeerId payee,
                                      PieceIndex piece, TxId prev,
                                      util::SimTime now) {
  Slot& s = alloc_slot();
  const TxId id = (TxId{++s.uses} << 32) | s.index;
  Transaction& tx = s.tx;
  tx = Transaction{};
  tx.id = id;
  tx.chain = chain;
  tx.donor = donor;
  tx.requestor = requestor;
  tx.payee = payee;
  tx.piece = piece;
  tx.prev = prev;
  tx.started = now;
  ++live_;
  for (Role role : {kDonor, kRequestor, kPayee}) link(s, role);
  return tx;
}

void TransactionTable::erase(TxId id) {
  Slot* s = find(id);
  if (s == nullptr) return;
  for (Role role : {kDonor, kRequestor, kPayee}) unlink(*s, role);
  s->tx.id = 0;
  if (s->uses < kMaxUses) free_.push_back(s->index);
  --live_;
}

void TransactionTable::set_payee(TxId id, PeerId new_payee) {
  Slot* s = find(id);
  if (s == nullptr || s->tx.payee == new_payee) return;
  unlink(*s, kPayee);
  s->tx.payee = new_payee;
  link(*s, kPayee);
}

std::vector<TxId> TransactionTable::involving(PeerId peer) const {
  std::vector<TxId> out;
  if (peer >= lists_.size()) return out;
  for (Link l = lists_[peer].head; l != kNil;) {
    const Slot& s = slot_at(l >> 2);
    out.push_back(s.tx.id);
    l = s.next[l & 3];
  }
  return out;
}

TransactionTable::Slot& TransactionTable::alloc_slot() {
  if (!free_.empty()) {
    const std::uint32_t i = free_.back();
    free_.pop_back();
    return slot_at(i);
  }
  if ((slots_used_ & (kChunk - 1)) == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunk));
  }
  Slot& s = slot_at(slots_used_);
  s.index = slots_used_++;
  return s;
}

void TransactionTable::link(Slot& s, Role role) {
  if (!listed(s.tx, role)) return;
  const PeerId p = role_peer(s.tx, role);
  if (p >= lists_.size()) lists_.resize(static_cast<std::size_t>(p) + 1);
  List& list = lists_[p];
  const Link me = s.index << 2 | role;
  s.prev[role] = list.tail;
  s.next[role] = kNil;
  if (list.tail == kNil) {
    list.head = me;
  } else {
    slot_at(list.tail >> 2).next[list.tail & 3] = me;
  }
  list.tail = me;
}

void TransactionTable::unlink(Slot& s, Role role) {
  if (!listed(s.tx, role)) return;
  List& list = lists_[role_peer(s.tx, role)];
  const Link prev = s.prev[role];
  const Link next = s.next[role];
  if (prev == kNil) {
    list.head = next;
  } else {
    slot_at(prev >> 2).next[prev & 3] = next;
  }
  if (next == kNil) {
    list.tail = prev;
  } else {
    slot_at(next >> 2).prev[next & 3] = prev;
  }
}

}  // namespace tc::core
