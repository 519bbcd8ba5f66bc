#include "src/core/transaction.h"

#include <bit>

namespace tc::core {

namespace {
constexpr std::size_t kInitialIndex = 64;  // entries; a power of two
}  // namespace

Transaction& TransactionTable::create(ChainId chain, PeerId donor,
                                      PeerId requestor, PeerId payee,
                                      PieceIndex piece, TxId prev,
                                      util::SimTime now) {
  const TxId id = next_id_++;
  Slot& s = alloc_slot();
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
  // Keep the index at most half full.
  if (2 * (live_ + 1) > index_.size()) grow_index();
  insert_entry({static_cast<std::uint32_t>(id), s.index});
  ++live_;
  link(s, kDonor);
  link(s, kRequestor);
  if (payee != net::kNoPeer && payee != donor && payee != requestor)
    link(s, kPayee);
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
  return tx;
}

std::size_t TransactionTable::position(TxId id) const {
  if (live_ == 0) return index_.size();  // also: no index allocated yet
  const auto tag = static_cast<std::uint32_t>(id);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(tag);; i = (i + 1) & mask) {
    const Entry& e = index_[i];
    if (e.slot == kNil) return index_.size();
    if (e.tag == tag && slot_at(e.slot).tx.id == id) return i;
  }
}

void TransactionTable::erase(TxId id) {
  std::size_t i = position(id);
  if (i == index_.size()) return;
  Slot& s = slot_at(index_[i].slot);
  const Transaction& tx = s.tx;
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
  for (Role role : {kDonor, kRequestor, kPayee}) unlink(s, role);
  free_.push_back(s.index);
  --live_;
  // Backward-shift deletion: pull each later entry of the probe run into
  // the hole when the hole lies between its home and its position.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t j = (i + 1) & mask; index_[j].slot != kNil;
       j = (j + 1) & mask) {
    const std::size_t h = home(index_[j].tag);
    if (((j - h) & mask) >= ((j - i) & mask)) {
      index_[i] = index_[j];
      i = j;
    }
  }
  index_[i] = Entry{};
}

void TransactionTable::set_payee(TxId id, PeerId new_payee) {
  Slot* s = find(id);
  if (s == nullptr || s->tx.payee == new_payee) return;
  unlink(*s, kPayee);
  s->tx.payee = new_payee;
  if (new_payee != net::kNoPeer && new_payee != s->tx.donor &&
      new_payee != s->tx.requestor)
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

void TransactionTable::insert_entry(Entry e) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(e.tag);
  while (index_[i].slot != kNil) i = (i + 1) & mask;
  index_[i] = e;
}

void TransactionTable::grow_index() {
  const std::size_t size = index_.empty() ? kInitialIndex : 2 * index_.size();
  std::vector<Entry> old(size);
  old.swap(index_);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(size));
  for (const Entry& e : old) {
    if (e.slot != kNil) insert_entry(e);
  }
}

void TransactionTable::link(Slot& s, Role role) {
  const PeerId p = role_peer(s.tx, role);
  if (p == net::kNoPeer) return;
  if (p >= lists_.size()) lists_.resize(static_cast<std::size_t>(p) + 1);
  List& list = lists_[p];
  const Link me = s.index << 2 | role;
  s.listed |= 1u << role;
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
  if ((s.listed & (1u << role)) == 0) return;
  s.listed &= ~(1u << role);
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
