#include "src/core/node.h"

#include <limits>
#include <ranges>
#include <stdexcept>
#include <variant>

#include "src/core/transaction.h"

namespace tc::core {

using obs::EventKind;

SwarmFileMeta SwarmFileMeta::make(std::uint32_t piece_count,
                                  std::uint32_t piece_bytes,
                                  std::uint64_t seed) {
  SwarmFileMeta m;
  m.piece_count = piece_count;
  m.piece_bytes = piece_bytes;
  m.pieces.reserve(piece_count);
  m.hashes.reserve(piece_count);
  util::Rng rng(seed);
  for (std::uint32_t i = 0; i < piece_count; ++i) {
    util::Bytes piece(piece_bytes);
    for (std::size_t off = 0; off < piece.size(); off += 8) {
      const std::uint64_t word = rng.next_u64();
      for (std::size_t b = 0; b < 8 && off + b < piece.size(); ++b) {
        piece[off + b] = static_cast<std::uint8_t>(word >> (8 * b));
      }
    }
    m.hashes.push_back(crypto::sha256(piece));
    m.pieces.push_back(std::move(piece));
  }
  return m;
}

Node::Node(const SwarmFileMeta& meta, const Options& opts, Effects& out)
    : meta_(meta),
      opts_(opts),
      out_(out),
      have_(meta.piece_count),
      store_(opts.seeder ? 0 : meta.piece_count),
      pending_(kPendingCap),
      rng_(opts.seed),
      keys_(opts.seed ^ 0x517cc1b727220a95ull) {
  if (opts_.seeder) {
    for (std::uint32_t p = 0; p < meta_.piece_count; ++p) have_.set(p);
  }
}

std::size_t Node::payload_bytes() const {
  std::size_t n = 0;
  for (const auto& [tx, d] : donor_) n += d.session.offer().ciphertext.size();
  for (const auto& [tx, b] : banked_) n += b.buffer.size();
  return n;
}

std::uint64_t Node::next_id(std::uint32_t& counter) const {
  return (std::uint64_t{opts_.id} << 32) | ++counter;
}

void Node::emit_donor(EventKind kind, const net::EncryptedPieceMsg& offer,
                      std::uint8_t aux) {
  out_.emit({.kind = kind,
                .aux = aux,
                .piece = offer.piece,
                .a = opts_.id,
                .b = offer.requestor,
                .ref = offer.tx,
                .chain = offer.chain});
}

void Node::break_chain(std::uint64_t chain, obs::ChainBreakCause cause) {
  out_.emit({.kind = EventKind::kChainBreak,
                .aux = static_cast<std::uint8_t>(cause),
                .chain = chain});
}

Node::Neighbor* Node::neighbor(net::PeerId peer) {
  const auto it = neighbors_.find(peer);
  return it == neighbors_.end() ? nullptr : &it->second;
}

const Node::Neighbor* Node::neighbor(net::PeerId peer) const {
  const auto it = neighbors_.find(peer);
  return it == neighbors_.end() ? nullptr : &it->second;
}

// --- Inputs ---------------------------------------------------------------

void Node::on_neighbor_up(net::PeerId peer) {
  neighbors_.try_emplace(peer, Neighbor{bt::Bitfield(meta_.piece_count),
                                        bt::Bitfield(meta_.piece_count)});
  ++progress_;
  out_.send(peer, net::Message{have_.to_message()});
}

void Node::on_neighbor_down(net::PeerId peer) { neighbors_.erase(peer); }

void Node::on_message(net::PeerId from, net::Message m) {
  if (neighbor(from) == nullptr) return;
  std::visit([this, from](auto& v) { handle(from, v); }, m);
}

void Node::advance() {
  out_.count("rt.advances");
  // §II-B4: a finished or departed payee never qualifies again, so each
  // transaction is re-selected once; reselect_payee erases at most `cur`.
  for (auto it = donor_.begin(); it != donor_.end();) {
    const auto cur = it++;
    const net::EncryptedPieceMsg& o = cur->second.session.offer();
    const Neighbor* p = neighbor(o.payee);  // null too when we are the payee
    const bool gone = p == nullptr && o.payee != opts_.id;
    if (!gone && !(p != nullptr ? p->have : have_).complete()) continue;
    out_.count("rt.payee_reselects");
    const obs::RetryCause cause =
        gone ? obs::RetryCause::kPayeeGone : obs::RetryCause::kPayeeFinished;
    emit_donor(EventKind::kTxRetry, o, static_cast<std::uint8_t>(cause));
    reselect_payee(cur);
  }
  // A debt whose last payment attempt failed waits until progress_, its
  // payee or the payee's have count moves.
  std::erase_if(debts_, [this](net::TxId tx) {
    BankedTx& b = banked_.at(tx);
    const Neighbor* p = neighbor(b.payee);
    const PayStamp stamp{progress_, b.payee, p ? p->have.count() : 0};
    if (!b.reciprocated && b.tried != stamp) {
      b.tried = stamp;
      try_reciprocate(tx, b);
    }
    return b.reciprocated;  // paid, or waived by the donor
  });
  maybe_start_chains();
}

void Node::on_watchdog(net::TxId tx) {
  const auto it = donor_.find(tx);
  if (it == donor_.end()) return;
  DonorTx& d = it->second;
  const net::EncryptedPieceMsg& o = d.session.offer();

  if (d.retries >= kTxMaxRetries) {
    // Final timeout: break the chain, then settle the key gratis if the
    // requestor is still reachable — a banked buffer whose donor key never
    // arrives would stay encrypted forever, wedging the swarm.
    emit_donor(EventKind::kTxTimeout, o);
    settle_gratis(it, obs::ChainBreakCause::kWatchdog);
    return;
  }

  ++d.retries;
  out_.count("rt.tx_retries");
  emit_donor(EventKind::kTxRetry, o);  // aux 0: RetryCause::kWatchdog
  reselect_payee(it);
}

void Node::reselect_payee(DonorIt it) {
  DonorSession& session = it->second.session;
  const net::EncryptedPieceMsg& o = session.offer();
  const net::PeerId np = choose_payee(o.requestor, o.piece);
  if (np == net::kNoPeer) {
    settle_gratis(it, obs::ChainBreakCause::kNoPayee);
    return;
  }
  if (np != o.payee) {
    session.reassign_payee(np);
    if (neighbor(o.requestor) != nullptr) {
      out_.send(o.requestor,
                   net::Message{net::PayeeReassignMsg{o.tx, np}});
    }
  }
  out_.arm_watchdog(o.tx);
}

// --- Neighbour state ------------------------------------------------------

void Node::handle(net::PeerId from, net::BitfieldMsg& m) {
  if (m.piece_count != meta_.piece_count) return;
  Neighbor& n = *neighbor(from);
  n.have = bt::Bitfield::from_message(m);
  for (const net::PieceIndex p : n.have.to_vector()) n.claimed.set(p);
}

void Node::handle(net::PeerId from, net::HaveMsg& m) {
  if (m.piece >= meta_.piece_count) return;
  Neighbor& n = *neighbor(from);
  n.have.set(m.piece);
  n.claimed.set(m.piece);
}

// --- Requestor side -------------------------------------------------------

template <typename Offer>
bool Node::accept_offer(net::PeerId from, const Offer& m) {
  if (m.donor != from || m.piece >= meta_.piece_count) return false;
  out_.emit({.kind = EventKind::kPieceDelivered,
                .piece = m.piece,
                .a = m.donor,
                .b = opts_.id,
                .ref = m.tx,
                .chain = m.chain});
  // This upload may simultaneously be the reciprocation paying for an
  // earlier transaction we are payee of: receipt it to that donor.
  if (m.prev_donor == net::kNoPeer) return true;
  net::ReceiptMsg r;
  r.reciprocated_tx = m.prev_tx;
  r.payee = opts_.id;
  r.requestor = m.donor;
  r.piece = m.piece;
  r.mac = net::receipt_mac(derive_mac_key(m.prev_donor, opts_.id), m.prev_tx,
                           opts_.id, m.donor, m.piece);
  out_.count("rt.receipts");
  if (m.prev_donor == opts_.id) {
    handle(opts_.id, r);  // direct reciprocity: the donor designated itself
  } else if (neighbor(m.prev_donor) != nullptr) {
    out_.send(m.prev_donor, net::Message{r});
  }
  // Donor unreachable: its watchdog reassigns or settles gratis.
  return true;
}

void Node::handle(net::PeerId from, net::EncryptedPieceMsg& m) {
  if (!accept_offer(from, m)) return;
  const auto [it, inserted] = banked_.try_emplace(m.tx);
  if (!inserted) return;
  BankedTx& b = it->second;
  b.chain = m.chain;
  b.donor = m.donor;
  b.payee = m.payee;
  b.piece = m.piece;
  b.buffer = std::move(m.ciphertext);
  debts_.push_back(m.tx);
}

void Node::handle(net::PeerId from, net::PlainPieceMsg& m) {
  if (!accept_offer(from, m)) return;
  if (crypto::sha256(m.data) == meta_.hashes[m.piece]) {
    grant_piece(m.piece, std::move(m.data), m.donor);
  }
  // Terminal transactions are closed by the receiver, after the delivery
  // event: closing at send would retire the open upload before the checker
  // matched the delivery that pays for the previous transaction.
  break_chain(m.chain, obs::ChainBreakCause::kCompleted);
  out_.emit({.kind = EventKind::kTxClose,
                .aux = static_cast<std::uint8_t>(TxState::kTerminal),
                .piece = m.piece,
                .a = m.donor,
                .b = opts_.id,
                .ref = m.tx,
                .chain = m.chain});
}

void Node::handle(net::PeerId from, net::KeyReleaseMsg& m) {
  const auto it = banked_.find(m.tx);
  if (it == banked_.end() || it->second.donor != from || it->second.done) {
    return;
  }
  BankedTx& b = it->second;
  for (const util::Bytes& k : b.applied_keys) {
    if (k == m.key) return;
  }
  crypto::SymmetricKey key;
  try {
    key = crypto::SymmetricKey::deserialize(m.key);
  } catch (const std::invalid_argument&) {
    return;
  }
  b.applied_keys.push_back(m.key);

  // Cascade to every forward of this buffer: the forwarded ciphertext was
  // snapshotted before this key arrived, so its holder needs it too.
  for (const auto& [f, requestor] : b.forwarded_as) {
    if (neighbor(requestor) == nullptr) continue;
    out_.send(requestor, net::Message{net::KeyReleaseMsg{f, b.piece, m.key}});
    out_.count("rt.keys_cascaded");
  }

  if (have_.get(b.piece)) {
    // The piece came by another path, so this buffer can only feed the
    // cascade, which needs the keys but not the plaintext: skip the peel
    // and the hash, and free the buffer. Not done: later keys still
    // cascade.
    b.buffer = util::Bytes{};
    out_.count("rt.keys_held");
    return;
  }
  // piece_xor layers commute: peel this key off regardless of arrival order.
  b.buffer = crypto::piece_xor(key, std::move(b.buffer));
  if (crypto::sha256(b.buffer) == meta_.hashes[b.piece]) {
    b.done = true;
    grant_piece(b.piece, std::move(b.buffer), b.donor);
  }
}

void Node::grant_piece(net::PieceIndex piece, util::Bytes data,
                       net::PeerId source) {
  if (have_.get(piece)) return;
  store_[piece] = std::move(data);
  have_.set(piece);
  ++progress_;
  out_.emit({.kind = EventKind::kPieceGranted,
                .piece = piece,
                .a = opts_.id,
                .b = source});
  for (const auto& [peer, n] : neighbors_) {
    out_.send(peer, net::Message{net::HaveMsg{piece}});
  }
  if (have_.complete()) {
    out_.emit({.kind = EventKind::kPeerFinish, .a = opts_.id});
  }
}

void Node::handle(net::PeerId from, net::PayeeReassignMsg& m) {
  const auto it = banked_.find(m.tx);
  if (it == banked_.end() || it->second.donor != from) return;
  BankedTx& b = it->second;
  if (m.new_payee == net::kNoPeer) {
    b.reciprocated = true;  // gratis settlement: obligation waived
    return;
  }
  b.payee = m.new_payee;
}

// --- Donor side -----------------------------------------------------------

void Node::handle(net::PeerId from, net::ReceiptMsg& m) {
  (void)from;  // any payee may deliver it; the MAC authenticates it
  const auto it = donor_.find(m.reciprocated_tx);
  if (it == donor_.end() || !it->second.session.accept_receipt(m)) return;
  release_key(it, /*waive=*/false);
}

void Node::settle_gratis(DonorIt it, obs::ChainBreakCause cause) {
  const net::EncryptedPieceMsg& o = it->second.session.offer();
  // Break first: the checker sanctions a gratis key release only once the
  // chain is in teardown.
  break_chain(o.chain, cause);
  out_.count(neighbor(o.requestor) != nullptr ? "rt.tx_gratis"
                                                 : "rt.tx_dead");
  release_key(it, /*waive=*/true);
}

void Node::release_key(DonorIt it, bool waive) {
  const net::EncryptedPieceMsg& o = it->second.session.offer();
  out_.cancel_watchdog(o.tx);
  TxState end = TxState::kDead;
  if (neighbor(o.requestor) != nullptr) {
    emit_donor(EventKind::kKeyDelivered, o);
    out_.send(o.requestor, net::Message{it->second.session.key_release()});
    if (waive) {
      // kNoPeer payee means "settled".
      out_.send(o.requestor,
                   net::Message{net::PayeeReassignMsg{o.tx, net::kNoPeer}});
    }
    end = TxState::kCompleted;
  } else {
    emit_donor(EventKind::kKeyLost, o);
  }
  pending_.resolve(o.requestor);
  ++progress_;
  emit_donor(EventKind::kTxClose, o, static_cast<std::uint8_t>(end));
  donor_.erase(it);
}

// --- Reciprocation & chain growth ----------------------------------------

void Node::try_reciprocate(net::TxId banked_tx, BankedTx& b) {
  const Neighbor* p = neighbor(b.payee);
  if (p == nullptr) return;  // retried once it is up; its donor may reassign

  // Preferred: a completed piece the payee has not claimed.
  const net::PieceIndex give = lrf_unclaimed(p->claimed);
  if (give != net::kNoPiece) {
    b.reciprocated = start_tx(b.payee, give, b.chain, b.donor, banked_tx, 0);
    return;
  }
  // Newcomer bootstrap (§II-D1): nothing completed to offer — forward this
  // very ciphertext, re-encrypted under a fresh key.
  // Never a held piece: its buffer may have been freed (KeyRelease).
  if (!b.done && !have_.get(b.piece) && !p->claimed.get(b.piece) &&
      start_tx(b.payee, b.piece, b.chain, b.donor, banked_tx, banked_tx)) {
    b.reciprocated = true;
    out_.count("rt.forwards");
  }
}

net::PeerId Node::choose_payee(net::PeerId requestor,
                               net::PieceIndex piece) {
  const Neighbor* rn = neighbor(requestor);
  // Whether the requestor holds a piece we need; never so once complete.
  const bool direct = rn != nullptr && have_.interested_in(rn->have);
  // Only a decrypted piece of the requestor's counts (its broadcast have
  // set): it cannot re-serve a banked ciphertext.
  const bt::Bitfield* requestor_have = rn != nullptr ? &rn->have : nullptr;
  return select_payee(
      opts_.id, requestor, direct, std::views::keys(neighbors_),
      [&](net::PeerId cand) {
        return pending_.eligible(cand) &&
               payee_needs(neighbors_.at(cand).claimed, piece, requestor_have);
      },
      rng_);
}

bool Node::start_tx(net::PeerId requestor, net::PieceIndex piece,
                    std::uint64_t chain, net::PeerId prev_donor,
                    net::TxId prev_tx, net::TxId forward_of) {
  Neighbor* rn = neighbor(requestor);
  if (rn == nullptr) return false;
  // Chain heads are selections and must respect the flow-control cap k.
  if (chain == 0 && !pending_.eligible(requestor)) return false;

  const net::PeerId payee = choose_payee(requestor, piece);
  // A terminal (unencrypted) gift — Fig 1c — is only possible from
  // plaintext, and only toward a neighbour with nothing outstanding.
  if (payee == net::kNoPeer &&
      (forward_of != 0 || pending_.pending(requestor) != 0)) {
    return false;
  }

  // §II-D1: toward an empty-handed requestor with an indirect payee, pick a
  // piece the payee also lacks, so the requestor can reciprocate by
  // forwarding it.
  net::PieceIndex give = piece;
  if (payee != net::kNoPeer && forward_of == 0 && payee != opts_.id &&
      rn->have.empty()) {
    if (const Neighbor* pn = neighbor(payee)) {
      if (const auto bp =
              select_bootstrap_piece(have_, rn->claimed, pn->claimed, rng_)) {
        give = *bp;
      }
    }
  }

  const net::TxId tx = next_id(tx_count_);
  if (chain == 0) {
    chain = next_id(chain_count_);
    out_.emit({.kind = EventKind::kChainStart,
                  .aux = seeds() ? std::uint8_t{1} : std::uint8_t{0},
                  .a = opts_.id,
                  .chain = chain});
  }
  out_.emit({.kind = EventKind::kTxOpen,
                .piece = give,
                .a = opts_.id,
                .b = requestor,
                .c = payee,
                .ref = tx,
                .chain = chain});
  out_.emit({.kind = EventKind::kChainExtend, .ref = tx, .chain = chain});
  out_.emit({.kind = EventKind::kPieceSent,
                .piece = give,
                .a = opts_.id,
                .b = requestor,
                .ref = tx,
                .chain = chain});
  rn->claimed.set(give);

  if (payee == net::kNoPeer) {
    out_.send(requestor,
                 net::Message{net::PlainPieceMsg{tx, chain, opts_.id, give,
                                                 prev_donor, prev_tx,
                                                 this->piece(give)}});
    out_.count("rt.tx_terminal");
    return true;
  }

  pending_.add(requestor);
  BankedTx* fwd = forward_of != 0 ? &banked_.at(forward_of) : nullptr;
  DonorSession session(tx, chain, opts_.id, requestor, payee, give,
                       prev_donor, prev_tx,
                       fwd != nullptr ? fwd->buffer : this->piece(give), keys_);
  out_.send(requestor, net::Message{session.take_offer()});
  if (fwd != nullptr) fwd->forwarded_as.emplace_back(tx, requestor);
  donor_.emplace(tx, DonorTx{std::move(session)});
  out_.arm_watchdog(tx);
  out_.count("rt.tx_opened");
  return true;
}

void Node::maybe_start_chains() {
  const std::size_t budget = chain_budget(seeds(), have_.count(),
                                          debts_.size(), opts_.seeder_slots);
  for (std::size_t active = donor_.size(); active < budget; ++active) {
    const net::PeerId r = pick_peer(
        std::views::keys(neighbors_),
        [this](net::PeerId cand) {
          return pending_.eligible(cand) &&
                 chain_head_needs(neighbors_.at(cand).claimed, have_);
        },
        rng_);
    if (r == net::kNoPeer) return;
    const net::PieceIndex p = lrf_unclaimed(neighbors_.at(r).claimed);
    if (p == net::kNoPiece || !start_tx(r, p, 0, net::kNoPeer, 0, 0)) return;
  }
}

net::PieceIndex Node::lrf_unclaimed(const bt::Bitfield& claimed) {
  // Rarest-first with a *random* tie-break: concurrent chains picking the
  // lowest index would all carry the same piece and collide at the payees.
  UniformPick<net::PieceIndex> pick(net::kNoPiece, rng_);
  std::size_t best_rarity = std::numeric_limits<std::size_t>::max();
  have_.for_each([&](net::PieceIndex p) {
    if (claimed.get(p)) return;
    std::size_t rarity = 0;
    for (const auto& [peer, n] : neighbors_) {
      if (n.have.get(p)) ++rarity;
    }
    if (rarity > best_rarity) return;
    if (rarity < best_rarity) {
      best_rarity = rarity;
      pick.reset();
    }
    pick.offer(p);
  });
  return pick.chosen();
}

}  // namespace tc::core
