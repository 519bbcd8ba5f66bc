#include "src/rt/peer_node.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <variant>

#include "src/core/transaction.h"
#include "src/crypto/sha256.h"

namespace tc::rt {

using obs::EventKind;

PeerNode::PeerNode(SwarmContext& ctx, const Options& opts)
    : ctx_(ctx),
      reactor_(ctx.reactor),
      opts_(opts),
      listener_(0),
      have_(ctx.meta.piece_count),
      store_(ctx.meta.piece_count),
      pending_(opts.pending_cap),
      rng_(opts.seed),
      keys_(opts.seed ^ 0x517cc1b727220a95ull) {
  if (opts_.seeder) {
    store_ = ctx_.meta.pieces;
    for (std::uint32_t p = 0; p < ctx_.meta.piece_count; ++p) have_.set(p);
  }
}

PeerNode::~PeerNode() {
  reactor_.cancel(announce_timer_);
  reactor_.cancel(tick_timer_);
  for (auto& [tx, d] : donor_) {
    (void)tx;
    reactor_.cancel(d.watchdog);
  }
  reactor_.remove(listener_.fd());
}

void PeerNode::start() {
  ctx_.emit({.kind = EventKind::kPeerJoin,
             .aux = opts_.seeder ? std::uint8_t{obs::kPeerFlagSeeder}
                                 : std::uint8_t{0},
             .a = opts_.id});
  reactor_.add(listener_.fd(), this);
  announce_tick();
  tick();
}

std::size_t PeerNode::open_donor_txs() const {
  std::size_t n = 0;
  for (const auto& [tx, d] : donor_) {
    (void)tx;
    if (!d.closed) ++n;
  }
  return n;
}

void PeerNode::count(const char* name) {
  if (ctx_.trace != nullptr) ctx_.trace->registry().counter(name).inc();
}

// --- Connection plumbing --------------------------------------------------

void PeerNode::on_readable() {
  while (const auto fd = listener_.accept()) {
    auto conn = std::make_unique<FrameConn>(reactor_, *fd, this);
    FrameConn* raw = conn.get();
    conns_[raw] = std::move(conn);
    count("rt.conns_accepted");
  }
}

void PeerNode::dial_tracker() {
  auto conn =
      FrameConn::dial(reactor_, "127.0.0.1", opts_.tracker_port, this);
  tracker_ = conn.get();
  conns_[tracker_] = std::move(conn);
}

void PeerNode::maybe_dial(net::PeerId peer, std::uint16_t port) {
  // Dial discipline: the higher id dials, so each pair keeps exactly one
  // connection (no simultaneous-open dedup needed).
  if (peer >= opts_.id) return;
  if (neighbors_.count(peer) != 0 || dialing_.count(peer) != 0) return;
  auto conn = FrameConn::dial(reactor_, "127.0.0.1", port, this);
  conn->peer = peer;
  conns_[conn.get()] = std::move(conn);
  dialing_.insert(peer);
  count("rt.dials");
}

void PeerNode::on_conn_open(FrameConn& c) {
  if (&c == tracker_) return;  // announce already queued
  c.send(net::Message{net::HandshakeMsg{opts_.id, ctx_.swarm_name}});
  c.send(net::Message{have_.to_message()});
}

void PeerNode::on_conn_closed(FrameConn& c) {
  if (&c == tracker_) tracker_ = nullptr;
  if (c.peer != net::kNoPeer) {
    dialing_.erase(c.peer);
    const auto it = neighbors_.find(c.peer);
    if (it != neighbors_.end() && it->second.conn == &c) neighbors_.erase(it);
  }
  reactor_.post([this, conn = &c] { conns_.erase(conn); });
}

PeerNode::Neighbor* PeerNode::ready_neighbor(net::PeerId peer) {
  const auto it = neighbors_.find(peer);
  if (it == neighbors_.end() || !it->second.ready) return nullptr;
  if (it->second.conn == nullptr || !it->second.conn->is_open()) return nullptr;
  return &it->second;
}

const PeerNode::Neighbor* PeerNode::ready_neighbor(net::PeerId peer) const {
  return const_cast<PeerNode*>(this)->ready_neighbor(peer);
}

// --- Timers ---------------------------------------------------------------

void PeerNode::announce_tick() {
  if (tracker_ == nullptr) dial_tracker();
  tracker_->send(net::Message{net::AnnounceMsg{
      opts_.id, ctx_.swarm_name, listener_.port(), net::kAnnounceRenew}});
  announce_timer_ =
      reactor_.schedule(opts_.announce_interval, [this] { announce_tick(); });
}

void PeerNode::tick() {
  for (auto& [tx, b] : banked_) {
    if (!b.reciprocated) try_reciprocate(tx, b);
  }
  maybe_start_chains();
  for (const auto& [peer, port] : endpoints_) maybe_dial(peer, port);
  tick_timer_ = reactor_.schedule(opts_.tick_interval, [this] { tick(); });
}

void PeerNode::arm_watchdog(DonorTx& d, net::TxId tx) {
  d.watchdog = reactor_.schedule(opts_.watchdog_seconds,
                                 [this, tx] { on_watchdog(tx); });
}

void PeerNode::on_watchdog(net::TxId tx) {
  const auto it = donor_.find(tx);
  if (it == donor_.end() || it->second.closed) return;
  DonorTx& d = it->second;

  if (d.retries >= opts_.max_retries) {
    // Final timeout: break the chain, then settle the key gratis if the
    // requestor is still reachable — a banked buffer whose donor key never
    // arrives would stay encrypted forever, wedging the swarm.
    ctx_.emit({.kind = EventKind::kTxTimeout,
               .piece = d.piece,
               .a = opts_.id,
               .b = d.requestor,
               .ref = tx,
               .chain = d.chain});
    settle_gratis(tx, d, obs::ChainBreakCause::kWatchdog);
    return;
  }

  ++d.retries;
  count("rt.tx_retries");
  ctx_.emit({.kind = EventKind::kTxRetry,
             .piece = d.piece,
             .a = opts_.id,
             .b = d.requestor,
             .ref = tx,
             .chain = d.chain});

  // §II-B4: re-run payee selection; the designated payee may have finished
  // or hit the pending cap.
  const core::PayeeQuery q = payee_query(d.requestor, d.piece);
  const net::PeerId np = core::select_payee(q, rng_);
  if (np == net::kNoPeer) {
    settle_gratis(tx, d, obs::ChainBreakCause::kNoPayee);
    return;
  }
  if (np != d.session->payee()) {
    d.session->reassign_payee(np);
    if (np == opts_.id) {
      duties_.push_back({tx, d.chain, opts_.id, d.requestor, d.piece});
    } else if (Neighbor* pn = ready_neighbor(np)) {
      pn->conn->send(net::Message{
          net::PayeeNotifyMsg{tx, d.chain, opts_.id, d.requestor, d.piece}});
    }
    if (Neighbor* rn = ready_neighbor(d.requestor)) {
      rn->conn->send(net::Message{net::PayeeReassignMsg{tx, np}});
    }
  }
  arm_watchdog(d, tx);
}

// --- Message dispatch -----------------------------------------------------

void PeerNode::on_message(FrameConn& c, net::Message m) {
  if (const auto* v = std::get_if<net::HandshakeMsg>(&m)) {
    handle_handshake(c, *v);
  } else if (const auto* v2 = std::get_if<net::PeerListMsg>(&m)) {
    handle_peer_list(*v2);
  } else if (c.peer == net::kNoPeer) {
    // Everything else requires an identified neighbor.
  } else if (const auto* v3 = std::get_if<net::BitfieldMsg>(&m)) {
    handle_bitfield(c, *v3);
  } else if (const auto* v4 = std::get_if<net::HaveMsg>(&m)) {
    handle_have(c, *v4);
  } else if (const auto* v5 = std::get_if<net::EncryptedPieceMsg>(&m)) {
    handle_encrypted(*v5);
  } else if (const auto* v6 = std::get_if<net::PlainPieceMsg>(&m)) {
    handle_plain(*v6);
  } else if (const auto* v7 = std::get_if<net::ReceiptMsg>(&m)) {
    handle_receipt(*v7);
  } else if (const auto* v8 = std::get_if<net::KeyReleaseMsg>(&m)) {
    handle_key_release(*v8);
  } else if (const auto* v9 = std::get_if<net::PayeeNotifyMsg>(&m)) {
    handle_payee_notify(*v9);
  } else if (const auto* v10 = std::get_if<net::PayeeReassignMsg>(&m)) {
    handle_payee_reassign(*v10);
  }
}

void PeerNode::handle_handshake(FrameConn& c, const net::HandshakeMsg& m) {
  if (m.peer == net::kNoPeer || m.swarm != ctx_.swarm_name) return;
  c.peer = m.peer;
  dialing_.erase(m.peer);
  Neighbor& n = neighbors_[m.peer];
  n.conn = &c;
  n.ready = true;
  if (n.have.size() == 0) {
    n.have = bt::Bitfield(ctx_.meta.piece_count);
    n.claimed = bt::Bitfield(ctx_.meta.piece_count);
  }
  if (!c.dialed()) {
    c.send(net::Message{net::HandshakeMsg{opts_.id, ctx_.swarm_name}});
    c.send(net::Message{have_.to_message()});
  }
}

void PeerNode::handle_bitfield(FrameConn& c, const net::BitfieldMsg& m) {
  const auto it = neighbors_.find(c.peer);
  if (it == neighbors_.end() || m.piece_count != ctx_.meta.piece_count) return;
  it->second.have = bt::Bitfield::from_message(m);
  for (const net::PieceIndex p : it->second.have.to_vector()) {
    it->second.claimed.set(p);
  }
}

void PeerNode::handle_have(FrameConn& c, const net::HaveMsg& m) {
  const auto it = neighbors_.find(c.peer);
  if (it == neighbors_.end() || m.piece >= ctx_.meta.piece_count) return;
  it->second.have.set(m.piece);
  it->second.claimed.set(m.piece);
}

void PeerNode::handle_peer_list(const net::PeerListMsg& m) {
  for (const net::PeerEndpoint& ep : m.peers) {
    if (ep.peer == opts_.id || ep.peer == net::kNoPeer) continue;
    endpoints_[ep.peer] = ep.port;
    maybe_dial(ep.peer, ep.port);
  }
}

// --- Requestor side -------------------------------------------------------

void PeerNode::handle_encrypted(const net::EncryptedPieceMsg& m) {
  if (m.piece >= ctx_.meta.piece_count) return;
  ctx_.emit({.kind = EventKind::kPieceDelivered,
             .piece = m.piece,
             .a = m.donor,
             .b = opts_.id,
             .ref = m.tx,
             .chain = m.chain});
  // This upload may simultaneously be the reciprocation paying for an
  // earlier transaction we are payee of.
  if (m.prev_donor != net::kNoPeer) {
    match_duty_or_stash(m.donor, m.piece, m.prev_donor, m.prev_piece);
  }
  if (banked_.count(m.tx) != 0) return;
  BankedTx b;
  b.chain = m.chain;
  b.donor = m.donor;
  b.payee = m.payee;
  b.piece = m.piece;
  b.buffer = m.ciphertext;
  auto [it, inserted] = banked_.emplace(m.tx, std::move(b));
  if (inserted) try_reciprocate(m.tx, it->second);
}

void PeerNode::handle_plain(const net::PlainPieceMsg& m) {
  if (m.piece >= ctx_.meta.piece_count) return;
  ctx_.emit({.kind = EventKind::kPieceDelivered,
             .piece = m.piece,
             .a = m.donor,
             .b = opts_.id,
             .ref = m.tx,
             .chain = m.chain});
  if (m.prev_donor != net::kNoPeer) {
    match_duty_or_stash(m.donor, m.piece, m.prev_donor, m.prev_piece);
  }
  if (crypto::sha256(m.data) == ctx_.meta.hashes[m.piece]) {
    grant_piece(m.piece, m.data, m.donor);
  }
  // Terminal transactions are closed by the receiver, after the delivery
  // event: closing at send would retire the open upload before the checker
  // matched the delivery that pays for the previous transaction.
  ctx_.break_chain(m.chain, obs::ChainBreakCause::kCompleted);
  ctx_.emit({.kind = EventKind::kTxClose,
             .aux = static_cast<std::uint8_t>(core::TxState::kTerminal),
             .piece = m.piece,
             .a = m.donor,
             .b = opts_.id,
             .ref = m.tx,
             .chain = m.chain});
}

void PeerNode::handle_key_release(const net::KeyReleaseMsg& m) {
  const auto it = banked_.find(m.tx);
  if (it == banked_.end() || it->second.done) return;
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
  // piece_xor layers commute: peel this key off regardless of arrival order.
  b.buffer = crypto::piece_xor(key, b.buffer);
  b.applied_keys.push_back(m.key);

  // Cascade to every forward of this buffer: the forwarded ciphertext was
  // snapshotted before this key arrived, so its holder needs it too.
  for (const net::TxId f : b.forwarded_as) {
    const auto dt = donor_.find(f);
    if (dt == donor_.end()) continue;
    if (Neighbor* n = ready_neighbor(dt->second.requestor)) {
      n->conn->send(net::Message{net::KeyReleaseMsg{f, b.piece, m.key}});
      count("rt.keys_cascaded");
    }
  }

  if (crypto::sha256(b.buffer) == ctx_.meta.hashes[b.piece]) {
    b.done = true;
    grant_piece(b.piece, b.buffer, b.donor);
  }
}

void PeerNode::grant_piece(net::PieceIndex piece, const util::Bytes& data,
                           net::PeerId source) {
  if (have_.get(piece)) return;
  store_[piece] = data;
  have_.set(piece);
  ctx_.emit({.kind = EventKind::kPieceGranted,
             .piece = piece,
             .a = opts_.id,
             .b = source});
  for (auto& [peer, n] : neighbors_) {
    (void)peer;
    if (n.ready && n.conn != nullptr && n.conn->is_open()) {
      n.conn->send(net::Message{net::HaveMsg{piece}});
    }
  }
  if (have_.complete() && finish_t_ < 0) {
    finish_t_ = reactor_.now();
    ctx_.emit({.kind = EventKind::kPeerFinish, .a = opts_.id});
    if (opts_.on_complete) opts_.on_complete(opts_.id);
  }
}

// --- Payee side -----------------------------------------------------------

void PeerNode::handle_payee_notify(const net::PayeeNotifyMsg& m) {
  const PayeeDuty duty{m.tx, m.chain, m.donor, m.requestor, m.piece};
  // The reciprocation may have raced ahead of this notice (it travels on a
  // different TCP connection).
  for (auto it = stash_.begin(); it != stash_.end(); ++it) {
    if (it->uploader == duty.requestor && it->prev_donor == duty.donor &&
        it->prev_piece == duty.piece) {
      const StashedRecip s = *it;
      stash_.erase(it);
      send_receipt(duty, s.uploader, s.piece);
      return;
    }
  }
  duties_.push_back(duty);
}

void PeerNode::match_duty_or_stash(net::PeerId uploader, net::PieceIndex piece,
                                   net::PeerId prev_donor,
                                   net::PieceIndex prev_piece) {
  for (auto it = duties_.begin(); it != duties_.end(); ++it) {
    if (it->requestor == uploader && it->donor == prev_donor &&
        it->piece == prev_piece) {
      const PayeeDuty duty = *it;
      duties_.erase(it);
      send_receipt(duty, uploader, piece);
      return;
    }
  }
  stash_.push_back({uploader, prev_donor, prev_piece, piece});
}

void PeerNode::send_receipt(const PayeeDuty& duty, net::PeerId uploader,
                            net::PieceIndex piece_received) {
  net::ReceiptMsg r;
  r.reciprocated_tx = duty.tx;
  r.payee = opts_.id;
  r.requestor = uploader;
  r.piece = piece_received;
  r.mac = net::receipt_mac(core::derive_mac_key(duty.donor, opts_.id),
                           duty.tx, opts_.id, uploader, piece_received);
  count("rt.receipts");
  if (duty.donor == opts_.id) {
    handle_receipt(r);  // direct reciprocity: donor designated itself
    return;
  }
  if (Neighbor* n = ready_neighbor(duty.donor)) {
    n->conn->send(net::Message{r});
  }
  // Donor unreachable: its watchdog reassigns or settles gratis.
}

// --- Donor side -----------------------------------------------------------

void PeerNode::handle_receipt(const net::ReceiptMsg& m) {
  const auto it = donor_.find(m.reciprocated_tx);
  if (it == donor_.end() || it->second.closed) return;
  DonorTx& d = it->second;
  if (!d.session->accept_receipt(m)) return;
  reactor_.cancel(d.watchdog);
  const net::TxId tx = m.reciprocated_tx;
  if (Neighbor* rn = ready_neighbor(d.requestor)) {
    ctx_.emit({.kind = EventKind::kKeyDelivered,
               .piece = d.piece,
               .a = opts_.id,
               .b = d.requestor,
               .ref = tx,
               .chain = d.chain});
    rn->conn->send(net::Message{d.session->key_release()});
    pending_.resolve(d.requestor);
    ctx_.emit({.kind = EventKind::kTxClose,
               .aux = static_cast<std::uint8_t>(core::TxState::kCompleted),
               .piece = d.piece,
               .a = opts_.id,
               .b = d.requestor,
               .ref = tx,
               .chain = d.chain});
  } else {
    ctx_.emit({.kind = EventKind::kKeyLost,
               .piece = d.piece,
               .a = opts_.id,
               .b = d.requestor,
               .ref = tx,
               .chain = d.chain});
    pending_.resolve(d.requestor);
    ctx_.emit({.kind = EventKind::kTxClose,
               .aux = static_cast<std::uint8_t>(core::TxState::kDead),
               .piece = d.piece,
               .a = opts_.id,
               .b = d.requestor,
               .ref = tx,
               .chain = d.chain});
  }
  d.closed = true;
}

void PeerNode::settle_gratis(net::TxId tx, DonorTx& d,
                             obs::ChainBreakCause cause) {
  reactor_.cancel(d.watchdog);
  // Break first: the checker sanctions a gratis key release only once the
  // chain is in teardown.
  ctx_.break_chain(d.chain, cause);
  if (Neighbor* rn = ready_neighbor(d.requestor)) {
    count("rt.tx_gratis");
    ctx_.emit({.kind = EventKind::kKeyDelivered,
               .piece = d.piece,
               .a = opts_.id,
               .b = d.requestor,
               .ref = tx,
               .chain = d.chain});
    rn->conn->send(net::Message{d.session->key_release()});
    // Waive the reciprocation obligation: kNoPeer payee means "settled".
    rn->conn->send(net::Message{net::PayeeReassignMsg{tx, net::kNoPeer}});
    pending_.resolve(d.requestor);
    ctx_.emit({.kind = EventKind::kTxClose,
               .aux = static_cast<std::uint8_t>(core::TxState::kCompleted),
               .piece = d.piece,
               .a = opts_.id,
               .b = d.requestor,
               .ref = tx,
               .chain = d.chain});
  } else {
    count("rt.tx_dead");
    ctx_.emit({.kind = EventKind::kKeyLost,
               .piece = d.piece,
               .a = opts_.id,
               .b = d.requestor,
               .ref = tx,
               .chain = d.chain});
    pending_.resolve(d.requestor);
    ctx_.emit({.kind = EventKind::kTxClose,
               .aux = static_cast<std::uint8_t>(core::TxState::kDead),
               .piece = d.piece,
               .a = opts_.id,
               .b = d.requestor,
               .ref = tx,
               .chain = d.chain});
  }
  d.closed = true;
}

void PeerNode::handle_payee_reassign(const net::PayeeReassignMsg& m) {
  const auto it = banked_.find(m.tx);
  if (it == banked_.end()) return;
  BankedTx& b = it->second;
  if (m.new_payee == net::kNoPeer) {
    b.reciprocated = true;  // gratis settlement: obligation waived
    return;
  }
  b.payee = m.new_payee;
  if (!b.reciprocated) try_reciprocate(m.tx, b);
}

// --- Reciprocation & chain growth ----------------------------------------

void PeerNode::try_reciprocate(net::TxId banked_tx, BankedTx& b) {
  if (b.reciprocated) return;
  if (!ctx_.chains.is_active(b.chain)) {
    // The chain settled (gratis or terminal) while we deliberated.
    b.reciprocated = true;
    return;
  }
  Neighbor* p = ready_neighbor(b.payee);
  if (p == nullptr) return;  // tick retries; the donor's watchdog reassigns

  // Preferred: a completed piece the payee has not claimed.
  const net::PieceIndex give = lrf_unclaimed(p->claimed);
  if (give != net::kNoPiece) {
    if (start_tx(b.payee, give, b.chain, b.donor, b.piece, 0)) {
      b.reciprocated = true;
    }
    return;
  }
  // Newcomer bootstrap (§II-D1): nothing completed to offer — forward this
  // very ciphertext, re-encrypted under a fresh key.
  if (!b.done && !p->claimed.get(b.piece)) {
    if (start_tx(b.payee, b.piece, b.chain, b.donor, b.piece, banked_tx)) {
      b.reciprocated = true;
      count("rt.forwards");
    }
  }
}

core::PayeeQuery PeerNode::payee_query(net::PeerId requestor,
                                       net::PieceIndex piece) const {
  core::PayeeQuery q;
  q.donor = opts_.id;
  q.requestor = requestor;
  q.donor_is_seeder = opts_.seeder || have_.complete();
  const Neighbor* rn = ready_neighbor(requestor);
  q.donor_needs_requestor =
      !q.donor_is_seeder && rn != nullptr && have_.interested_in(rn->have);
  for (const auto& [peer, n] : neighbors_) {
    if (n.ready) q.donor_neighbors.push_back(peer);
  }
  q.payee_ok = [this, requestor, piece](net::PeerId cand) {
    const Neighbor* cn = ready_neighbor(cand);
    if (cn == nullptr) return false;
    if (cn->have.complete()) return false;
    if (!pending_.eligible(cand)) return false;
    // The candidate must need something the requestor can actually serve:
    // the piece in flight (forwardable even while still encrypted), or a
    // piece the requestor holds *decrypted* (its broadcast have set —
    // banked ciphertexts don't count, the requestor can't re-serve them).
    if (!cn->claimed.get(piece)) return true;
    const Neighbor* rn2 = ready_neighbor(requestor);
    return rn2 != nullptr && cn->claimed.interested_in(rn2->have);
  };
  return q;
}

bool PeerNode::start_tx(net::PeerId requestor, net::PieceIndex piece,
                        std::uint64_t chain, net::PeerId prev_donor,
                        net::PieceIndex prev_piece, net::TxId forward_of) {
  Neighbor* rn = ready_neighbor(requestor);
  if (rn == nullptr) return false;
  // Chain heads are selections and must respect the flow-control cap k.
  if (chain == 0 && !pending_.eligible(requestor)) return false;

  const core::PayeeQuery q = payee_query(requestor, piece);
  const net::PeerId payee = core::select_payee(q, rng_);

  if (payee == net::kNoPeer) {
    // Terminal (unencrypted) gift — Fig 1c. Only possible from plaintext,
    // and only toward a neighbor with nothing outstanding.
    if (forward_of != 0) return false;
    if (pending_.pending(requestor) != 0) return false;
    const net::TxId tx = ctx_.alloc_tx();
    std::uint64_t ch = chain;
    if (ch == 0) {
      ch = ctx_.start_chain(opts_.id, q.donor_is_seeder);
      my_chains_.push_back(ch);
    }
    ctx_.emit({.kind = EventKind::kTxOpen,
               .piece = piece,
               .a = opts_.id,
               .b = requestor,
               .c = net::kNoPeer,
               .ref = tx,
               .chain = ch});
    ctx_.extend_chain(ch, tx);
    ctx_.emit({.kind = EventKind::kPieceSent,
               .piece = piece,
               .a = opts_.id,
               .b = requestor,
               .ref = tx,
               .chain = ch});
    rn->conn->send(net::Message{net::PlainPieceMsg{
        tx, ch, opts_.id, piece, prev_donor, prev_piece, store_[piece]}});
    rn->claimed.set(piece);
    count("rt.tx_terminal");
    return true;
  }

  // §II-D1: toward an empty-handed requestor with an indirect payee, pick a
  // piece the payee also lacks, so the requestor can reciprocate by
  // forwarding it.
  net::PieceIndex give = piece;
  if (forward_of == 0 && payee != opts_.id && rn->have.empty()) {
    const auto pn = neighbors_.find(payee);
    if (pn != neighbors_.end()) {
      if (const auto bp = core::select_bootstrap_piece(
              have_, rn->claimed, pn->second.claimed, rng_)) {
        give = *bp;
      }
    }
  }

  const net::TxId tx = ctx_.alloc_tx();
  std::uint64_t ch = chain;
  if (ch == 0) {
    ch = ctx_.start_chain(opts_.id, q.donor_is_seeder);
    my_chains_.push_back(ch);
  }
  ctx_.emit({.kind = EventKind::kTxOpen,
             .piece = give,
             .a = opts_.id,
             .b = requestor,
             .c = payee,
             .ref = tx,
             .chain = ch});
  ctx_.extend_chain(ch, tx);
  pending_.add(requestor);

  const util::Bytes& data =
      forward_of != 0 ? banked_.at(forward_of).buffer : store_[give];
  DonorTx d;
  d.session = std::make_unique<core::DonorSession>(
      tx, ch, opts_.id, requestor, payee, give, prev_donor, prev_piece, data,
      keys_);
  d.chain = ch;
  d.requestor = requestor;
  d.piece = give;
  d.forward_of = forward_of;

  rn->conn->send(net::Message{d.session->offer()});
  ctx_.emit({.kind = EventKind::kPieceSent,
             .piece = give,
             .a = opts_.id,
             .b = requestor,
             .ref = tx,
             .chain = ch});
  rn->claimed.set(give);
  if (forward_of != 0) banked_.at(forward_of).forwarded_as.push_back(tx);

  if (payee == opts_.id) {
    duties_.push_back({tx, ch, opts_.id, requestor, give});
  } else if (Neighbor* pn = ready_neighbor(payee)) {
    pn->conn->send(net::Message{
        net::PayeeNotifyMsg{tx, ch, opts_.id, requestor, give}});
  }
  arm_watchdog(d, tx);
  donor_.emplace(tx, std::move(d));
  count("rt.tx_opened");
  return true;
}

void PeerNode::maybe_start_chains() {
  const bool seeder_like = opts_.seeder || have_.complete();
  std::size_t budget = 0;
  if (seeder_like) {
    budget = opts_.seeder_slots;
  } else {
    // Opportunistic seeding (§II-D3): at least one completed piece and no
    // unmet reciprocation obligations.
    std::size_t unmet = 0;
    for (const auto& [tx, b] : banked_) {
      (void)tx;
      if (!b.reciprocated) ++unmet;
    }
    if (!core::may_opportunistically_seed(have_.count(), unmet)) return;
    budget = 1;
  }

  std::size_t active = 0;
  for (auto it = my_chains_.begin(); it != my_chains_.end();) {
    if (ctx_.chains.is_active(*it)) {
      ++active;
      ++it;
    } else {
      it = my_chains_.erase(it);
    }
  }

  while (active < budget) {
    std::vector<net::PeerId> cands;
    for (const auto& [peer, n] : neighbors_) {
      if (!n.ready || n.conn == nullptr || !n.conn->is_open()) continue;
      if (!pending_.eligible(peer)) continue;
      if (!n.claimed.interested_in(have_)) continue;  // needs nothing of ours
      cands.push_back(peer);
    }
    if (cands.empty()) return;
    const net::PeerId r = cands[rng_.index(cands.size())];
    const net::PieceIndex p = lrf_unclaimed(neighbors_.at(r).claimed);
    if (p == net::kNoPiece) return;
    if (!start_tx(r, p, 0, net::kNoPeer, net::kNoPiece, 0)) return;
    ++active;
  }
}

net::PieceIndex PeerNode::lrf_unclaimed(const bt::Bitfield& claimed) {
  // Rarest-first with a *random* tie-break: concurrent chains picking the
  // lowest index would all carry the same piece and collide at the payees.
  std::vector<net::PieceIndex> best;
  std::size_t best_rarity = std::numeric_limits<std::size_t>::max();
  for (const net::PieceIndex p : claimed.missing_from(have_)) {
    std::size_t rarity = 0;
    for (const auto& [peer, n] : neighbors_) {
      (void)peer;
      if (n.ready && n.have.get(p)) ++rarity;
    }
    if (rarity < best_rarity) {
      best_rarity = rarity;
      best.clear();
    }
    if (rarity == best_rarity) best.push_back(p);
  }
  if (best.empty()) return net::kNoPiece;
  return best[rng_.index(best.size())];
}

}  // namespace tc::rt
