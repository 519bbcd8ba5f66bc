#include "src/protocols/tchain.h"

#include <algorithm>

#include "src/core/policy.h"

namespace tc::protocols {

using core::Transaction;
using core::TxState;

TChainProtocol::PeerState& TChainProtocol::state(PeerId id) {
  if (PeerState* st = find_state(id)) return *st;
  const PeerState blank(swarm_->config().pending_cap);
  if (id >= peers_.size()) peers_.resize(std::size_t{id} + 1, blank);
  PeerState& st = peers_[id];
  st = blank;
  st.live = true;
  return st;
}

bool TChainProtocol::is_seeder(PeerId id) const {
  const bt::Peer* p = swarm_->peer(id);
  return p != nullptr && p->seeder;
}

void TChainProtocol::on_run_start() {
  // Census tick loop for the Figures 10/11 series (replayed offline by
  // obs::ChainView). Scheduled unconditionally so the simulator's event-id
  // sequence — and therefore the run — is identical with tracing off.
  swarm_->simulator().schedule_in(kCensusPeriod, [this] { census_loop(); });
}

void TChainProtocol::on_peer_join(PeerId id) {
  state(id);  // materialize
  if (is_seeder(id)) {
    seeder_tick();
    return;
  }
  // Per-leecher opportunistic-seeding / stall-recovery loop (§II-D3).
  swarm_->simulator().schedule_in(bt::kRechokePeriod,
                                  [this, id] { opp_loop(id); });
}

void TChainProtocol::on_peer_depart(PeerId id) { handle_exit(id, false); }

void TChainProtocol::on_peer_crash(PeerId id) { handle_exit(id, true); }

void TChainProtocol::handle_exit(PeerId id, bool crashed) {
  // Settle every transaction the departing peer participates in (§II-B4).
  // A graceful donor hands escrowed keys to payees on the way out; a
  // crashed donor takes its keys with it.
  const obs::ChainBreakCause cause = crashed ? obs::ChainBreakCause::kCrash
                                             : obs::ChainBreakCause::kDeparture;
  for (const TxId txid : txs_.involving(id)) {
    Transaction* tx = txs_.get(txid);
    if (tx == nullptr) continue;
    const bool awaiting = tx->state == TxState::kAwaitKey;

    if (tx->donor == id && !crashed && awaiting &&
        tx->payee != net::kNoPeer && tx->payee != id &&
        swarm_->is_active(tx->payee)) {
      // Donor hands the key to the payee on its way out; the payee will
      // release it upon reciprocation.
      tx->key_escrowed = true;
      if (obs::Trace* tr = swarm_->obs()) {
        tr->emit({.t = swarm_->simulator().now(),
                  .kind = obs::EventKind::kKeyEscrowed,
                  .piece = tx->piece,
                  .a = tx->donor,
                  .b = tx->requestor,
                  .c = tx->payee,
                  .ref = txid,
                  .chain = tx->chain});
      }
    } else if (tx->donor == id || tx->requestor == id) {
      // The donor leaves without an escrow, or the requestor leaves before
      // reciprocating: the exchange dies. An upload still in flight aborts
      // with its flow.
      if (awaiting) close_tx(*tx, TxState::kDead, cause);
    } else if (tx->payee == id && awaiting) {
      // Payee departed before reciprocation: donor designates another
      // (deferred a control-latency so the overlay settles first).
      const TxId fix = txid;
      swarm_->send_control([this, fix] { continue_chain(fix); });
    }
  }
  if (PeerState* st = find_state(id)) {
    *st = PeerState(swarm_->config().pending_cap);
  }
}

void TChainProtocol::census_loop() {
  if (obs::Trace* tr = swarm_->obs()) {
    tr->emit({.t = swarm_->simulator().now(),
              .kind = obs::EventKind::kCensusTick});
  }
  swarm_->simulator().schedule_in(kCensusPeriod, [this] { census_loop(); });
}

void TChainProtocol::break_chain(ChainId id, obs::ChainBreakCause cause) {
  if (id >= live_chains_.size() || !live_chains_[id]) return;
  live_chains_[id] = false;
  if (obs::Trace* tr = swarm_->obs()) {
    tr->emit({.t = swarm_->simulator().now(),
              .kind = obs::EventKind::kChainBreak,
              .aux = static_cast<std::uint8_t>(cause),
              .chain = id});
  }
}

void TChainProtocol::count(const char* name) {
  if (obs::Trace* tr = swarm_->obs()) tr->registry().counter(name).inc();
}

void TChainProtocol::opp_loop(PeerId id) {
  if (!swarm_->is_active(id)) return;
  opportunistic_tick(id);
  swarm_->simulator().schedule_in(bt::kRechokePeriod,
                                  [this, id] { opp_loop(id); });
}

void TChainProtocol::prune_banned_neighbors(PeerId id) {
  // §II-D2: flow control "helps participants identify uncooperative or
  // malfunctioning neighbors". A neighbor at the pending cap is not
  // serviceable in either direction; once the neighbor table is nearly
  // full, drop such neighbors so their slots go to serviceable peers
  // (otherwise large-view free-riders squat on the seeder's connections).
  bt::Peer* p = swarm_->peer(id);
  if (p == nullptr || !p->active) return;
  if (p->neighbors.size() * 5 < bt::kMaxNeighbors * 4) return;
  const std::vector<PeerId> banned = state(id).pending.at_cap();
  if (banned.empty()) return;
  std::vector<PeerId> drop;
  for (PeerId n : p->neighbors) {
    if (std::find(banned.begin(), banned.end(), n) != banned.end())
      drop.push_back(n);
  }
  for (PeerId n : drop) swarm_->disconnect(id, n);
}

void TChainProtocol::seeder_tick() {
  const PeerId s = swarm_->seeder_id();
  if (!swarm_->is_active(s)) return;
  prune_banned_neighbors(s);
  start_chains(s);
  swarm_->simulator().schedule_in(2.0, [this] { seeder_tick(); });
}

void TChainProtocol::opportunistic_tick(PeerId id) {
  const bt::Peer* p = swarm_->peer(id);
  if (p == nullptr || !p->active || p->freerider || p->seeder) return;
  prune_banned_neighbors(id);
  if (swarm_->config().opportunistic_seeding) start_chains(id);
}

void TChainProtocol::start_chains(PeerId donor) {
  const bt::Peer* d = swarm_->peer(donor);
  PeerState& ds = state(donor);
  const std::size_t budget =
      core::chain_budget(d->seeder, d->have.count(), ds.obligations,
                         core::kSeederChainSlots);
  for (std::size_t guard = 0; ds.active_uploads < budget && guard < 2 * budget;
       ++guard) {
    if (!initiate_chain(donor, d->seeder)) break;
  }
}

bool TChainProtocol::initiate_chain(PeerId donor, bool by_seeder) {
  const bt::Peer* d = swarm_->peer(donor);
  if (d == nullptr || !d->active) return false;
  PeerState& ds = state(donor);

  const PeerId requestor = core::pick_peer(
      d->neighbors,
      [&](PeerId n) {
        const bt::Peer* np = swarm_->peer(n);
        return np != nullptr && np->active && ds.pending.eligible(n) &&
               core::chain_head_needs(np->requested, d->have);
      },
      swarm_->rng());
  if (requestor == net::kNoPeer) return false;

  const ChainId chain = next_chain_++;
  if (chain >= live_chains_.size()) live_chains_.resize(chain + 1);
  live_chains_[chain] = true;
  if (obs::Trace* tr = swarm_->obs()) {
    tr->emit({.t = swarm_->simulator().now(),
              .kind = obs::EventKind::kChainStart,
              .aux = static_cast<std::uint8_t>(by_seeder ? 1 : 0),
              .a = donor,
              .chain = chain});
  }
  if (!start_tx(donor, requestor, /*prev=*/0, chain)) {
    break_chain(chain, obs::ChainBreakCause::kAborted);
    return false;
  }
  return true;
}

PeerId TChainProtocol::choose_payee(PeerId donor, PeerId requestor,
                                    PieceIndex piece) {
  const bt::Peer* d = swarm_->peer(donor);
  const bt::Peer* r = swarm_->peer(requestor);
  if (d == nullptr || r == nullptr) return net::kNoPeer;
  PeerState& ds = state(donor);
  // Never for a seeder: requested ⊇ have, so it needs nothing.
  const bool direct = swarm_->config().allow_direct_reciprocity &&
                      swarm_->needs_from(donor, requestor);
  return core::select_payee(
      donor, requestor, direct, d->neighbors,
      [&](PeerId n) {
        if (!ds.pending.eligible(n)) return false;
        const bt::Peer* np = swarm_->peer(n);
        return np != nullptr && np->active &&
               core::payee_needs(np->requested, piece, &r->have);
      },
      swarm_->rng());
}

bool TChainProtocol::start_tx(PeerId donor, PeerId requestor, TxId prev,
                              ChainId chain, PieceIndex forced_piece) {
  bt::Peer* d = swarm_->peer(donor);
  bt::Peer* r = swarm_->peer(requestor);
  if (d == nullptr || r == nullptr || !d->active || !r->active) return false;

  // Piece tentatively selected by the requestor via LRF (§II-B1).
  PieceIndex piece = forced_piece;
  if (piece == net::kNoPiece) {
    const auto sel = swarm_->select_lrf(requestor, donor);
    if (!sel) return false;
    piece = *sel;
  }

  PeerId payee = choose_payee(donor, requestor, piece);

  // Newcomer bootstrapping (§II-D1): requestor has no completed piece, so
  // the donor picks a piece both requestor and payee need; the requestor
  // reciprocates by forwarding it.
  if (payee != net::kNoPeer && payee != donor && forced_piece == net::kNoPiece &&
      r->have.empty()) {
    const bt::Peer* pp = swarm_->peer(payee);
    if (pp != nullptr) {
      const auto boot = core::select_bootstrap_piece(
          d->have, r->requested, pp->requested, swarm_->rng());
      if (boot) piece = *boot;
    }
  }

  // Terminal uploads are altruistic gifts. Adaptive receiver selection
  // (§II-D2) says a neighbor with unreciprocated pending pieces "will be
  // neither selected to receive pieces nor designated as payee" — so a
  // requestor that still owes this donor gets no unencrypted piece, and
  // gifts to strangers are budgeted (this is what keeps endgame chain
  // termination from feeding free-riders). The budget is waived in the
  // tiny-swarm case the paper calls out (§II-B3: a lone leecher simply
  // gets the unencrypted file) and for neighbors that have reciprocated
  // to this donor before.
  if (payee == net::kNoPeer) {
    PeerState& ds = state(donor);
    if (ds.pending.pending(requestor) > 0) return false;
    std::size_t other_leechers = 0;
    for (PeerId n : d->neighbors) {
      const bt::Peer* np = swarm_->peer(n);
      if (np != nullptr && np->active && !np->seeder && n != requestor)
        ++other_leechers;
    }
    const bool sole_neighbor = other_leechers == 0;
    // Newcomers never need gifts — §II-D1 bootstraps them with encrypted
    // pieces — so an unproven stranger asking for unencrypted pieces is
    // indistinguishable from a whitewashed free-rider and gets none.
    if (!sole_neighbor && !is_proven(requestor)) return false;
  }

  const util::SimTime now = swarm_->simulator().now();
  Transaction& tx =
      txs_.create(chain, donor, requestor, payee, piece, prev, now);
  if (obs::Trace* tr = swarm_->obs()) {
    tr->emit({.t = now,
              .kind = obs::EventKind::kTxOpen,
              .piece = piece,
              .a = donor,
              .b = requestor,
              .c = payee,
              .ref = tx.id,
              .chain = chain});
    tr->emit({.t = now,
              .kind = obs::EventKind::kChainExtend,
              .ref = tx.id,
              .chain = chain});
  }

  PeerState& ds = state(donor);
  ++ds.active_uploads;
  if (tx.encrypted()) ds.pending.add(requestor);
  if (prev != 0) {
    if (Transaction* p = txs_.get(prev)) p->next = tx.id;
  }

  const TxId txid = tx.id;
  swarm_->start_upload(
      donor, requestor, piece, /*weight=*/1.0,
      [this, txid](PeerId, PeerId, PieceIndex, bool ok) {
        on_upload_done(txid, ok);
      },
      txid);
  return true;
}

void TChainProtocol::on_upload_done(TxId txid, bool ok) {
  Transaction* tx = txs_.get(txid);
  if (tx == nullptr) return;

  if (PeerState* ds = find_state(tx->donor)) {
    if (ds->active_uploads > 0) --ds->active_uploads;
    // Idle-triggered opportunistic seeding (§II-D3): an uploader whose pipe
    // just drained re-seeds promptly instead of waiting for the next tick.
    if (ds->active_uploads == 0) {
      const PeerId donor = tx->donor;
      swarm_->simulator().schedule_in(0.2, [this, donor] {
        if (swarm_->is_active(donor)) opportunistic_tick(donor);
      });
    }
  }

  if (!ok) {
    // One endpoint departed mid-transfer. A chain-head abort kills the
    // chain; a mid-chain abort is either revived by payee reassignment on
    // `prev` below, or `prev` itself was killed by the departure handler.
    const TxId prev = tx->prev;
    close_tx(*tx, TxState::kDead,
             prev == 0 ? obs::ChainBreakCause::kAborted
                       : obs::ChainBreakCause::kNone);
    if (prev != 0) {
      // This upload was the reciprocation of `prev`; give the previous
      // donor a chance to reassign the payee (§II-B4).
      swarm_->send_control([this, prev] { continue_chain(prev); });
    }
    return;
  }

  if (tx->encrypted()) {
    handle_encrypted_delivery(*tx);
  } else {
    // Terminal (unencrypted) upload: immediate grant, no obligation,
    // chain ends (Fig 1c). It still pays for `prev` if it was owed. The
    // chain breaks before that receipt goes out, which may draw a fault.
    const TxId prev = tx->prev;
    swarm_->grant_piece(tx->requestor, tx->piece, tx->donor);
    break_chain(tx->chain, obs::ChainBreakCause::kCompleted);
    if (prev != 0) {
      if (Transaction* pv = txs_.get(prev)) pv->next_delivered = true;
      swarm_->send_control([this, prev] { process_receipt(prev); });
    }
    close_tx(*tx, TxState::kTerminal);
  }
}

void TChainProtocol::handle_encrypted_delivery(Transaction& tx) {
  tx.state = TxState::kAwaitKey;
  ++state(tx.requestor).obligations;
  arm_watchdog(tx.id, 0);

  // This delivery is also the reciprocation payment for tx.prev: the
  // requestor (payee of prev) reports the receipt to prev's donor.
  if (tx.prev != 0) {
    const TxId prev = tx.prev;
    if (Transaction* pv = txs_.get(prev)) pv->next_delivered = true;
    swarm_->send_control([this, prev] { process_receipt(prev); });
  }

  const bt::Peer* r = swarm_->peer(tx.requestor);
  if (r == nullptr) return;

  if (r->freerider) {
    const bt::Peer* payee = swarm_->peer(tx.payee);
    const bool collusion = swarm_->config().freerider_collude && r->colluder &&
                           payee != nullptr && payee->colluder;
    if (collusion) {
      // §III-A4 / §IV-D: the colluding payee lies to the donor, claiming
      // reciprocation happened; the donor releases the key "for free".
      const TxId id = tx.id;
      count("tchain.false_receipts");
      swarm_->send_control([this, id] { process_receipt(id); });
    } else {
      // The free-rider banks the useless ciphertext and never reciprocates;
      // the donor's pending count against it stays up (the §II-D2 ban), and
      // the chain dies. Crucially, the free-rider keeps advertising the
      // piece as missing — it cannot decrypt it — so it remains a valid
      // payee target for other donors (whose chains will in turn die here,
      // capped by their own pending counters).
      if (bt::Peer* fr = swarm_->peer(tx.requestor);
          fr != nullptr && !fr->have.get(tx.piece)) {
        fr->requested.clear(tx.piece);
      }
      close_tx(tx, TxState::kAwaitKey, obs::ChainBreakCause::kFreeriderSink);
    }
    return;
  }

  // Compliant requestor: immediately continue the chain by reciprocating.
  continue_chain(tx.id);
}

void TChainProtocol::process_receipt(TxId prev_id) {
  Transaction* prev = txs_.get(prev_id);
  if (prev == nullptr || prev->state != TxState::kAwaitKey) return;

  // A receipt marks the requestor as a demonstrated reciprocator (eligible
  // for endgame gifts). A false
  // (collusion) receipt is indistinguishable, so it "proves" the colluder
  // too — the attack's whole point (§III-A4).
  if (prev->requestor >= proven_.size()) proven_.resize(prev->requestor + 1);
  proven_[prev->requestor] = true;

  if (!prev->key_escrowed && !swarm_->is_active(prev->donor)) {
    // Donor gone without escrow: key lost; the requestor re-fetches the
    // piece elsewhere.
    close_tx(*prev, TxState::kDead);
    return;
  }
  if (prev->key_escrowed) {
    ++swarm_->metrics().resilience().keys_escrow_recovered;
  }
  // The escrowing payee or the donor releases the key; the latency is the
  // same either way in the simulator.
  close_tx(*prev, TxState::kCompleted);
}

void TChainProtocol::continue_chain(TxId txid) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    Transaction* tx = txs_.get(txid);
    if (tx == nullptr || tx->state != TxState::kAwaitKey) return;
    if (tx->next != 0 && txs_.get(tx->next) != nullptr) return;  // in flight
    if (!swarm_->is_active(tx->requestor)) {
      close_tx(*tx, TxState::kDead, obs::ChainBreakCause::kDeparture);
      return;
    }
    // A free-riding requestor will never reciprocate, whatever payee the
    // donor designates; the donor's pending count against it stays up and
    // the key is never released. (The chain was already terminated when
    // the free-rider swallowed the delivery.)
    if (const bt::Peer* r = swarm_->peer(tx->requestor);
        r != nullptr && r->freerider) {
      return;
    }
    if (!tx->key_escrowed && !swarm_->is_active(tx->donor)) {
      close_tx(*tx, TxState::kDead, obs::ChainBreakCause::kDeparture);
      return;
    }

    if (tx->payee != net::kNoPeer && swarm_->is_active(tx->payee) &&
        try_start_reciprocation(*tx)) {
      return;
    }

    // Payee unusable: the donor designates a replacement (§II-B4). An
    // escrowed key, however, dies with its payee — the departed donor is
    // not around to pick another (§II-B4's key handoff is best-effort).
    if (tx->key_escrowed) {
      close_tx(*tx, TxState::kDead, obs::ChainBreakCause::kDeparture);
      return;
    }
    const PeerId new_payee = choose_payee(tx->donor, tx->requestor, tx->piece);
    if (new_payee == net::kNoPeer || new_payee == tx->payee) break;
    count("tchain.payee_reassignments");
    txs_.set_payee(txid, new_payee);
  }
  // No payee is left, or none took: the key is released gratis.
  if (Transaction* tx = txs_.get(txid);
      tx != nullptr && tx->state == TxState::kAwaitKey) {
    close_tx(*tx, TxState::kCompleted, obs::ChainBreakCause::kNoPayee);
  }
}

bool TChainProtocol::try_start_reciprocation(Transaction& tx) {
  const PeerId r = tx.requestor;  // becomes the next donor
  const PeerId p = tx.payee;      // becomes the next requestor
  if (p == r) return false;

  // Direct-reciprocity special case: payee == previous donor; the piece is
  // whatever the donor (now requestor of the new tx) needs via LRF.
  const bt::Peer* rp = swarm_->peer(r);
  const bt::Peer* pp = swarm_->peer(p);
  if (rp == nullptr || pp == nullptr) return false;

  PieceIndex forced = net::kNoPiece;
  if (!swarm_->select_lrf(p, r).has_value()) {
    // The payee needs nothing among r's completed pieces. Newcomer path:
    // forward the encrypted piece just received (§II-D1).
    if (!pp->requested.get(tx.piece)) {
      forced = tx.piece;
      count("tchain.bootstrap_forwards");
    } else {
      return false;
    }
  }
  return start_tx(r, p, tx.id, tx.chain, forced);
}

void TChainProtocol::close_tx(Transaction& tx, TxState end,
                              obs::ChainBreakCause cause) {
  const TxId txid = tx.id;
  const PeerId donor = tx.donor;
  const PeerId requestor = tx.requestor;
  const PieceIndex piece = tx.piece;
  // Every end but the free-rider's swallow frees the donor's pending slot;
  // the swallow keeps it, which is the §II-D2 ban.
  if (tx.encrypted() && end != TxState::kAwaitKey) {
    if (PeerState* ds = find_state(donor)) ds->pending.resolve(requestor);
  }
  if (tx.state == TxState::kAwaitKey) {
    if (PeerState* rs = find_state(requestor)) {
      if (rs->obligations > 0) --rs->obligations;
    }
    if (end == TxState::kDead) {
      // A delivered ciphertext dies un-keyed: the key is lost to this
      // requestor however the transaction got here (donor crash, departed
      // payee, watchdog giving up), and the piece may be re-fetched.
      lose_key(txid, donor, requestor, piece, tx.chain);
    }
  }
  if (cause != obs::ChainBreakCause::kNone) break_chain(tx.chain, cause);
  if (obs::Trace* tr = swarm_->obs()) {
    const util::SimTime now = swarm_->simulator().now();
    if (end == TxState::kCompleted) {
      tr->emit({.t = now,
                .kind = obs::EventKind::kKeyDelivered,
                .piece = piece,
                .a = donor,
                .b = requestor,
                .ref = txid,
                .chain = tx.chain});
      tr->registry().histogram("tx.lifetime_s").add(now - tx.started);
    }
    tr->emit({.t = now,
              .kind = obs::EventKind::kTxClose,
              .aux = static_cast<std::uint8_t>(end),
              .piece = piece,
              .a = donor,
              .b = requestor,
              .c = tx.payee,
              .ref = txid,
              .chain = tx.chain});
  }
  const ChainId chain = tx.chain;
  txs_.erase(txid);
  if (end != TxState::kCompleted) return;
  swarm_->send_control(
      [this, requestor, piece, donor] {
        if (swarm_->is_active(requestor)) {
          swarm_->grant_piece(requestor, piece, donor);
        }
      },
      /*on_lost=*/[this, txid, donor, requestor, piece, chain] {
        // The key-release message itself was lost. The requestor's wait
        // times out; it abandons the ciphertext and re-requests the piece
        // from another donor.
        lose_key(txid, donor, requestor, piece, chain);
      });
}

void TChainProtocol::lose_key(TxId txid, PeerId donor, PeerId requestor,
                              PieceIndex piece, ChainId chain) {
  ++swarm_->metrics().resilience().keys_lost;
  if (obs::Trace* tr = swarm_->obs()) {
    tr->emit({.t = swarm_->simulator().now(),
              .kind = obs::EventKind::kKeyLost,
              .piece = piece,
              .a = donor,
              .b = requestor,
              .ref = txid,
              .chain = chain});
  }
  bt::Peer* r = swarm_->peer(requestor);
  if (r != nullptr && r->active && !r->have.get(piece) &&
      r->requested.get(piece)) {
    r->requested.clear(piece);
    ++swarm_->metrics().resilience().piece_refetches;
  }
}

void TChainProtocol::arm_watchdog(TxId txid, int retries) {
  const double timeout = swarm_->config().tx_timeout;
  if (timeout <= 0.0) return;
  swarm_->simulator().schedule_in(
      timeout, [this, txid, retries] { watchdog_fire(txid, retries); });
}

void TChainProtocol::watchdog_fire(TxId txid, int retries) {
  Transaction* tx = txs_.get(txid);
  if (tx == nullptr || tx->state != TxState::kAwaitKey) return;  // settled

  // Reciprocation upload still in flight: progress, not a stall (a slow or
  // outage-stalled flow either completes or aborts on its own).
  if (tx->next != 0 && txs_.get(tx->next) != nullptr) {
    arm_watchdog(txid, retries);
    return;
  }

  // A free-riding requestor stalling forever is the §II-D2 sanction at
  // work, not a fault to recover from (only collusion leaves such a tx in
  // AwaitKey; the plain free-rider path erased it at swallow time).
  if (const bt::Peer* r = swarm_->peer(tx->requestor);
      r != nullptr && r->freerider) {
    return;
  }

  if (retries < core::kTxMaxRetries) {
    if (obs::Trace* tr = swarm_->obs()) {
      tr->emit({.t = swarm_->simulator().now(),
                .kind = obs::EventKind::kTxRetry,
                .aux = static_cast<std::uint8_t>(retries < 255 ? retries : 255),
                .a = tx->donor,
                .b = tx->requestor,
                .ref = txid,
                .chain = tx->chain});
    }
    if (tx->next_delivered) {
      // The reciprocation piece arrived but our receipt evidently did not:
      // the payee re-sends it (receipt retransmission).
      swarm_->send_control([this, txid] { process_receipt(txid); });
    } else {
      // Reciprocation never got going — lost reassignment trigger, payee
      // gone, aborted upload. Re-kick the chain continuation.
      continue_chain(txid);
    }
    arm_watchdog(txid, retries + 1);
    return;
  }

  // Retries exhausted: tear the exchange down. Pending counts resolve, the
  // requestor's claim clears, and the piece is re-requested elsewhere.
  ++swarm_->metrics().resilience().transactions_timed_out;
  if (obs::Trace* tr = swarm_->obs()) {
    tr->emit({.t = swarm_->simulator().now(),
              .kind = obs::EventKind::kTxTimeout,
              .a = tx->donor,
              .b = tx->requestor,
              .ref = txid,
              .chain = tx->chain});
  }
  close_tx(*tx, TxState::kDead, obs::ChainBreakCause::kWatchdog);
}

}  // namespace tc::protocols
