#include "src/check/invariants.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace tc::check {

using obs::EventKind;
using obs::TraceEvent;

const char* invariant_name(Invariant inv) {
  switch (inv) {
    case Invariant::kFairExchange: return "fair-exchange";
    case Invariant::kPendingBound: return "pending-bound";
    case Invariant::kChainShape: return "chain-shape";
    case Invariant::kEscrow: return "escrow";
    case Invariant::kPieceConservation: return "piece-conservation";
    case Invariant::kTxLifecycle: return "tx-lifecycle";
    case Invariant::kCount_: break;
  }
  return "?";
}

const char* CheckReport::verdict() const {
  if (!sound) return "UNSOUND";
  return total_violations > 0 ? "VIOLATIONS" : "PASS";
}

namespace {

// (peer, peer) -> 64-bit map key. PeerIds are 32-bit, so this is exact.
std::uint64_t pair_key(net::PeerId a, net::PeerId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

struct Checker::Impl {
  explicit Impl(const CheckerOptions& o) : opts(o) {}

  struct PeerInfo {
    bool freerider = false;
    bool colluder = false;
  };

  struct TxInfo {
    net::PeerId donor = net::kNoPeer;
    net::PeerId requestor = net::kNoPeer;
    net::PeerId payee = net::kNoPeer;
    net::PieceIndex piece = net::kNoPiece;
    std::uint64_t chain = 0;
    util::SimTime opened = 0.0;
    bool encrypted = false;
    bool delivered = false;      // its own ciphertext/piece arrived D -> R
    bool key_delivered = false;
    bool key_lost = false;
    bool escrowed = false;
    bool closed = false;    // kTxClose seen; the record stays
    bool extended = false;  // linked into its chain by a kChainExtend
  };

  struct ChainInfo {
    net::PeerId initiator = net::kNoPeer;
    std::uint32_t extends = 0;
    bool broken = false;
    std::uint8_t cause = 0;
  };

  CheckerOptions opts;
  CheckReport rep;
  bool finished = false;

  std::unordered_map<net::PeerId, PeerInfo> peers;
  // Every transaction ever opened, one record per id. A closed record
  // stays, so a late event on it is told apart from an unknown id.
  std::unordered_map<std::uint64_t, TxInfo> txs;
  std::unordered_map<std::uint64_t, ChainInfo> chains;
  // donor -> neighbor -> unreciprocated encrypted pieces (flow control k).
  std::unordered_map<net::PeerId, std::unordered_map<net::PeerId, int>> pending;
  // (uploader, receiver) -> pieces ever delivered on that edge.
  std::unordered_map<std::uint64_t, std::unordered_set<net::PieceIndex>>
      delivered;
  // peer -> pieces granted (decrypted / plainly received) at that peer.
  std::unordered_map<net::PeerId, std::unordered_set<net::PieceIndex>> granted;
  // chain -> peer -> latest time that peer delivered a piece as donor
  // within the chain (the reciprocation evidence for fair-exchange).
  std::unordered_map<std::uint64_t,
                     std::unordered_map<net::PeerId, util::SimTime>>
      chain_deliveries;

  // --- Reporting ----------------------------------------------------------

  void record(const Violation& v) {
    if (v.severity == Severity::kWarning) {
      ++rep.warnings;
    } else if (rep.sound) {
      ++rep.total_violations;
      ++rep.by_class[static_cast<std::size_t>(v.invariant)];
    } else {
      ++rep.possible_violations;
      ++rep.by_class[static_cast<std::size_t>(v.invariant)];
    }
    if (rep.findings.size() < opts.max_findings) rep.findings.push_back(v);
  }

  void violate(Invariant inv, const TraceEvent& e, std::string detail) {
    Violation v;
    v.invariant = inv;
    v.t = e.t;
    v.a = e.a;
    v.b = e.b;
    v.piece = e.piece;
    v.ref = e.ref;
    v.chain = e.chain;
    v.detail = std::move(detail);
    record(v);
  }

  // An event referencing a transaction/chain we never saw open. On a sound
  // stream that is a malformed-stream violation; on a lossy stream the
  // open was likely overwritten, so it is only an orphan.
  void unknown_ref(Invariant inv, const TraceEvent& e, const char* what) {
    if (!rep.sound) {
      ++rep.orphans;
      return;
    }
    violate(inv, e, std::string("event references unknown ") + what);
  }

  bool colluder(net::PeerId p) const {
    const auto it = peers.find(p);
    return it != peers.end() && it->second.colluder;
  }

  bool freerider(net::PeerId p) const {
    const auto it = peers.find(p);
    return it != peers.end() && it->second.freerider;
  }

  // The record of `id` while it is open; null if closed or never opened.
  TxInfo* open_tx(std::uint64_t id) {
    const auto it = txs.find(id);
    return it == txs.end() || it->second.closed ? nullptr : &it->second;
  }

  int pending_of(net::PeerId donor, net::PeerId n) const {
    const auto it = pending.find(donor);
    if (it == pending.end()) return 0;
    const auto jt = it->second.find(n);
    return jt == it->second.end() ? 0 : jt->second;
  }

  // --- Event handlers -----------------------------------------------------

  void on_join(net::PeerId id, std::uint8_t flags) {
    PeerInfo& p = peers[id];
    p.freerider = (flags & obs::kPeerFlagFreerider) != 0;
    p.colluder = (flags & obs::kPeerFlagColluder) != 0;
  }

  void on_gone(net::PeerId id) {
    // The departing identity's flow-control ledger dies with it.
    pending.erase(id);
  }

  void on_whitewash(net::PeerId old_id, net::PeerId fresh) {
    // Same logical peer, fresh identity: the attack flags carry over, the
    // old identity's donor-side ledger does not (that is the attack).
    PeerInfo info;
    const auto it = peers.find(old_id);
    if (it != peers.end()) info = it->second;
    pending.erase(old_id);
    peers[fresh] = info;
  }

  void on_tx_open(const TraceEvent& e) {
    const auto [rec, fresh] = txs.try_emplace(e.ref);
    if (!fresh) {
      violate(Invariant::kTxLifecycle, e, "duplicate transaction id opened");
      return;
    }

    bool head = false;
    if (e.chain != 0) {
      const auto ct = chains.find(e.chain);
      if (ct == chains.end()) {
        unknown_ref(Invariant::kChainShape, e, "chain (tx-open)");
      } else {
        head = ct->second.extends == 0;
      }
    }

    TxInfo& tx = rec->second;
    tx.donor = e.a;
    tx.requestor = e.b;
    tx.payee = e.c;
    tx.piece = e.piece;
    tx.chain = e.chain;
    tx.opened = e.t;
    tx.encrypted = e.c != net::kNoPeer;

    // Flow control (§II-D2). Chain heads and payee designations are
    // *selections* and must respect the cap; mid-chain reciprocation
    // targets are mandated by the chain and exempt.
    if (tx.encrypted) {
      if (head && pending_of(e.a, e.b) >= opts.pending_cap) {
        violate(Invariant::kPendingBound, e,
                "chain head opened toward a requestor at the pending cap k");
      }
      if (e.c != e.a && pending_of(e.a, e.c) >= opts.pending_cap) {
        violate(Invariant::kPendingBound, e,
                "payee designated while at the pending cap k");
      }
      ++pending[e.a][e.b];
    } else if (pending_of(e.a, e.b) > 0) {
      // Terminal gifts only go to neighbors with nothing outstanding.
      violate(Invariant::kPendingBound, e,
              "unencrypted gift to a neighbor with pending obligations");
    }
  }

  void on_tx_close(const TraceEvent& e) {
    const auto it = txs.find(e.ref);
    if (it == txs.end()) {
      unknown_ref(Invariant::kTxLifecycle, e, "transaction (tx-close)");
      return;
    }
    TxInfo& tx = it->second;
    if (tx.closed) {
      violate(Invariant::kTxLifecycle, e, "transaction closed twice");
      return;
    }
    const auto state = static_cast<obs::TxState>(e.aux);
    if (const char* misfit = close_misfit(tx, state)) {
      violate(Invariant::kTxLifecycle, e, misfit);
    }

    // Key conservation at close. Escrowed keys (§II-B4 handoff) and
    // delivered ciphertexts must resolve: key delivered, key explicitly
    // lost (the refund path — the requestor may re-fetch), or deliberately
    // withheld (§II-D2 sanction: an await-key close, never a dead one;
    // close_misfit allows it only toward a free-rider).
    if (tx.escrowed && !tx.key_delivered && !tx.key_lost) {
      violate(Invariant::kEscrow, e,
              "escrowed key neither delivered nor refunded at close");
    } else if (tx.encrypted && tx.delivered && !tx.key_delivered &&
               !tx.key_lost && state != obs::TxState::kCompleted &&
               state != obs::TxState::kAwaitKey) {
      violate(Invariant::kEscrow, e,
              "delivered ciphertext closed with key neither delivered nor "
              "lost");
    }

    // Flow-control model: every close path except the free-rider swallow
    // (kAwaitKey close with no key-lost refund) resolves the donor's
    // pending slot.
    if (tx.encrypted) {
      const bool swallowed =
          state == obs::TxState::kAwaitKey && !tx.key_lost && !tx.key_delivered;
      if (!swallowed) {
        const auto dt = pending.find(tx.donor);
        if (dt != pending.end()) {
          const auto nt = dt->second.find(tx.requestor);
          if (nt != dt->second.end() && nt->second > 0) --nt->second;
        }
      }
    }

    tx.closed = true;
  }

  // Why a close in `state` does not fit what the stream showed of `tx`
  // before it, or null if it fits.
  const char* close_misfit(const TxInfo& tx, obs::TxState state) const {
    switch (state) {
      case obs::TxState::kUploading:
        return "transaction closed uploading";
      case obs::TxState::kAwaitKey:
        return freerider(tx.requestor)
                   ? nullptr
                   : "transaction closed await-key, but its requestor is no "
                     "free-rider";
      case obs::TxState::kCompleted:
        return tx.key_delivered
                   ? nullptr
                   : "transaction closed completed but its key was never "
                     "delivered";
      case obs::TxState::kTerminal:
        return !tx.encrypted && tx.delivered
                   ? nullptr
                   : "transaction closed terminal, but it has a payee or "
                     "its piece was never delivered";
      case obs::TxState::kDead:
        // A still-keyless delivered ciphertext is the escrow rule's.
        return tx.delivered && !tx.key_lost &&
                       (!tx.encrypted || tx.key_delivered)
                   ? "delivered transaction closed dead with no key-lost"
                   : nullptr;
    }
    return "transaction closed in an unknown state";
  }

  // A key event names its transaction's chain.
  void expect_tx_chain(const TxInfo& tx, const TraceEvent& e) {
    if (e.chain != tx.chain) {
      violate(Invariant::kTxLifecycle, e,
              "key event names another chain than its transaction's");
    }
  }

  void on_key_escrowed(const TraceEvent& e) {
    TxInfo* tx = open_tx(e.ref);
    if (tx == nullptr) {
      unknown_ref(Invariant::kEscrow, e, "transaction (key-escrowed)");
      return;
    }
    expect_tx_chain(*tx, e);
    if (tx->escrowed) {
      violate(Invariant::kEscrow, e, "key escrowed twice");
      return;
    }
    tx->escrowed = true;
  }

  void on_key_delivered(const TraceEvent& e) {
    TxInfo* found = open_tx(e.ref);
    if (found == nullptr) {
      unknown_ref(Invariant::kFairExchange, e, "transaction (key-delivered)");
      return;
    }
    TxInfo& tx = *found;
    expect_tx_chain(tx, e);
    if (tx.key_delivered) {
      violate(Invariant::kFairExchange, e, "key delivered twice");
      return;
    }
    if (!tx.encrypted) {
      violate(Invariant::kFairExchange, e,
              "key delivered for an unencrypted transaction");
      tx.key_delivered = true;
      return;
    }

    // Fair exchange: the requestor must have reciprocated — delivered a
    // piece as donor within this chain, after this transaction opened —
    // before the key settles. Sanctioned exceptions: the modeled collusion
    // attack (false receipts succeed by design, §III-A4) and gratis
    // settlement once the chain is in teardown (no qualified payee exists;
    // the break — kNoPayee or an earlier failure — precedes the release).
    bool reciprocated = false;
    if (tx.chain != 0) {
      const auto cd = chain_deliveries.find(tx.chain);
      if (cd != chain_deliveries.end()) {
        const auto rt = cd->second.find(tx.requestor);
        reciprocated = rt != cd->second.end() && rt->second >= tx.opened;
      }
    }
    bool settling = false;
    if (tx.chain != 0) {
      const auto ct = chains.find(tx.chain);
      settling = ct != chains.end() && ct->second.broken;
    }
    if (!reciprocated && !settling && !colluder(tx.requestor)) {
      violate(Invariant::kFairExchange, e,
              "key delivered before the matching reciprocation completed");
    }
    tx.key_delivered = true;
  }

  void on_key_lost(const TraceEvent& e) {
    const auto it = txs.find(e.ref);
    if (it == txs.end()) {
      unknown_ref(Invariant::kTxLifecycle, e, "transaction (key-lost)");
      return;
    }
    expect_tx_chain(it->second, e);
    // A key-lost after close is the in-flight key-release message dying on
    // the wire (the transaction itself completed) — legitimate.
    if (!it->second.closed) it->second.key_lost = true;
  }

  void on_tx_touch(const TraceEvent& e, const char* what) {
    const auto it = txs.find(e.ref);
    if (it == txs.end()) {
      unknown_ref(Invariant::kTxLifecycle, e, "transaction");
    } else if (it->second.closed) {
      violate(Invariant::kTxLifecycle, e,
              std::string(what) + " event on a closed transaction");
    }
  }

  void on_chain_start(const TraceEvent& e) {
    if (chains.count(e.chain) != 0) {
      violate(Invariant::kChainShape, e, "chain started twice");
      return;
    }
    ChainInfo c;
    c.initiator = e.a;
    chains.emplace(e.chain, c);
  }

  void on_chain_extend(const TraceEvent& e) {
    const auto it = chains.find(e.chain);
    if (it == chains.end()) {
      unknown_ref(Invariant::kChainShape, e, "chain (chain-extend)");
    } else {
      ++it->second.extends;
    }
    if (e.ref != 0) {
      const auto tt = txs.find(e.ref);
      if (tt == txs.end()) {
        unknown_ref(Invariant::kChainShape, e, "transaction (chain-extend)");
      } else if (tt->second.extended) {
        violate(Invariant::kChainShape, e,
                "transaction linked into a chain twice (forged cycle)");
      } else {
        tt->second.extended = true;
        if (tt->second.closed) {
          unknown_ref(Invariant::kChainShape, e, "transaction (chain-extend)");
        }
      }
    }
    // A kChainExtend after kChainBreak is NOT flagged: transactions queued
    // behind a broken frontier legitimately keep reciprocating while the
    // chain settles (see protocols/tchain.cpp continue_chain).
  }

  void on_chain_break(const TraceEvent& e) {
    const auto it = chains.find(e.chain);
    if (it == chains.end()) {
      unknown_ref(Invariant::kChainShape, e, "chain (chain-break)");
      return;
    }
    if (e.aux == static_cast<std::uint8_t>(obs::ChainBreakCause::kNone)) {
      violate(Invariant::kChainShape, e, "chain break without a cause");
    }
    if (it->second.broken) {
      violate(Invariant::kChainShape, e, "chain broken twice");
      return;
    }
    it->second.broken = true;
    it->second.cause = e.aux;
  }

  // In a stream that opens transactions (a T-Chain driver's), a piece
  // event names, in `ref`, a transaction opened earlier with the event's
  // donor, requestor and piece; returns it, or null after flagging the
  // event. Baseline streams open none and name flow ids, so their piece
  // events name nothing.
  TxInfo* piece_tx(const TraceEvent& e) {
    if (txs.empty()) return nullptr;
    const auto it = txs.find(e.ref);
    if (it == txs.end()) {
      unknown_ref(Invariant::kTxLifecycle, e, "transaction (piece event)");
      return nullptr;
    }
    TxInfo& tx = it->second;
    if (tx.donor != e.a || tx.requestor != e.b || tx.piece != e.piece) {
      violate(Invariant::kTxLifecycle, e,
              "piece event off its transaction's edge or piece");
      return nullptr;
    }
    return &tx;
  }

  // A delivery credits only the open transaction it names: a delivery on
  // another edge must not pay for it (a trace read from a file can name
  // any id).
  void on_piece_delivered(const TraceEvent& e) {
    delivered[pair_key(e.a, e.b)].insert(e.piece);
    TxInfo* tx = piece_tx(e);
    if (tx == nullptr || tx->closed) return;
    tx->delivered = true;
    if (tx->chain != 0) {
      util::SimTime& last = chain_deliveries[tx->chain][e.a];
      last = std::max(last, e.t);
    }
  }

  void on_piece_granted(const TraceEvent& e) {
    // e.a = receiver, e.b = source (see obs::EventKind).
    auto& got = granted[e.a];
    if (!got.insert(e.piece).second) {
      violate(Invariant::kPieceConservation, e,
              "piece granted twice to the same peer");
      return;
    }
    const auto it = delivered.find(pair_key(e.b, e.a));
    if (it == delivered.end() || it->second.count(e.piece) == 0) {
      // On a lossy stream the delivery may have been overwritten.
      if (rep.sound) {
        violate(Invariant::kPieceConservation, e,
                "piece granted without a matching delivery");
      } else {
        ++rep.orphans;
      }
    }
  }

  void consume(const TraceEvent& e) {
    ++rep.events;
    switch (e.kind) {
      case EventKind::kPeerJoin: on_join(e.a, e.aux); break;
      case EventKind::kPeerDepart:
      case EventKind::kPeerCrash: on_gone(e.a); break;
      case EventKind::kPeerWhitewash: on_whitewash(e.a, e.b); break;
      case EventKind::kPieceSent:
      case EventKind::kPieceAborted: piece_tx(e); break;
      case EventKind::kPieceDelivered: on_piece_delivered(e); break;
      case EventKind::kPieceGranted: on_piece_granted(e); break;
      case EventKind::kKeyEscrowed: on_key_escrowed(e); break;
      case EventKind::kKeyDelivered: on_key_delivered(e); break;
      case EventKind::kKeyLost: on_key_lost(e); break;
      case EventKind::kTxOpen: on_tx_open(e); break;
      case EventKind::kTxRetry: on_tx_touch(e, "retry"); break;
      case EventKind::kTxTimeout: on_tx_touch(e, "timeout"); break;
      case EventKind::kTxClose: on_tx_close(e); break;
      case EventKind::kChainStart: on_chain_start(e); break;
      case EventKind::kChainExtend: on_chain_extend(e); break;
      case EventKind::kChainBreak: on_chain_break(e); break;
      case EventKind::kPeerFinish:
      case EventKind::kChoke:
      case EventKind::kUnchoke:
      case EventKind::kFaultControlDrop:
      case EventKind::kFaultControlJitter:
      case EventKind::kFaultOutageBegin:
      case EventKind::kFaultOutageEnd:
      case EventKind::kCensusTick:
      case EventKind::kCount_:
        break;
    }
  }

  void do_finish() {
    if (finished) return;
    finished = true;
    // A run that hits its horizon mid-exchange is not a safety failure:
    // still-open escrows are surfaced as warnings only. Walk ids in sorted
    // order so the findings list is deterministic.
    std::vector<std::uint64_t> open_ids;
    for (const auto& [id, tx] : txs) {  // det-ok
      if (!tx.closed) open_ids.push_back(id);
    }
    std::sort(open_ids.begin(), open_ids.end());
    for (const std::uint64_t id : open_ids) {
      const TxInfo& tx = txs.at(id);
      if (tx.escrowed && !tx.key_delivered && !tx.key_lost) {
        Violation v;
        v.invariant = Invariant::kEscrow;
        v.severity = Severity::kWarning;
        v.a = tx.donor;
        v.b = tx.requestor;
        v.piece = tx.piece;
        v.ref = id;
        v.chain = tx.chain;
        v.detail = "escrowed key still unresolved at end of stream";
        record(v);
      }
    }
  }
};

Checker::Checker(CheckerOptions opts) : impl_(new Impl(opts)) {}

Checker::~Checker() { delete impl_; }

void Checker::on_event(const TraceEvent& e) { impl_->consume(e); }

void Checker::note_dropped(std::uint64_t n) {
  if (n == 0) return;
  impl_->rep.dropped += n;
  impl_->rep.sound = false;
}

const CheckReport& Checker::finish() {
  impl_->do_finish();
  return impl_->rep;
}

const CheckReport& Checker::report() const { return impl_->rep; }

CheckReport check_events(const std::vector<TraceEvent>& events,
                         std::uint64_t dropped, const CheckerOptions& opts) {
  Checker checker(opts);
  checker.note_dropped(dropped);
  for (const TraceEvent& e : events) checker.on_event(e);
  return checker.finish();
}

void write_report(std::ostream& os, const CheckReport& report,
                  std::size_t max_findings_shown) {
  os << "verdict: " << report.verdict() << "\n"
     << "events: " << report.events << "  dropped: " << report.dropped
     << "\n";
  if (!report.sound) {
    os << "stream is lossy: findings below are POSSIBLE violations only "
          "(counter-evidence may have been overwritten)\n"
       << "possible violations: " << report.possible_violations << "\n"
       << "orphan references: " << report.orphans << "\n";
  } else {
    os << "violations: " << report.total_violations << "\n";
  }
  os << "warnings: " << report.warnings << "\n";
  for (std::size_t c = 0; c < kInvariantCount; ++c) {
    if (report.by_class[c] == 0) continue;
    os << "  " << invariant_name(static_cast<Invariant>(c)) << ": "
       << report.by_class[c] << "\n";
  }
  const std::size_t n = std::min(max_findings_shown, report.findings.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Violation& v = report.findings[i];
    os << "  [" << (v.severity == Severity::kWarning ? "warn" : "VIOLATION")
       << "] t=" << v.t << " " << invariant_name(v.invariant) << ": "
       << v.detail;
    if (v.a != net::kNoPeer) os << " a=" << v.a;
    if (v.b != net::kNoPeer) os << " b=" << v.b;
    if (v.piece != net::kNoPiece) os << " piece=" << v.piece;
    if (v.ref != 0) os << " tx=" << v.ref;
    if (v.chain != 0) os << " chain=" << v.chain;
    os << "\n";
  }
  if (report.findings.size() > n) {
    os << "  ... " << (report.findings.size() - n) << " more finding(s)\n";
  }
}

}  // namespace tc::check
