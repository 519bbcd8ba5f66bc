#include "src/rt/peer_node.h"

#include <stdexcept>
#include <utility>
#include <variant>

namespace tc::rt {

PeerNode::PeerNode(SwarmContext& ctx, const Options& opts)
    : ctx_(ctx),
      reactor_(ctx.reactor),
      opts_(opts),
      listener_(0),
      fd_retry_(ctx.reactor, [this] { retry_fd_work(); }),
      node_(ctx.meta, opts, *this) {}

PeerNode::~PeerNode() {
  reactor_.cancel(advance_timer_);
  for (const auto& [tx, timer] : watchdogs_) reactor_.cancel(timer);
  reactor_.remove(listener_.fd());
}

void PeerNode::start() {
  ctx_.emit({.kind = obs::EventKind::kPeerJoin,
             .aux = opts_.seeder ? std::uint8_t{obs::kPeerFlagSeeder}
                                 : std::uint8_t{0},
             .a = opts_.id});
  reactor_.add(listener_.fd(), this);
  auto conn =
      FrameConn::dial(reactor_, "127.0.0.1", opts_.tracker_port, this);
  if (conn == nullptr) throw std::runtime_error("dial tracker: fd table full");
  conn->send(net::Message{
      net::AnnounceMsg{opts_.id, ctx_.swarm_name, listener_.port()}});
  tracker_ = conn.get();
  conns_[tracker_] = std::move(conn);
}

// --- Engine outputs -------------------------------------------------------

void PeerNode::send(net::PeerId to, net::Message m) {
  const auto it = neighbors_.find(to);
  if (it != neighbors_.end()) it->second->send(m);
}

void PeerNode::arm_watchdog(net::TxId tx) {
  Reactor::TimerId& timer = watchdogs_[tx];
  reactor_.cancel(timer);
  timer = reactor_.schedule(opts_.watchdog_seconds, [this, tx] {
    watchdogs_.erase(tx);
    node_.on_watchdog(tx);
    after_input();
  });
}

void PeerNode::cancel_watchdog(net::TxId tx) {
  const auto it = watchdogs_.find(tx);
  if (it == watchdogs_.end()) return;
  reactor_.cancel(it->second);
  watchdogs_.erase(it);
}

void PeerNode::emit(const obs::TraceEvent& e) { ctx_.emit(e); }

void PeerNode::count(const char* name) {
  if (ctx_.trace != nullptr) ctx_.trace->registry().counter(name).inc();
}

// --- Timers ---------------------------------------------------------------

void PeerNode::after_input() {
  // A zero delay fires on the next loop turn, after every input this turn
  // dispatched; the destructor cancels it.
  if (advance_timer_ != 0) return;
  advance_timer_ = reactor_.schedule(0.0, [this] {
    advance_timer_ = 0;
    node_.advance();
    if (finish_t_ < 0 && !opts_.seeder && node_.complete()) {
      finish_t_ = reactor_.now();
      if (opts_.on_complete) opts_.on_complete(opts_.id);
    }
    const std::size_t open = node_.open_donor_txs();
    if (open == 0 && open_txs_ != 0 && opts_.on_settled) {
      opts_.on_settled(opts_.id);
    }
    open_txs_ = open;
  });
}

// --- Connections ----------------------------------------------------------

void PeerNode::on_readable(bool hangup) {
  (void)hangup;
  bool accepted = false;
  while (const auto fd = listener_.accept()) {
    auto conn = std::make_unique<FrameConn>(reactor_, *fd, this);
    FrameConn* raw = conn.get();
    conns_[raw] = std::move(conn);
    count("rt.conns_accepted");
    accepted = true;
  }
  if (accepted) fd_retry_.reset();
  if (!listener_.fd_table_full()) return;
  count("rt.accept_emfile");
  // The queued connections bring no new edge: look again once fds may be
  // free, backing off while the table stays full.
  fd_retry_.arm();
}

void PeerNode::retry_fd_work() {
  if (listener_.fd_table_full()) on_readable(false);
  // Re-dial skipped endpoints in id order, up to the first that finds the
  // table still full (maybe_dial keeps it and the rest, and re-arms).
  while (!skipped_dials_.empty()) {
    const auto [peer, port] = *skipped_dials_.begin();
    skipped_dials_.erase(skipped_dials_.begin());
    if (!maybe_dial(peer, port)) break;
  }
}

bool PeerNode::maybe_dial(net::PeerId peer, std::uint16_t port) {
  // Dial discipline: the higher id dials, so each pair keeps exactly one
  // connection (no simultaneous-open dedup needed). This also skips our
  // own id and kNoPeer.
  if (peer >= opts_.id) return true;
  if (neighbors_.count(peer) != 0 || dialing_.count(peer) != 0) return true;
  auto conn = FrameConn::dial(reactor_, "127.0.0.1", port, this);
  if (conn == nullptr) {
    // A full fd table skips this endpoint for now: the tracker link stays,
    // so the rest of the list and later pushes are still dialed, and the
    // endpoint is dialed again on the retry timer.
    count("rt.dial_emfile");
    skipped_dials_[peer] = port;
    fd_retry_.arm();
    return false;
  }
  fd_retry_.reset();
  conn->peer = peer;
  conns_[conn.get()] = std::move(conn);
  dialing_.insert(peer);
  count("rt.dials");
  return true;
}

void PeerNode::on_conn_open(FrameConn& c) {
  if (&c == tracker_) return;  // announce already queued
  c.send(net::Message{net::HandshakeMsg{opts_.id, ctx_.swarm_name}});
}

void PeerNode::on_conn_closed(FrameConn& c) {
  if (&c == tracker_) tracker_ = nullptr;
  if (c.peer != net::kNoPeer) {
    dialing_.erase(c.peer);
    const auto it = neighbors_.find(c.peer);
    if (it != neighbors_.end() && it->second == &c) {
      neighbors_.erase(it);
      node_.on_neighbor_down(c.peer);
      after_input();
    }
  }
  reactor_.post([this, conn = &c] { conns_.erase(conn); });
}

void PeerNode::on_message(FrameConn& c, net::Message m) {
  if (const auto* hs = std::get_if<net::HandshakeMsg>(&m)) {
    handle_handshake(c, *hs);
    return;
  }
  if (const auto* pl = std::get_if<net::PeerListMsg>(&m)) {
    if (&c != tracker_) return;  // only the tracker names peers to dial
    for (const net::PeerEndpoint& ep : pl->peers) maybe_dial(ep.peer, ep.port);
    return;
  }
  // Everything else is protocol traffic from an identified neighbour.
  const auto it = neighbors_.find(c.peer);
  if (it == neighbors_.end() || it->second != &c) return;
  node_.on_message(c.peer, std::move(m));
  after_input();
}

void PeerNode::handle_handshake(FrameConn& c, const net::HandshakeMsg& m) {
  if (m.peer == net::kNoPeer || m.swarm != ctx_.swarm_name) return;
  c.peer = m.peer;
  dialing_.erase(m.peer);
  if (!c.dialed()) {
    c.send(net::Message{net::HandshakeMsg{opts_.id, ctx_.swarm_name}});
  }
  neighbors_[m.peer] = &c;
  node_.on_neighbor_up(m.peer);
  after_input();
}

}  // namespace tc::rt
