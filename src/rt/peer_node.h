// A live T-Chain peer: the socket shell around one core::Node. The engine
// holds all protocol state and decides; this shell does the IO work — the
// listener, the one tracker announce, dial discipline, the FrameConn per
// neighbour, and the per-transaction watchdog timers. The tracker's peer
// lists (the announce reply, then one push per later joiner) are the only
// dial trigger. The shell handles handshakes itself and hands every other
// message from an identified neighbour to the engine; a reactor turn that
// fed the engine any input is followed by one Node::advance().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "src/core/node.h"
#include "src/net/message.h"
#include "src/rt/frame_conn.h"
#include "src/rt/reactor.h"
#include "src/rt/swarm_context.h"

namespace tc::rt {

class PeerNode : public Reactor::Handler,
                 public FrameConn::Delegate,
                 private core::Node::Effects {
 public:
  struct Options : core::Node::Options {
    std::uint16_t tracker_port = 0;
    // Donor-side per-transaction watchdog: a receipt not in by then makes
    // the engine reassign the payee or settle gratis.
    double watchdog_seconds = 0.2;
    std::function<void(net::PeerId)> on_complete;  // fires once at 100%
    // Fires whenever an input settles the node's last open donor
    // transaction.
    std::function<void(net::PeerId)> on_settled;
  };

  PeerNode(SwarmContext& ctx, const Options& opts);
  ~PeerNode() override;

  PeerNode(const PeerNode&) = delete;
  PeerNode& operator=(const PeerNode&) = delete;

  // Joins the swarm: emits kPeerJoin and announces to the tracker.
  void start();

  net::PeerId id() const { return opts_.id; }
  bool seeder() const { return opts_.seeder; }
  std::uint16_t port() const { return listener_.port(); }
  bool complete() const { return node_.complete(); }
  double finish_time() const { return finish_t_; }  // -1 until complete
  // Donor transactions still awaiting settlement (drain gauge for clean
  // shutdown).
  std::size_t open_donor_txs() const { return node_.open_donor_txs(); }

  // Reactor::Handler — the listening socket. A full fd table leaves
  // connections queued; they are retried on the backoff timer.
  void on_readable(bool hangup) override;

  // FrameConn::Delegate.
  void on_conn_open(FrameConn& c) override;
  void on_message(FrameConn& c, net::Message m) override;
  void on_conn_closed(FrameConn& c) override;

 private:
  // core::Node::Effects.
  void send(net::PeerId to, net::Message m) override;
  void arm_watchdog(net::TxId tx) override;
  void cancel_watchdog(net::TxId tx) override;
  void emit(const obs::TraceEvent& e) override;
  void count(const char* name) override;

  // Runs after every engine input. Schedules the loop turn's one
  // Node::advance(), then reports completion and settlement.
  void after_input();
  // Dials `peer` if dial discipline says so. False only when a full fd
  // table skipped the dial; the endpoint then waits in skipped_dials_.
  bool maybe_dial(net::PeerId peer, std::uint16_t port);
  // The backoff timer's work: the accept loop a full fd table stopped,
  // then the skipped dials.
  void retry_fd_work();
  void handle_handshake(FrameConn& c, const net::HandshakeMsg& m);

  SwarmContext& ctx_;
  Reactor& reactor_;
  Options opts_;
  Listener listener_;

  std::map<FrameConn*, std::unique_ptr<FrameConn>> conns_;
  FrameConn* tracker_ = nullptr;
  std::map<net::PeerId, FrameConn*> neighbors_;  // handshake completed
  std::set<net::PeerId> dialing_;
  // Endpoints a full fd table kept us from dialing: the tracker names each
  // peer once, so they are re-dialed on fd_retry_.
  std::map<net::PeerId, std::uint16_t> skipped_dials_;
  std::map<net::TxId, Reactor::TimerId> watchdogs_;

  Reactor::TimerId advance_timer_ = 0;  // 0: no advance() scheduled
  RetryTimer fd_retry_;  // accept loop and skipped dials
  double finish_t_ = -1.0;
  std::size_t open_txs_ = 0;  // node_.open_donor_txs() after the last advance
  core::Node node_;
};

}  // namespace tc::rt
