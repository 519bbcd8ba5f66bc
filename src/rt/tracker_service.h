// Tracker hosted on the reactor: the live swarm's rendezvous point. A peer
// is a member while its announce connection is open. An announce is
// answered with every other member's endpoint (peer id + listening port,
// sorted by id), and the newcomer's endpoint is pushed to every other
// member, so each peer learns each other peer exactly once. Closing the
// connection is the depart. Nothing is polled: there are no re-announces,
// no timers and no random sampling.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "src/net/peer_id.h"
#include "src/rt/frame_conn.h"
#include "src/rt/reactor.h"

namespace tc::rt {

class TrackerService : public Reactor::Handler, public FrameConn::Delegate {
 public:
  struct Options {
    std::uint16_t port = 0;  // 0 = ephemeral
  };

  TrackerService(Reactor& reactor, const Options& opts);
  ~TrackerService() override;

  TrackerService(const TrackerService&) = delete;
  TrackerService& operator=(const TrackerService&) = delete;

  std::uint16_t port() const { return listener_.port(); }
  // Accept loops stopped by a full fd table (EMFILE/ENFILE); each is
  // retried later, with backoff (RetryTimer).
  std::uint64_t accept_emfile() const { return accept_emfile_; }

  // Reactor::Handler (listening socket).
  void on_readable(bool hangup) override;

  // FrameConn::Delegate.
  void on_message(FrameConn& c, net::Message m) override;
  void on_conn_closed(FrameConn& c) override;

 private:
  struct Member {
    FrameConn* conn = nullptr;
    std::uint16_t port = 0;
  };

  Reactor& reactor_;
  Listener listener_;
  std::map<net::PeerId, Member> members_;  // id order is the reply order
  std::map<FrameConn*, std::unique_ptr<FrameConn>> conns_;
  RetryTimer accept_retry_;
  std::uint64_t accept_emfile_ = 0;
};

}  // namespace tc::rt
