// Tracker hosted on the reactor: accepts peer connections, answers
// announce/renew with a randomized neighbor list (peer id + listening
// port), and prunes members that miss their re-announce window so crashed
// peers drop out of circulation (satellite of the live-runtime PR; the
// membership logic itself lives in net::Tracker).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/net/tracker.h"
#include "src/rt/frame_conn.h"
#include "src/rt/reactor.h"
#include "src/util/rng.h"

namespace tc::rt {

class TrackerService : public Reactor::Handler, public FrameConn::Delegate {
 public:
  struct Options {
    std::uint16_t port = 0;  // 0 = ephemeral
    // A peer missing re-announces for this long is pruned (its announce
    // interval is much shorter, so only dead peers age out).
    double prune_window = 2.0;
    std::size_t list_size = 64;
    std::uint64_t seed = 1;
  };

  TrackerService(Reactor& reactor, const Options& opts);
  ~TrackerService() override;

  TrackerService(const TrackerService&) = delete;
  TrackerService& operator=(const TrackerService&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  // Reactor::Handler (listening socket).
  void on_readable() override;

  // FrameConn::Delegate.
  void on_message(FrameConn& c, net::Message m) override;
  void on_conn_closed(FrameConn& c) override;

 private:
  void arm_prune_timer();

  Reactor& reactor_;
  Options opts_;
  Listener listener_;
  net::Tracker tracker_;
  // Listening ports by peer id, kept in lockstep with tracker_ membership.
  std::map<net::PeerId, std::uint16_t> ports_;
  std::map<FrameConn*, std::unique_ptr<FrameConn>> conns_;
  util::Rng rng_;
  Reactor::TimerId prune_timer_ = 0;
};

}  // namespace tc::rt
