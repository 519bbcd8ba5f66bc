#include "src/rt/tracker_service.h"

#include <utility>
#include <variant>

namespace tc::rt {

TrackerService::TrackerService(Reactor& reactor, const Options& opts)
    : reactor_(reactor),
      listener_(opts.port),
      accept_retry_(reactor, [this] { on_readable(false); }) {
  reactor_.add(listener_.fd(), this);
}

TrackerService::~TrackerService() { reactor_.remove(listener_.fd()); }

void TrackerService::on_readable(bool hangup) {
  (void)hangup;
  bool accepted = false;
  while (const auto fd = listener_.accept()) {
    auto conn = std::make_unique<FrameConn>(reactor_, *fd, this);
    FrameConn* raw = conn.get();
    conns_[raw] = std::move(conn);
    accepted = true;
  }
  if (accepted) accept_retry_.reset();
  if (!listener_.fd_table_full()) return;
  ++accept_emfile_;
  // The queued connections bring no new edge: look again once fds may be
  // free, backing off while the table stays full.
  accept_retry_.arm();
}

void TrackerService::on_message(FrameConn& c, net::Message m) {
  const auto* ann = std::get_if<net::AnnounceMsg>(&m);
  // The tracker speaks announce/peer-list only, once per connection.
  if (ann == nullptr || ann->peer == net::kNoPeer || c.peer != net::kNoPeer)
    return;
  const net::PeerEndpoint joiner{ann->peer, ann->port};
  c.peer = joiner.peer;

  net::PeerListMsg reply;
  reply.peers.reserve(members_.size());
  for (const auto& [id, member] : members_) {
    if (id == joiner.peer) continue;
    reply.peers.push_back(net::PeerEndpoint{id, member.port});
    member.conn->send(net::Message{net::PeerListMsg{{joiner}}});
  }
  c.send(net::Message{std::move(reply)});
  members_[joiner.peer] = Member{&c, joiner.port};
}

void TrackerService::on_conn_closed(FrameConn& c) {
  const auto it = members_.find(c.peer);
  if (it != members_.end() && it->second.conn == &c) members_.erase(it);
  reactor_.post([this, conn = &c] { conns_.erase(conn); });
}

}  // namespace tc::rt
