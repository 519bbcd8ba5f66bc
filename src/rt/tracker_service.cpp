#include "src/rt/tracker_service.h"

#include <algorithm>
#include <utility>
#include <variant>
#include <vector>

namespace tc::rt {

TrackerService::TrackerService(Reactor& reactor, const Options& opts)
    : reactor_(reactor),
      opts_(opts),
      listener_(opts.port),
      tracker_(opts.list_size),
      rng_(opts.seed) {
  reactor_.add(listener_.fd(), this);
  arm_prune_timer();
}

TrackerService::~TrackerService() {
  reactor_.cancel(prune_timer_);
  reactor_.remove(listener_.fd());
}

void TrackerService::arm_prune_timer() {
  prune_timer_ = reactor_.schedule(opts_.prune_window / 2, [this] {
    const auto stale = tracker_.prune(reactor_.now(), opts_.prune_window);
    for (const net::PeerId p : stale) ports_.erase(p);
    arm_prune_timer();
  });
}

void TrackerService::on_readable() {
  while (const auto fd = listener_.accept()) {
    auto conn = std::make_unique<FrameConn>(reactor_, *fd, this);
    FrameConn* raw = conn.get();
    conns_[raw] = std::move(conn);
  }
}

void TrackerService::on_message(FrameConn& c, net::Message m) {
  const auto* ann = std::get_if<net::AnnounceMsg>(&m);
  if (ann == nullptr) return;  // tracker speaks announce/peer-list only
  if (ann->event == net::kAnnounceDepart) {
    tracker_.depart(ann->peer);
    ports_.erase(ann->peer);
    return;
  }
  tracker_.announce(ann->peer, reactor_.now());
  ports_[ann->peer] = ann->port;
  c.peer = ann->peer;

  auto ids = tracker_.neighbor_list(
      ann->peer, rng_, std::max(opts_.list_size, tracker_.size()));
  std::sort(ids.begin(), ids.end());
  net::PeerListMsg reply;
  reply.peers.reserve(ids.size());
  for (const net::PeerId id : ids) {
    const auto it = ports_.find(id);
    if (it == ports_.end()) continue;  // announced via legacy path, no port
    reply.peers.push_back(net::PeerEndpoint{id, it->second});
  }
  c.send(net::Message{std::move(reply)});
}

void TrackerService::on_conn_closed(FrameConn& c) {
  // A vanished connection is not a depart: the peer ages out via prune if
  // it never reconnects, and re-announce is idempotent if it does.
  reactor_.post([this, conn = &c] { conns_.erase(conn); });
}

}  // namespace tc::rt
