// TrackerService over real sockets: membership is the announce
// connection. An announce is answered with the other members, a later
// joiner is pushed to earlier members without any re-announce, and a
// closed connection leaves the membership.
#include "src/rt/tracker_service.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

namespace tc::rt {
namespace {

using Endpoints = std::vector<net::PeerEndpoint>;

// A hand-driven tracker client: announces once when its dial completes and
// records every peer list it receives.
class Client : public FrameConn::Delegate {
 public:
  Client(net::PeerId id, std::uint16_t port) : id_(id), port_(port) {}
  void on_conn_open(FrameConn& c) override {
    c.send(net::Message{net::AnnounceMsg{id_, "t", port_}});
  }
  void on_message(FrameConn& c, net::Message m) override {
    (void)c;
    if (const auto* pl = std::get_if<net::PeerListMsg>(&m))
      lists.push_back(pl->peers);
    if (on_change) on_change();
  }
  void on_conn_closed(FrameConn& c) override { (void)c; }

  std::vector<Endpoints> lists;
  std::function<void()> on_change;

 private:
  net::PeerId id_;
  std::uint16_t port_;
};

TEST(TrackerService, PushesLaterJoinersToEarlierMembers) {
  Reactor reactor;
  TrackerService tracker(reactor, TrackerService::Options{});
  Client a(1, 1001);
  Client b(2, 1002);
  std::unique_ptr<FrameConn> b_conn;
  a.on_change = [&] {
    if (a.lists.size() == 1 && b_conn == nullptr)
      b_conn = FrameConn::dial(reactor, "127.0.0.1", tracker.port(), &b);
    if (a.lists.size() == 2 && b.lists.size() == 1) reactor.stop();
  };
  b.on_change = a.on_change;
  const auto a_conn =
      FrameConn::dial(reactor, "127.0.0.1", tracker.port(), &a);
  reactor.schedule(10.0, [&] { reactor.stop(); });  // failsafe
  reactor.run();

  // A's reply was empty; B arrived later as a push on the same
  // connection, with no second announce from A.
  ASSERT_EQ(a.lists.size(), 2u);
  EXPECT_TRUE(a.lists[0].empty());
  EXPECT_EQ(a.lists[1], (Endpoints{{2, 1002}}));
  ASSERT_EQ(b.lists.size(), 1u);
  EXPECT_EQ(b.lists[0], (Endpoints{{1, 1001}}));
}

TEST(TrackerService, ClosedConnectionLeavesMembership) {
  Reactor reactor;
  TrackerService tracker(reactor, TrackerService::Options{});
  Client a(1, 1001);
  Client b(2, 1002);
  Client c(3, 1003);
  auto a_conn = FrameConn::dial(reactor, "127.0.0.1", tracker.port(), &a);
  std::unique_ptr<FrameConn> b_conn;
  std::unique_ptr<FrameConn> c_conn;
  // B joins beside A; once B has its reply, A closes and C joins.
  a.on_change = [&] {
    if (b_conn == nullptr)
      b_conn = FrameConn::dial(reactor, "127.0.0.1", tracker.port(), &b);
  };
  const auto stop_when_done = [&] {
    if (b.lists.size() == 2 && c.lists.size() == 1) reactor.stop();
  };
  b.on_change = [&] {
    if (b.lists.size() == 1) {
      reactor.post([&] {
        a_conn.reset();
        c_conn = FrameConn::dial(reactor, "127.0.0.1", tracker.port(), &c);
      });
    }
    stop_when_done();
  };
  c.on_change = stop_when_done;
  reactor.schedule(10.0, [&] { reactor.stop(); });  // failsafe
  reactor.run();

  ASSERT_EQ(b.lists.size(), 2u);
  EXPECT_EQ(b.lists[0], (Endpoints{{1, 1001}}));
  EXPECT_EQ(b.lists[1], (Endpoints{{3, 1003}}));
  ASSERT_EQ(c.lists.size(), 1u);
  EXPECT_EQ(c.lists[0], (Endpoints{{2, 1002}}));
}

}  // namespace
}  // namespace tc::rt
