// TrackerService over real sockets: membership is the announce
// connection. An announce is answered with the other members, a later
// joiner is pushed to earlier members without any re-announce, and a
// closed connection leaves the membership. A full fd table defers
// accepting instead of ending the process, and a PeerNode that cannot
// dial a listed peer keeps its tracker connection.
#include "src/rt/tracker_service.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <functional>
#include <memory>
#include <vector>

#include "src/rt/peer_node.h"
#include "src/rt/swarm_context.h"

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

// UBSan's vptr check reads an unseen (dynamic type, static type) pair's
// vtable through a pipe, which a full fd table refuses: a false "invalid
// vptr". So each fd-limit child first caches the pairs it uses, while fds
// are free: an announce and its reply, and a PeerNode that starts and dials.
void warm_up_vptr_checks() {
  Reactor reactor;
  SwarmContext ctx(reactor, nullptr, core::SwarmFileMeta::make(4, 1024, 1),
                   "t");
  TrackerService tracker(reactor, TrackerService::Options{});
  Listener sink(0);  // the client's endpoint, dialed by the node
  Client client(2, sink.port());
  const auto conn =
      FrameConn::dial(reactor, "127.0.0.1", tracker.port(), &client);
  PeerNode::Options opts;
  opts.id = 100;
  opts.tracker_port = tracker.port();
  PeerNode node(ctx, opts);
  node.start();
  reactor.schedule(0.1, [&reactor] { reactor.stop(); });
  reactor.run();
}

// Runs in a forked child, which alone sees the lowered fd limit; returns
// its exit code. Blocking clients dial the tracker until socket() fails
// with EMFILE, so their connections queue with no fd left to accept
// them. Freeing two spare fds must then let the retry accept the first
// queued client and answer its announce.
int accept_past_fd_limit() {
  Reactor reactor;
  TrackerService tracker(reactor, TrackerService::Options{});
  const auto run_for = [&reactor](double seconds) {
    reactor.schedule(seconds, [&reactor] { reactor.stop(); });
    reactor.run();
  };

  const int lowest_free = ::dup(0);
  if (lowest_free < 0) return 10;
  ::close(lowest_free);
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 10;
  lim.rlim_cur = static_cast<rlim_t>(lowest_free) + 16;
  if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) return 10;
  std::vector<int> spare;
  for (int i = 0; i < 2; ++i) {
    spare.push_back(::dup(0));
    if (spare.back() < 0) return 11;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(tracker.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const util::Bytes body = net::encode_message(
      net::Message{net::AnnounceMsg{1, "t", 1001}});
  util::Bytes frame{0, 0, 0, static_cast<std::uint8_t>(body.size())};
  frame.insert(frame.end(), body.begin(), body.end());
  std::vector<int> clients;
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      if (errno != EMFILE) return 12;
      break;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0 ||
        ::write(fd, frame.data(), frame.size()) !=
            static_cast<ssize_t>(frame.size())) {
      return 12;
    }
    clients.push_back(fd);
  }
  if (clients.empty()) return 13;

  run_for(0.05);
  if (tracker.accept_emfile() == 0) return 14;

  for (const int fd : spare) ::close(fd);
  run_for(0.05);
  // The first queued client is accepted first. Every client announced the
  // same id, so its reply is an empty peer list and no push follows.
  const timeval timeout{2, 0};
  ::setsockopt(clients[0], SOL_SOCKET, SO_RCVTIMEO, &timeout,
               sizeof(timeout));
  std::uint8_t reply[64];
  const ssize_t n = ::read(clients[0], reply, sizeof(reply));
  if (n < 4 || reply[3] != n - 4) return 15;
  const net::Message m =
      net::decode_message(reply + 4, static_cast<std::size_t>(n - 4));
  if (m != net::Message{net::PeerListMsg{}}) return 16;
  return 0;
}

// Runs `body` in a forked child and expects it to exit 0.
void expect_child_passes(int (*body)()) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    warm_up_vptr_checks();
    ::_exit(body());
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "child killed by signal "
                                 << WTERMSIG(status);
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(TrackerService, FullFdTableDefersAcceptInsteadOfExiting) {
  expect_child_passes(accept_past_fd_limit);
}

// Runs in a forked child, which alone sees the lowered fd limit; returns
// its exit code. Peer 100's announce reply names 16 lower-id endpoints
// (listeners that never answer, so every dial holds its fd), more than its
// fd table has room for. The dials past the limit are skipped and counted;
// the tracker link stays. Once the soft limit is raised back, the retry
// timer dials the skipped endpoints (the last, 17, is a listener the test
// accepts from), and peer 100 still dials joiner 1, pushed to it later.
int dial_past_fd_limit() {
  Reactor reactor;
  obs::Trace trace(obs::TraceConfig{});
  SwarmContext ctx(reactor, &trace, core::SwarmFileMeta::make(4, 1024, 1),
                   "t");
  const auto counter = [&trace](const char* name) {
    return trace.registry().counter(name).value();
  };
  const auto run_for = [&reactor](double seconds) {
    reactor.schedule(seconds, [&reactor] { reactor.stop(); });
    reactor.run();
  };
  // Runs the reactor in 10 ms slices until `done`, for at most 2 s.
  const auto run_until = [&run_for](const std::function<bool()>& done) {
    for (int i = 0; i < 200 && !done(); ++i) run_for(0.01);
    return done();
  };

  const int lowest_free = ::dup(0);
  if (lowest_free < 0) return 10;
  ::close(lowest_free);
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 10;
  const rlimit original = lim;
  lim.rlim_cur = static_cast<rlim_t>(lowest_free) + 48;
  if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) return 10;

  TrackerService tracker(reactor, TrackerService::Options{});
  Listener sink(0);  // never accepts: dialed connections wait in its queue
  Listener last(0);  // endpoint 17: accepted by hand below
  const auto make_peer = [&](net::PeerId id) {
    PeerNode::Options opts;
    opts.id = id;
    opts.tracker_port = tracker.port();
    opts.seed = id;
    return std::make_unique<PeerNode>(ctx, opts);
  };
  auto dialer = make_peer(100);
  auto joiner = make_peer(1);
  std::vector<int> spare;  // held to the end: fills the table
  for (int i = 0; i < 8; ++i) {
    spare.push_back(::dup(0));
    if (spare.back() < 0) return 11;
  }

  std::vector<std::unique_ptr<Client>> fakes;
  std::vector<std::unique_ptr<FrameConn>> fake_conns;
  for (net::PeerId id = 2; id < 18; ++id) {
    fakes.push_back(std::make_unique<Client>(
        id, id == 17 ? last.port() : sink.port()));
    fake_conns.push_back(FrameConn::dial(reactor, "127.0.0.1",
                                         tracker.port(), fakes.back().get()));
    if (fake_conns.back() == nullptr) return 12;
  }
  run_for(0.05);  // the tracker takes every announce
  dialer->start();
  if (!run_until([&] { return counter("rt.dial_emfile") > 0; })) return 13;
  run_for(0.05);  // retries find the table still full
  if (counter("rt.dials") >= 16) return 14;

  if (::setrlimit(RLIMIT_NOFILE, &original) != 0) return 10;
  bool linked = false;  // run_until polls once more after its last slice
  const auto last_dialed = [&] {
    if (!linked) linked = last.accept().has_value();
    return linked;
  };
  if (!run_until(last_dialed)) return 15;

  joiner->start();
  if (!run_until([&] { return counter("rt.conns_accepted") > 0; })) return 16;
  return 0;
}

TEST(PeerNode, FullFdTableSkipsADialButKeepsTheTrackerLink) {
  expect_child_passes(dial_past_fd_limit);
}

}  // namespace
}  // namespace tc::rt
