// FrameConn and Listener against real sockets: every wire error — an
// oversized length prefix, a truncated body, EOF inside a prefix, a send
// to a vanished peer — must close the connection through on_conn_closed
// (never crash, allocate for a bogus prefix, or raise SIGPIPE), while
// legal traffic, up to a kMaxFrame-sized prefix, passes.
#include "src/rt/frame_conn.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "tests/net/sample_messages.h"

namespace tc::rt {
namespace {

util::Bytes frame_bytes(std::uint32_t len, const util::Bytes& body) {
  util::Bytes wire;
  wire.reserve(4 + body.size());
  for (int shift = 24; shift >= 0; shift -= 8)
    wire.push_back(static_cast<std::uint8_t>(len >> shift));
  wire.insert(wire.end(), body.begin(), body.end());
  return wire;
}

// Records what a connection delivers; stops the reactor when it closes,
// or once `stop_after` messages are in (0: never).
class Recorder : public FrameConn::Delegate {
 public:
  explicit Recorder(Reactor& r) : reactor_(r) {}
  void on_message(FrameConn& c, net::Message m) override {
    (void)c;
    messages.push_back(std::move(m));
    if (messages.size() == stop_after) reactor_.stop();
  }
  void on_conn_closed(FrameConn& c) override {
    (void)c;
    closed = true;
    reactor_.stop();
  }
  std::vector<net::Message> messages;
  bool closed = false;
  std::size_t stop_after = 0;

 protected:
  Reactor& reactor_;
};

// A FrameConn over one end of a socketpair; the test writes raw bytes
// into (and closes) the other end.
struct RawPair {
  Reactor reactor;
  Recorder delegate{reactor};
  int raw = -1;
  std::unique_ptr<FrameConn> conn;

  RawPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
    raw = fds[1];
    conn = std::make_unique<FrameConn>(reactor, fds[0], &delegate);
  }
  ~RawPair() { close_raw(); }

  void write_raw(const util::Bytes& wire) {
    ASSERT_EQ(::write(raw, wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
  }
  // Everything the connection has written so far.
  util::Bytes read_raw() {
    util::Bytes out;
    std::uint8_t buf[4096];
    ssize_t n;
    while ((n = ::read(raw, buf, sizeof(buf))) > 0)
      out.insert(out.end(), buf, buf + n);
    return out;
  }
  void close_raw() {
    if (raw >= 0) ::close(raw);
    raw = -1;
  }
  // Runs until the connection closes or `seconds` pass.
  void run(double seconds) {
    reactor.schedule(seconds, [this] { reactor.stop(); });
    reactor.run();
  }
};

const util::Bytes kHaveBody =
    net::encode_message(net::Message{net::HaveMsg{3}});

TEST(FrameConn, OversizedLengthPrefixClosesWithoutWaitingForBody) {
  // The writer stays open: the close must come from the size check, before
  // any buffer of that size exists, not from EOF.
  for (const std::uint32_t len : {kMaxFrame + 1, 0xffffffffu}) {
    RawPair p;
    p.write_raw(frame_bytes(len, {}));
    p.run(5.0);
    EXPECT_TRUE(p.delegate.closed) << len;
    EXPECT_FALSE(p.conn->is_open()) << len;
  }
}

TEST(FrameConn, FrameAtExactCapIsNotRejectedForSize) {
  RawPair p;
  p.write_raw(frame_bytes(kMaxFrame, {0x01}));
  p.run(0.2);
  // Still waiting for the rest of the body.
  EXPECT_FALSE(p.delegate.closed);
  EXPECT_TRUE(p.conn->is_open());
}

TEST(FrameConn, TruncatedStreamCloses) {
  struct Case {
    const char* name;
    util::Bytes tail;  // written after one whole frame, then EOF
  };
  const Case cases[] = {
      {"truncated body",
       frame_bytes(static_cast<std::uint32_t>(kHaveBody.size() + 10),
                   kHaveBody)},
      {"EOF mid-prefix", {0x00, 0x00}},
  };
  for (const Case& c : cases) {
    RawPair p;
    util::Bytes wire = frame_bytes(
        static_cast<std::uint32_t>(kHaveBody.size()), kHaveBody);
    wire.insert(wire.end(), c.tail.begin(), c.tail.end());
    p.write_raw(wire);
    p.close_raw();
    p.run(5.0);
    EXPECT_TRUE(p.delegate.closed) << c.name;
    EXPECT_EQ(p.delegate.messages.size(), 1u) << c.name;
  }
}

TEST(FrameConn, EofAtFrameBoundaryDeliversEveryFrameThenCloses) {
  RawPair p;
  const util::Bytes frame =
      frame_bytes(static_cast<std::uint32_t>(kHaveBody.size()), kHaveBody);
  p.write_raw(frame);
  p.write_raw(frame);
  p.close_raw();
  p.run(5.0);
  EXPECT_TRUE(p.delegate.closed);
  ASSERT_EQ(p.delegate.messages.size(), 2u);
  EXPECT_EQ(p.delegate.messages[1], (net::Message{net::HaveMsg{3}}));
}

TEST(FrameConn, BurstPastTwoReadChunksIsDeliveredWithoutEof) {
  // More than two full reads arrive in one burst and the writer stays
  // open: a reader that stopped after a full read would get no new edge
  // and strand the tail.
  RawPair p;
  net::EncryptedPieceMsg m;
  m.ciphertext = util::Bytes(kReadChunk / 2 + 7, 0x3c);
  util::Bytes wire;
  std::vector<net::Message> sent;
  while (wire.size() <= 2 * kReadChunk) {
    m.tx = sent.size();
    sent.push_back(net::Message{m});
    const util::Bytes body = net::encode_message(sent.back());
    const util::Bytes f =
        frame_bytes(static_cast<std::uint32_t>(body.size()), body);
    wire.insert(wire.end(), f.begin(), f.end());
  }
  p.delegate.stop_after = sent.size();
  p.write_raw(wire);
  p.run(5.0);
  EXPECT_FALSE(p.delegate.closed);
  EXPECT_EQ(p.delegate.messages, sent);
}

TEST(FrameConn, SendWritesPrefixAndEncodingOfEveryType) {
  for (const net::Message& m : net::one_of_each_type()) {
    SCOPED_TRACE(static_cast<int>(net::message_type(m)));
    RawPair p;
    p.conn->send(m);
    const util::Bytes body = net::encode_message(m);
    EXPECT_EQ(p.read_raw(),
              frame_bytes(static_cast<std::uint32_t>(body.size()), body));
  }
}

TEST(FrameConn, SendAfterPeerClosedClosesInsteadOfSigpipe) {
  // Without MSG_NOSIGNAL the write to the closed pair would raise SIGPIPE
  // and kill the test binary.
  RawPair p;
  p.close_raw();
  net::EncryptedPieceMsg m;
  m.ciphertext = util::Bytes(64 * 1024, 0xee);
  for (int i = 0; i < 4; ++i) p.conn->send(net::Message{m});
  p.run(5.0);
  EXPECT_TRUE(p.delegate.closed);
}

TEST(FrameConn, DialToBadAddressThrows) {
  Reactor reactor;
  Recorder delegate(reactor);
  EXPECT_THROW(FrameConn::dial(reactor, "not-an-ip", 1, &delegate),
               std::runtime_error);
}

// Accepts connections and answers every message with reply(message);
// by default it echoes.
class ReplyServer : public Reactor::Handler, public FrameConn::Delegate {
 public:
  explicit ReplyServer(Reactor& r) : reactor_(r) {
    reactor_.add(listener.fd(), this);
  }
  ~ReplyServer() override { reactor_.remove(listener.fd()); }
  void on_readable(bool) override {
    while (const auto fd = listener.accept()) {
      auto conn = std::make_unique<FrameConn>(reactor_, *fd, this);
      conns_[conn.get()] = std::move(conn);
    }
  }
  void on_message(FrameConn& c, net::Message m) override { c.send(reply(m)); }
  void on_conn_closed(FrameConn& c) override { (void)c; }
  Listener listener{0};
  std::function<net::Message(const net::Message&)> reply =
      [](const net::Message& m) { return m; };

 private:
  Reactor& reactor_;
  std::map<FrameConn*, std::unique_ptr<FrameConn>> conns_;
};

// Sends `out` once connected and stops the reactor after as many replies.
class Client : public Recorder {
 public:
  Client(Reactor& r, std::vector<net::Message> out)
      : Recorder(r), out(std::move(out)) {}
  void on_conn_open(FrameConn& c) override {
    for (const net::Message& m : out) c.send(m);
  }
  void on_message(FrameConn& c, net::Message m) override {
    Recorder::on_message(c, std::move(m));
    if (messages.size() == out.size()) reactor_.stop();
  }
  const std::vector<net::Message> out;
};

// Dials the server and runs until every reply is in or 10 s pass.
void exchange(Reactor& reactor, const ReplyServer& server, Client& client) {
  const auto conn =
      FrameConn::dial(reactor, "127.0.0.1", server.listener.port(), &client);
  reactor.schedule(10.0, [&] { reactor.stop(); });  // failsafe
  reactor.run();
}

net::EncryptedPieceMsg piece_of(std::size_t len) {
  net::EncryptedPieceMsg m;
  m.tx = 31337 + len;
  m.donor = 1;
  m.requestor = 2;
  m.payee = 3;
  m.piece = 4;
  m.ciphertext.resize(len);
  for (std::size_t i = 0; i < len; ++i)
    m.ciphertext[i] = static_cast<std::uint8_t>(i);
  return m;
}

TEST(FrameConn, FrameEchoOverLoopback) {
  Reactor reactor;
  ReplyServer server(reactor);
  ASSERT_GT(server.listener.port(), 0);

  // Large enough that the sends back up into the outbox, and frames of
  // many read chunks each.
  std::vector<net::Message> sent;
  for (const std::size_t len : {0u, 1u, 100u, 70000u, 1u << 20, 8u << 20})
    sent.push_back(net::Message{piece_of(len)});
  Client client(reactor, sent);
  exchange(reactor, server, client);
  EXPECT_FALSE(client.closed);
  EXPECT_EQ(client.messages, sent);
}

TEST(FrameConn, TypedMessagesOverLoopback) {
  Reactor reactor;
  ReplyServer server(reactor);
  // Bounce back a receipt for whatever encrypted piece arrives.
  server.reply = [](const net::Message& m) {
    const auto& ep = std::get<net::EncryptedPieceMsg>(m);
    net::ReceiptMsg r;
    r.reciprocated_tx = ep.tx;
    r.payee = ep.payee;
    r.requestor = ep.donor;
    r.piece = ep.piece;
    return net::Message{r};
  };

  Client client(reactor, {net::Message{piece_of(256)}});
  exchange(reactor, server, client);
  EXPECT_FALSE(client.closed);
  ASSERT_EQ(client.messages.size(), 1u);
  const auto& receipt = std::get<net::ReceiptMsg>(client.messages[0]);
  EXPECT_EQ(receipt.reciprocated_tx, 31337u + 256u);
  EXPECT_EQ(receipt.requestor, 1u);
  EXPECT_EQ(receipt.piece, 4u);
}

std::size_t open_fds() {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)e;
    ++n;
  }
  return n;
}

TEST(Listener, FailedConstructionLeaksNoFd) {
  const Listener taken(0);
  const std::size_t before = open_fds();
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW(Listener{taken.port()}, std::runtime_error);
  }
  EXPECT_EQ(open_fds(), before);
}

}  // namespace
}  // namespace tc::rt
