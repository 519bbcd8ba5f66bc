// The live runtime's socket layer. FrameConn is a non-blocking framed
// connection on a Reactor: incremental frame parsing on the read side
// (edge-triggered reads through one shared 64 KiB buffer into an inbox;
// a short read counts as drained unless the event carried a hang-up bit,
// and frames decode in place from the inbox), buffered partial writes on
// the send side (messages encode straight into an outbox flushed on
// EPOLLOUT), and asynchronous dialing (connect() in progress resolves via
// writability + SO_ERROR). Listener is the accepting end.
//
// Wire format: each frame is a 4-byte big-endian length prefix followed by
// that many bytes of net::encode_message output.
//
// A FrameConn delivers whole decoded net::Message values to its Delegate;
// wire errors — truncated stream, oversized length prefix, undecodable
// frame, a message the delegate rejects, connection reset — all funnel
// into a single on_conn_closed notification, after which the connection
// is defunct. The delegate owns the FrameConn and should destroy it from a
// posted callback, never from inside its own notification.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/net/message.h"
#include "src/rt/reactor.h"
#include "src/util/bytes.h"

namespace tc::rt {

// Upper bound on a frame body, so a corrupt length prefix cannot trigger a
// multi-gigabyte allocation: a larger prefix closes the connection.
inline constexpr std::uint32_t kMaxFrame = 64u * 1024 * 1024;
// Bytes one read() asks for; a read that returns fewer drained the socket.
inline constexpr std::size_t kReadChunk = 64 * 1024;

class FrameConn : public Reactor::Handler {
 public:
  class Delegate {
   public:
    virtual ~Delegate() = default;
    // A dialed connection finished its handshake (accepted connections are
    // open from construction and do not get this callback).
    virtual void on_conn_open(FrameConn& c) { (void)c; }
    // May throw std::exception to reject a malformed message: the
    // connection then closes like on any other wire error.
    virtual void on_message(FrameConn& c, net::Message m) = 0;
    // Peer closed, wire error, or malformed frame. Fired at most once,
    // always from a posted reactor callback (never re-entrantly from
    // send()); the connection is already detached from the reactor.
    virtual void on_conn_closed(FrameConn& c) = 0;
  };

  // Adopts a connected, non-blocking stream socket (Listener::accept's
  // result); the fd is closed with the connection.
  FrameConn(Reactor& reactor, int fd, Delegate* delegate);
  ~FrameConn() override;

  FrameConn(const FrameConn&) = delete;
  FrameConn& operator=(const FrameConn&) = delete;

  // Asynchronous connect to 127.0.0.1-style hosts; on_conn_open (or
  // on_conn_closed) fires from the reactor once the handshake resolves.
  // Null when the fd table is full (EMFILE/ENFILE); throws
  // std::runtime_error on any other setup failure.
  static std::unique_ptr<FrameConn> dial(Reactor& reactor,
                                         const std::string& host,
                                         std::uint16_t port,
                                         Delegate* delegate);

  // Queues one message and writes what the socket accepts; unsent bytes
  // drain on writability. Dropped silently if the connection is already
  // closed (the delegate saw or will see on_conn_closed).
  void send(const net::Message& m);

  bool is_open() const { return fd_ >= 0; }
  bool dialed() const { return dialed_; }

  // Owner-assigned identity of the remote peer (kNoPeer until known).
  net::PeerId peer = net::kNoPeer;

  void on_readable(bool hangup) override;
  void on_writable() override;
  void on_error() override;

 private:
  void fail();
  // Writes the outbox until it is empty or the socket refuses more.
  void flush();
  // Extracts complete frames from inbox_; returns false if the connection
  // died while parsing (delegate closed it or a frame was malformed).
  bool parse_frames();

  Reactor& reactor_;
  int fd_;
  Delegate* delegate_;
  bool dialed_ = false;
  bool connecting_ = false;
  bool closed_notified_ = false;
  util::Bytes inbox_;
  std::size_t inbox_off_ = 0;
  // Unsent bytes (prefix+payload concatenation); outbox_off_ marks the
  // consumed prefix so flushing is O(written), not O(queue).
  util::Bytes outbox_;
  std::size_t outbox_off_ = 0;
};

// Non-blocking listening socket on 127.0.0.1, registered with a Reactor by
// its owner.
class Listener {
 public:
  // Port 0 picks an ephemeral port. SO_REUSEADDR is set before bind so a
  // rebind inside TIME_WAIT succeeds. Throws std::runtime_error (and
  // leaks no fd) when the socket cannot be set up.
  explicit Listener(std::uint16_t port);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_; }

  // The next pending connection as a non-blocking TCP_NODELAY fd, or
  // nullopt when none is pending or the fd table is full (EMFILE/ENFILE).
  std::optional<int> accept();
  // The last accept() stopped on a full fd table. The connections it left
  // queued bring no new edge: the owner retries once fds may be free.
  bool fd_table_full() const { return fd_table_full_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  bool fd_table_full_ = false;
};

}  // namespace tc::rt
