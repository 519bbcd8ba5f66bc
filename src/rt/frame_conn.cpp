#include "src/rt/frame_conn.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace tc::rt {

namespace {

[[noreturn]] void throw_errno(const std::string& what, int err) {
  throw std::runtime_error(what + ": " + std::strerror(err));
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

FrameConn::FrameConn(Reactor& reactor, int fd, Delegate* delegate)
    : reactor_(reactor), fd_(fd), delegate_(delegate) {
  try {
    reactor_.add(fd_, this);
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

FrameConn::~FrameConn() {
  if (fd_ >= 0) {
    reactor_.remove(fd_);
    ::close(fd_);
  }
}

std::unique_ptr<FrameConn> FrameConn::dial(Reactor& reactor,
                                           const std::string& host,
                                           std::uint16_t port,
                                           Delegate* delegate) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    if (errno == EMFILE || errno == ENFILE) return nullptr;
    throw_errno("dial: socket", errno);
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("dial: bad address: " + host);
  }

  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    const int err = errno;
    ::close(fd);
    throw_errno("dial: connect", err);
  }

  auto conn = std::make_unique<FrameConn>(reactor, fd, delegate);
  conn->dialed_ = true;
  // Even when connect() succeeded synchronously (possible on loopback),
  // resolve through the initial EPOLLOUT edge so on_conn_open is always
  // delivered from the reactor, never from inside dial().
  conn->connecting_ = true;
  return conn;
}

void FrameConn::send(const net::Message& m) {
  if (closed_notified_ || fd_ < 0) return;
  // Encode behind a 4-byte prefix slot, then patch the length in.
  const std::size_t start = outbox_.size();
  outbox_.resize(start + 4);
  net::encode_message_to(m, outbox_);
  const std::size_t len = outbox_.size() - start - 4;
  if (len > kMaxFrame) {
    outbox_.resize(start);
    fail();
    return;
  }
  for (int i = 0; i < 4; ++i)
    outbox_[start + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (24 - 8 * i));
  // While still connecting, the kernel reports EAGAIN and the bytes stay
  // in the outbox; the post-connect EPOLLOUT edge flushes them.
  flush();
}

void FrameConn::flush() {
  while (outbox_off_ < outbox_.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-frame must come back as EPIPE
    // (and close this connection), not as a process-killing SIGPIPE.
    const ssize_t n = ::send(fd_, outbox_.data() + outbox_off_,
                             outbox_.size() - outbox_off_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      fail();
      return;
    }
    outbox_off_ += static_cast<std::size_t>(n);
  }
  if (outbox_off_ == outbox_.size()) {
    outbox_.clear();
    outbox_off_ = 0;
  } else if (outbox_off_ >= 64 * 1024 && outbox_off_ * 2 >= outbox_.size()) {
    // Reclaim the consumed prefix once it dominates the buffer.
    outbox_.erase(outbox_.begin(),
                  outbox_.begin() + static_cast<std::ptrdiff_t>(outbox_off_));
    outbox_off_ = 0;
  }
}

void FrameConn::on_writable() {
  if (closed_notified_ || fd_ < 0) return;
  if (connecting_) {
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      fail();
      return;
    }
    connecting_ = false;
    set_nodelay(fd_);
    delegate_->on_conn_open(*this);
    if (closed_notified_ || fd_ < 0) return;
  }
  flush();
}

void FrameConn::on_readable(bool hangup) {
  if (closed_notified_ || fd_ < 0) return;
  // Not zero-filled, and shared by every connection: the reactor is
  // single-threaded, and inbox_ takes only the bytes each read returned.
  std::uint8_t buf[kReadChunk];
  bool eof = false;
  for (;;) {
    const ssize_t n = ::read(fd_, buf, kReadChunk);
    if (n > 0) {
      inbox_.insert(inbox_.end(), buf, buf + n);
      // A short read drained the socket: the next byte brings a new edge.
      // After a hang-up no edge follows, so read on to the EOF.
      if (static_cast<std::size_t>(n) < kReadChunk && !hangup) break;
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    fail();
    return;
  }
  if (!parse_frames()) return;
  if (eof) fail();
}

void FrameConn::on_error() {
  if (closed_notified_) return;
  fail();
}

bool FrameConn::parse_frames() {
  for (;;) {
    const std::size_t avail = inbox_.size() - inbox_off_;
    if (avail < 4) break;
    const std::uint8_t* p = inbox_.data() + inbox_off_;
    const std::uint32_t len = (static_cast<std::uint32_t>(p[0]) << 24) |
                              (static_cast<std::uint32_t>(p[1]) << 16) |
                              (static_cast<std::uint32_t>(p[2]) << 8) |
                              static_cast<std::uint32_t>(p[3]);
    if (len > kMaxFrame) {
      fail();
      return false;
    }
    if (avail < 4 + static_cast<std::size_t>(len)) break;
    inbox_off_ += 4 + static_cast<std::size_t>(len);
    try {
      // Decoded straight from inbox_; the message owns copies of its blobs.
      delegate_->on_message(*this, net::decode_message(p + 4, len));
    } catch (const std::exception&) {
      fail();
      return false;
    }
    if (closed_notified_ || fd_ < 0) return false;
  }
  if (inbox_off_ == inbox_.size()) {
    inbox_.clear();
    inbox_off_ = 0;
  } else if (inbox_off_ > kReadChunk && inbox_off_ * 2 >= inbox_.size()) {
    // Compact the consumed prefix once it dominates the buffer.
    inbox_.erase(inbox_.begin(),
                 inbox_.begin() + static_cast<std::ptrdiff_t>(inbox_off_));
    inbox_off_ = 0;
  }
  return true;
}

void FrameConn::fail() {
  if (closed_notified_) return;
  closed_notified_ = true;
  if (fd_ >= 0) {
    reactor_.remove(fd_);
    ::close(fd_);
    fd_ = -1;
  }
  // Deferred: fail() can fire from inside send() while the delegate is
  // mid-handler; notifying synchronously would let the delegate mutate
  // state (e.g. erase a neighbor) under its caller's feet.
  reactor_.post([this] { delegate_->on_conn_closed(*this); });
}

Listener::Listener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd_ < 0) throw_errno("listener: socket", errno);
  // A throwing constructor never runs the destructor: close the fd on every
  // failure path here.
  const auto fail = [this](const char* what) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw_errno(std::string("listener: ") + what, err);
  };
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    fail("bind");
  if (::listen(fd_, 64) != 0) fail("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    fail("getsockname");
  port_ = ntohs(addr.sin_port);
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<int> Listener::accept() {
  fd_table_full_ = false;
  for (;;) {
    const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd >= 0) {
      set_nodelay(fd);
      return fd;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
    if (errno == EMFILE || errno == ENFILE) {
      fd_table_full_ = true;
      return std::nullopt;
    }
    throw_errno("accept", errno);
  }
}

}  // namespace tc::rt
