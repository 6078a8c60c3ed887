// Minimal RAII wrappers over loopback TCP sockets.
//
// The service layer (server.hpp / client.hpp) only ever speaks over
// 127.0.0.1 — the daemon models the paper's intra-datacenter control
// plane, not an internet-facing endpoint — so these wrappers bind and
// connect exclusively to the loopback interface. TCP_NODELAY is set on
// every connection: the protocol batches frames itself (client-side
// request batching), so Nagle buffering only adds latency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace deflate::net {

/// A connected stream socket (move-only; closes on destruction).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Writes the whole buffer (looping over partial writes); false on any
  /// send error (peer gone).
  bool send_all(const void* data, std::size_t size) noexcept;

  /// One send: bytes written, -1 on error (errno EAGAIN when a
  /// non-blocking socket's send buffer is full). Retries EINTR.
  [[nodiscard]] long send_some(const void* data, std::size_t size) noexcept;

  /// One recv: bytes read, 0 on orderly close, -1 on error (errno EAGAIN
  /// when a non-blocking socket has nothing to read). Retries EINTR.
  [[nodiscard]] long recv_some(void* buffer, std::size_t size) noexcept;

  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Connects to 127.0.0.1:port; invalid Socket on failure.
[[nodiscard]] Socket connect_loopback(std::uint16_t port);

/// A listening socket bound to 127.0.0.1 (port 0 = ephemeral).
class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket() { close(); }
  ListenSocket(ListenSocket&& other) noexcept
      : fd_(other.fd_), port_(other.port_) {
    other.fd_ = -1;
  }
  ListenSocket& operator=(ListenSocket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      port_ = other.port_;
      other.fd_ = -1;
    }
    return *this;
  }
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// Binds and listens without blocking (accept() never waits); nullopt
  /// when the port is taken (or sockets are unavailable).
  [[nodiscard]] static std::optional<ListenSocket> open_loopback(
      std::uint16_t port);

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// The bound port (the kernel-assigned one when opened with port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Takes one pending connection as a non-blocking socket; an invalid
  /// Socket when none is pending or accept failed, with errno saying which
  /// (EAGAIN, EMFILE, ...). Retries EINTR.
  [[nodiscard]] Socket accept() noexcept;

  void close() noexcept;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace deflate::net
