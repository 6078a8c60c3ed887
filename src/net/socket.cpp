#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>

namespace deflate::net {

namespace {

void set_nodelay(int fd) noexcept {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool set_nonblocking(int fd) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

sockaddr_in loopback_addr(std::uint16_t port) noexcept {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

/// A peer that disappears mid-write raises SIGPIPE by default, which
/// would kill the whole daemon; every send opts out per call instead.
constexpr int kSendFlags =
#ifdef MSG_NOSIGNAL
    MSG_NOSIGNAL;
#else
    0;
#endif

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

bool Socket::send_all(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    const auto n = ::send(fd_, bytes + sent, size - sent, kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

long Socket::send_some(const void* data, std::size_t size) noexcept {
  for (;;) {
    const auto n = ::send(fd_, data, size, kSendFlags);
    if (n < 0 && errno == EINTR) continue;
    return static_cast<long>(n);
  }
}

long Socket::recv_some(void* buffer, std::size_t size) noexcept {
  for (;;) {
    const auto n = ::recv(fd_, buffer, size, 0);
    if (n < 0 && errno == EINTR) continue;
    return static_cast<long>(n);
  }
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Socket{};
  const sockaddr_in addr = loopback_addr(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return Socket{};
  }
  set_nodelay(fd);
  return Socket{fd};
}

std::optional<ListenSocket> ListenSocket::open_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(port);
  if (!set_nonblocking(fd) ||
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  ListenSocket out;
  out.fd_ = fd;
  out.port_ = ntohs(addr.sin_port);
  return out;
}

Socket ListenSocket::accept() noexcept {
  for (;;) {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      Socket socket{fd};
      if (!set_nonblocking(fd)) return Socket{};
      set_nodelay(fd);
      return socket;
    }
    if (errno != EINTR) return Socket{};
  }
}

void ListenSocket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace deflate::net
