#include "net/server.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <exception>
#include <iostream>

#include "policy/catalog.hpp"

namespace deflate::net {

namespace {

/// Pending output (bytes) above which the loop stops reading a peer until
/// the peer has read enough of its decisions.
constexpr std::size_t kMaxPendingOutput = std::size_t{1} << 20;

bool would_block(int error) noexcept {
  return error == EAGAIN || error == EWOULDBLOCK;
}

std::vector<std::uint8_t> hello_frame(const ServiceConfig& config) {
  Hello hello;
  hello.server = config.banner;
  hello.admission_policy = config.admission_policy;
  for (const policy::SurfaceInfo& info : policy::describe_all_surfaces()) {
    PolicySurface surface;
    surface.surface = info.surface;
    for (const policy::PolicyInfo& p : info.policies) {
      surface.policies.push_back(p.name);
    }
    hello.surfaces.push_back(std::move(surface));
  }
  return encode_frame(Message{hello});
}

}  // namespace

/// One client connection: a non-blocking socket and its protocol state.
struct Server::Connection {
  Connection(std::uint32_t conn_id, Socket peer, ServiceCore& core)
      : id(conn_id), socket(std::move(peer)), session(core) {}

  std::uint32_t id = 0;
  Socket socket;
  FrameBuffer frames;
  Session session;
  /// Telemetry subscription (codec v3): a client Hello with a non-zero
  /// `telemetry_every` asks for one aggregate UtilizationReport after
  /// every N admission requests on this connection.
  std::uint32_t telemetry_every = 0;
  std::uint32_t telemetry_countdown = 0;
  /// Encoded output; the first `out_sent` bytes are already written.
  std::vector<std::uint8_t> out;
  std::size_t out_sent = 0;
  /// No more reads: the peer closed its side, or the connection ends once
  /// its output (Bye, Error) is written.
  bool closing = false;
  /// The socket failed: close without writing the rest.
  bool broken = false;
  /// The peer sent Shutdown: stop the server once this connection ends.
  bool shutdown_requested = false;

  void append(const std::vector<std::uint8_t>& frame) {
    out.insert(out.end(), frame.begin(), frame.end());
  }

  [[nodiscard]] std::size_t pending() const noexcept {
    return out.size() - out_sent;
  }

  /// Writes as much pending output as the socket takes now.
  void flush() {
    while (pending() != 0) {
      const long n = socket.send_some(out.data() + out_sent, pending());
      if (n < 0) {
        if (!would_block(errno)) broken = true;
        break;
      }
      out_sent += static_cast<std::size_t>(n);
    }
    // Drop the written prefix once it is most of the buffer, so a slow
    // reader costs O(1) copying per byte.
    if (out_sent * 2 >= out.size()) {
      out.erase(out.begin(),
                out.begin() + static_cast<std::ptrdiff_t>(out_sent));
      out_sent = 0;
    }
  }

  [[nodiscard]] bool finished() const noexcept {
    return broken || (closing && pending() == 0);
  }
};

Server::Server(ServiceConfig config) : core_(config) {
  if (!core_.config().capture_path.empty()) {
    capture_ = std::make_unique<CaptureWriter>(core_.config().capture_path,
                                               core_.config());
  }
}

Server::~Server() { stop(); }

bool Server::start() {
  auto listener = ListenSocket::open_loopback(core_.config().port);
  if (!listener.has_value()) return false;
  if (capture_ != nullptr && !capture_->valid()) return false;
  int pipe_fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pipe_fds) != 0) return false;
  wake_read_ = Socket{pipe_fds[0]};
  wake_write_ = Socket{pipe_fds[1]};
  listener_ = std::move(*listener);
  port_ = listener_.port();
  loop_thread_ = std::thread([this] {
    try {
      run();
    } catch (const std::exception& error) {
      std::cerr << "deflated: loop stopped: " << error.what() << '\n';
      request_shutdown();
    }
  });
  return true;
}

void Server::run() {
  std::vector<pollfd> fds;
  bool accepting = true;
  for (;;) {
    fds.clear();
    fds.push_back({wake_read_.fd(), POLLIN, 0});
    // poll() skips a negative fd: out of descriptors, the listener waits
    // for a connection to close instead of spinning on accept().
    fds.push_back({accepting ? listener_.fd() : -1, POLLIN, 0});
    for (const auto& conn : connections_) {
      short events = 0;
      if (!conn->closing && conn->pending() <= kMaxPendingOutput) {
        events |= POLLIN;
      }
      if (conn->pending() != 0) events |= POLLOUT;
      fds.push_back({conn->socket.fd(), events, 0});
    }
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1) < 0) {
      if (errno == EINTR) continue;
      std::cerr << "deflated: poll failed, errno " << errno << '\n';
      request_shutdown();
      return;
    }
    if (fds[0].revents != 0) return;  // stop()

    for (std::size_t i = 0; i < connections_.size(); ++i) {
      Connection& conn = *connections_[i];
      const short revents = fds[i + 2].revents;
      if (revents == 0) continue;
      if ((fds[i + 2].events & POLLIN) != 0 &&
          (revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        try {
          read_and_serve(conn);
        } catch (const std::exception& error) {
          std::cerr << "deflated: connection " << conn.id
                    << " dropped: " << error.what() << '\n';
          conn.broken = true;
        }
      }
      // Answer in the same round: a pipelined batch's decisions leave in
      // one write.
      if (conn.pending() != 0) conn.flush();
    }

    const auto closed = std::erase_if(connections_, [this](const auto& conn) {
      if (!conn->finished()) return false;
      if (conn->shutdown_requested) request_shutdown();
      return true;
    });
    if (closed != 0) accepting = true;

    if ((fds[1].revents & POLLIN) != 0) accepting = accept_pending();
  }
}

bool Server::accept_pending() {
  for (;;) {
    Socket socket = listener_.accept();
    if (!socket.valid()) {
      if (would_block(errno)) return true;  // the backlog is empty
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        return false;
      }
      continue;  // a network error on one queued connection: drop it
    }
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      ++stats_.connections;
    }
    auto conn =
        std::make_unique<Connection>(next_conn_id_++, std::move(socket), core_);
    conn->append(hello_frame(core_.config()));
    conn->flush();
    connections_.push_back(std::move(conn));
  }
}

void Server::read_and_serve(Connection& conn) {
  std::uint8_t chunk[16384];
  const long received = conn.socket.recv_some(chunk, sizeof(chunk));
  if (received == 0) {
    // The peer closed its side: write what it is owed, then close.
    conn.closing = true;
    return;
  }
  if (received < 0) {
    if (!would_block(errno)) conn.broken = true;
    return;
  }
  conn.frames.append(chunk, static_cast<std::size_t>(received));

  // Serve every complete frame before writing once: responses to a
  // pipelined batch leave in a single send.
  for (;;) {
    DecodeResult result = conn.frames.next();
    if (result.status == DecodeStatus::NeedMore) return;
    if (result.status == DecodeStatus::Malformed) {
      ErrorMsg error;
      error.code = 400;
      error.message = result.error;
      conn.append(encode_frame(Message{std::move(error)}));
      conn.closing = true;
      std::lock_guard<std::mutex> lock(state_mutex_);
      ++stats_.malformed_frames;
      return;
    }
    if (!serve_frame(conn, result.message)) {
      conn.closing = true;
      return;
    }
  }
}

bool Server::serve_frame(Connection& conn, const Message& message) {
  if (const auto* request = std::get_if<AdmissionRequestMsg>(&message)) {
    if (capture_ != nullptr) {
      capture_->record(conn.id, encode_frame(message));
    }
    const std::vector<AdmissionDecisionMsg> decisions =
        conn.session.serve(*request);
    for (const AdmissionDecisionMsg& decision : decisions) {
      const auto frame = encode_frame(Message{decision});
      if (capture_ != nullptr) capture_->record(conn.id, frame);
      conn.append(frame);
    }
    // Interleaved telemetry: after every `telemetry_every` requests a
    // subscribed connection gets one fleet-wide utilization frame,
    // snapshotted right after the decision it follows. Telemetry frames
    // are not captured: replaying a capture must reproduce the decision
    // stream regardless of who was subscribed to what.
    bool telemetry_due = false;
    if (conn.telemetry_every != 0 &&
        ++conn.telemetry_countdown >= conn.telemetry_every) {
      conn.telemetry_countdown = 0;
      telemetry_due = true;
      conn.append(encode_frame(Message{fleet_utilization()}));
    }
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++stats_.admission_requests;
    stats_.decisions += decisions.size();
    if (telemetry_due) ++stats_.telemetry_reports;
  } else if (const auto* hello = std::get_if<Hello>(&message)) {
    // A client Hello is a subscription update: it (re)arms or cancels
    // the periodic telemetry stream for this connection. Nothing is
    // answered — the next due report is the acknowledgement.
    conn.telemetry_every = hello->telemetry_every;
    conn.telemetry_countdown = 0;
  } else if (std::holds_alternative<Shutdown>(message)) {
    conn.append(encode_frame(Message{Bye{}}));
    conn.shutdown_requested = true;
    return false;
  } else {
    ErrorMsg error;
    error.code = 422;
    error.message = std::string("unexpected ") +
                    msg_type_name(message_type(message)) + " frame";
    conn.append(encode_frame(Message{std::move(error)}));
  }
  return true;
}

UtilizationReport Server::fleet_utilization() {
  UtilizationReport report;
  report.host_id = kFleetTelemetryHostId;
  cluster::ClusterManagerBase& manager = core_.manager();
  res::ResourceVector capacity;
  for (std::size_t s = 0; s < manager.server_count(); ++s) {
    if (!manager.server_active(s)) continue;
    const hv::Host& host = manager.host(s);
    report.available += host.available();
    report.committed += host.committed();
    capacity += host.capacity();
  }
  double worst = 0.0;
  for (const res::Resource r : {res::Resource::Cpu, res::Resource::Memory}) {
    if (capacity[r] > 0.0) {
      worst = std::max(worst, report.committed[r] / capacity[r]);
    }
  }
  report.overcommit_ratio = worst;
  return report;
}

void Server::request_shutdown() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  shutdown_requested_ = true;
  shutdown_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  shutdown_cv_.wait(lock,
                    [this] { return shutdown_requested_ || stopped_; });
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    stopped_ = true;
    shutdown_cv_.notify_all();
  }
  if (loop_thread_.joinable()) {
    const std::uint8_t wake = 1;
    (void)wake_write_.send_all(&wake, 1);
    loop_thread_.join();
  }
  connections_.clear();
  listener_.close();
  wake_read_.close();
  wake_write_.close();
  if (capture_ != nullptr) capture_->flush();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return stats_;
}

}  // namespace deflate::net
