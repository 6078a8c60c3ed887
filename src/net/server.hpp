// The deflated daemon's engine: admission-as-a-service over loopback TCP.
//
// One Server owns a ServiceCore (fleet manager + price feed + clock), a
// listening socket and one loop thread. The loop runs one poll() over the
// listener, a self-pipe and every connection; each connection is a small
// state machine over its FrameBuffer. A connection is greeted with Hello,
// then served pipelined frames — a client may write a whole batch of
// AdmissionRequests before reading, and the loop answers them in order
// with one buffered write per read chunk (this is what the batching client
// and bench/scenario_service exploit).
//
// Concurrency model: the loop thread is the only thread that touches the
// cluster manager, price feed, service clock, capture log and every
// connection. Decisions are therefore globally ordered without a lock,
// which is what makes the capture log replayable (capture.hpp). Each
// connection owns a Session (service.hpp), and with it its *own*
// deferral queue and every resolution drained from it. Other threads
// only call stats(), wait() and stop().
//
// Liveness: no peer can hold the loop. Sockets are non-blocking; an idle
// or slow peer costs one poll entry. A peer whose pending output exceeds
// a fixed bound (1 MiB) is not read until its output drains to it, and an
// accept() that runs out of descriptors takes the listener out of the
// poll set until a connection closes, so the loop never spins.
//
// Deferral resolutions are delivered in-stream: Session::serve drains a
// connection's queue before deciding its fresh request, and each
// resolution (echoing its own request id) goes out ahead of the direct
// response.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/capture.hpp"
#include "net/service.hpp"
#include "net/socket.hpp"

namespace deflate::net {

/// Sentinel host id on aggregate (fleet-wide) UtilizationReport telemetry
/// frames, distinguishing them from any real per-server report.
inline constexpr std::uint64_t kFleetTelemetryHostId =
    ~static_cast<std::uint64_t>(0);

struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t admission_requests = 0;
  std::uint64_t decisions = 0;  ///< direct + drained resolutions sent
  std::uint64_t malformed_frames = 0;
  std::uint64_t telemetry_reports = 0;  ///< aggregate utilization frames sent
};

class Server {
 public:
  /// Builds the core (throws std::invalid_argument on an unknown
  /// admission policy, like ServiceCore).
  explicit Server(ServiceConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and starts the loop thread; false when the port
  /// cannot be bound. Idempotent failure: the server can be destroyed.
  [[nodiscard]] bool start();

  /// The bound port (ephemeral-resolved when config.port was 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Blocks until a client sends Shutdown (or stop() is called).
  void wait();

  /// Wakes and joins the loop, closes the listener and every connection,
  /// and flushes the capture. Safe to call more than once; the destructor
  /// calls it.
  void stop();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return core_.config();
  }

 private:
  struct Connection;

  /// The loop thread's body: poll, accept, read, serve, write.
  void run();
  /// Accepts every pending connection; false when out of descriptors.
  bool accept_pending();
  /// Reads one chunk from `conn` and serves every complete frame in it.
  void read_and_serve(Connection& conn);
  /// Serves one decoded frame; false when the connection must close after
  /// its output is flushed.
  bool serve_frame(Connection& conn, const Message& message);
  /// Fleet-wide utilization snapshot (host_id = kFleetTelemetryHostId:
  /// available/committed summed over active servers, worst per-resource
  /// commit ratio).
  [[nodiscard]] UtilizationReport fleet_utilization();
  void request_shutdown();

  ServiceCore core_;
  std::unique_ptr<CaptureWriter> capture_;

  ListenSocket listener_;
  std::uint16_t port_ = 0;
  /// Self-pipe: stop() writes one byte to wake_write_, the loop polls
  /// wake_read_.
  Socket wake_read_;
  Socket wake_write_;
  /// Loop-thread state (stop() touches it only after the join).
  std::vector<std::unique_ptr<Connection>> connections_;
  std::uint32_t next_conn_id_ = 1;

  /// Guards what other threads read: stats(), wait().
  mutable std::mutex state_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool stopped_ = false;
  ServerStats stats_;

  /// Declared last: started after, and joined before, everything it uses.
  std::thread loop_thread_;
};

}  // namespace deflate::net
