// The deflated daemon's engine: admission-as-a-service over loopback TCP.
//
// One Server owns a ServiceCore (fleet manager + price feed + clock), a
// listening socket and a util::ThreadPool of connection handlers. The
// accept loop runs in its own thread and hands each connection to the
// pool; a handler greets with Hello, then serves pipelined frames — a
// client may write a whole batch of AdmissionRequests before reading, and
// the handler answers them in order with one buffered write per read
// chunk (this is what the batching client and bench/scenario_service
// exploit).
//
// Concurrency model: each connection gets its *own* AdmissionController
// (so the deferral queue — and therefore every drained resolution — is
// unambiguously owned by one connection), while the cluster manager,
// price feed, service clock and capture log are shared and serialized by
// one admission mutex. Decisions are therefore globally ordered, which is
// what makes the capture log replayable (capture.hpp).
//
// Deferral resolutions are delivered in-stream: before deciding a fresh
// request, the handler drains its connection's queue at the advanced
// clock and pushes every resolved deferral as an AdmissionDecisionMsg
// (echoing the original request id) ahead of the direct response.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "net/capture.hpp"
#include "net/service.hpp"
#include "net/socket.hpp"
#include "util/thread_pool.hpp"

namespace deflate::net {

/// Sentinel host id on aggregate (fleet-wide) UtilizationReport telemetry
/// frames, distinguishing them from any real per-server report.
inline constexpr std::uint64_t kFleetTelemetryHostId =
    ~static_cast<std::uint64_t>(0);

struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t admission_requests = 0;
  std::uint64_t decisions = 0;  ///< direct + drained resolutions sent
  std::uint64_t place_requests = 0;
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

  /// Binds, listens and starts the accept loop; false when the port
  /// cannot be bound. Idempotent failure: the server can be destroyed.
  [[nodiscard]] bool start();

  /// The bound port (ephemeral-resolved when config.port was 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Blocks until a client sends Shutdown (or stop() is called).
  void wait();

  /// Stops accepting, wakes every connection, joins all handlers. Safe to
  /// call more than once; the destructor calls it.
  void stop();

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return core_.config();
  }

 private:
  void accept_loop();
  void serve_connection(std::uint32_t conn_id, std::shared_ptr<Socket> socket);
  /// Fleet-wide utilization snapshot (host_id = kFleetTelemetryHostId:
  /// available/committed summed over active servers, worst per-resource
  /// commit ratio). Caller must hold admission_mutex_ — the manager is
  /// shared state.
  [[nodiscard]] UtilizationReport fleet_utilization();

  ServiceCore core_;
  std::unique_ptr<CaptureWriter> capture_;

  ListenSocket listener_;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;

  /// Serializes admission (clock advance, drain, decide), placement and
  /// capture appends across connections.
  std::mutex admission_mutex_;

  mutable std::mutex state_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool stopped_ = false;
  std::uint32_t next_conn_id_ = 1;
  /// Open connections, for waking blocked recv()s on stop().
  std::map<std::uint32_t, std::shared_ptr<Socket>> open_connections_;
  ServerStats stats_;

  /// Declared last: destroyed first, joining handler tasks before the
  /// members they use go away.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace deflate::net
