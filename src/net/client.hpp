// Batching client for the admission service.
//
// The client separates *submitting* a request from *flushing* the batch:
// submit() assigns a request id and appends the encoded frame to an
// in-memory batch; flush() writes the whole batch in one send and reads
// until every outstanding request has its decision. Against a pipelining
// server this turns N round-trips into one, which is the entire gap
// bench/scenario_service gates on.
//
// Deferral resolutions: a request the server answered with Deferred is
// resolved later, in-stream, when a subsequent flush advances the service
// clock past its retry time. Those updates (decision frames whose request
// id is not in the outstanding set) land in resolved_deferrals() and
// also overwrite the original Deferred entry in decisions().
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "net/codec.hpp"
#include "net/socket.hpp"

namespace deflate::net {

class Client {
 public:
  /// Connects to 127.0.0.1:port and reads the server's Hello; nullopt on
  /// connection or handshake failure.
  [[nodiscard]] static std::optional<Client> connect(std::uint16_t port);

  [[nodiscard]] const Hello& hello() const noexcept { return hello_; }
  [[nodiscard]] bool connected() const noexcept { return socket_.valid(); }

  /// Queues a request into the current batch; returns its request id.
  /// Nothing is written until flush().
  std::uint64_t submit(const cluster::AdmissionRequest& request);

  /// Sends the batch in one write and reads until every outstanding
  /// request is decided; false on a connection/protocol failure (the
  /// client is unusable afterwards).
  [[nodiscard]] bool flush();

  /// Convenience: submit + flush, returning this request's decision.
  [[nodiscard]] std::optional<cluster::AdmissionDecision> admit(
      const cluster::AdmissionRequest& request);

  /// Sends Shutdown and waits for the Bye.
  [[nodiscard]] bool shutdown_server();

  /// Subscribes this connection to periodic telemetry: the server will
  /// interleave one aggregate UtilizationReport after every `every`
  /// admission decisions (0 cancels). Fire-and-forget — the subscription
  /// Hello has no acknowledgement; false only on a send failure.
  [[nodiscard]] bool request_telemetry(std::uint32_t every);

  /// Telemetry frames received so far, and the latest one.
  [[nodiscard]] std::uint64_t telemetry_reports() const noexcept {
    return telemetry_reports_;
  }
  [[nodiscard]] const std::optional<UtilizationReport>& last_telemetry()
      const noexcept {
    return last_telemetry_;
  }

  /// Latest decision per request id (deferral updates overwrite).
  [[nodiscard]] const std::map<std::uint64_t, cluster::AdmissionDecision>&
  decisions() const noexcept {
    return decisions_;
  }
  /// Requests first answered Deferred whose resolution arrived later.
  [[nodiscard]] const std::map<std::uint64_t, cluster::AdmissionDecision>&
  resolved_deferrals() const noexcept {
    return resolved_;
  }
  /// Last request-level ErrorMsg received, if any.
  [[nodiscard]] const std::optional<ErrorMsg>& last_error() const noexcept {
    return last_error_;
  }

 private:
  Client() = default;

  /// Reads frames until `predicate` says done; false on socket close,
  /// malformed frame or an Error frame.
  template <typename Done>
  bool read_until(Done done);
  bool handle(Message message);

  Socket socket_;
  Hello hello_;
  FrameBuffer frames_;
  std::vector<std::uint8_t> batch_;
  std::uint64_t next_request_id_ = 1;
  std::set<std::uint64_t> outstanding_;
  std::map<std::uint64_t, cluster::AdmissionDecision> decisions_;
  std::map<std::uint64_t, cluster::AdmissionDecision> resolved_;
  std::optional<UtilizationReport> last_telemetry_;
  std::uint64_t telemetry_reports_ = 0;
  bool saw_hello_ = false;
  bool saw_bye_ = false;
  std::optional<ErrorMsg> last_error_;
};

}  // namespace deflate::net
