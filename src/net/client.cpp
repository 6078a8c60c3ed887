#include "net/client.hpp"

namespace deflate::net {

std::optional<Client> Client::connect(std::uint16_t port) {
  Client client;
  client.socket_ = connect_loopback(port);
  if (!client.socket_.valid()) return std::nullopt;
  if (!client.read_until([&client] { return client.saw_hello_; })) {
    return std::nullopt;
  }
  return client;
}

template <typename Done>
bool Client::read_until(Done done) {
  std::uint8_t chunk[16384];
  for (;;) {
    // Drain buffered frames first (a batch response arrives as one read).
    for (;;) {
      DecodeResult result = frames_.next();
      if (result.status == DecodeStatus::NeedMore) break;
      if (result.status == DecodeStatus::Malformed) return false;
      if (!handle(std::move(result.message))) return false;
      if (done()) return true;
    }
    if (done()) return true;
    const long received = socket_.recv_some(chunk, sizeof(chunk));
    if (received <= 0) return false;
    frames_.append(chunk, static_cast<std::size_t>(received));
  }
}

bool Client::handle(Message message) {
  if (auto* hello = std::get_if<Hello>(&message)) {
    hello_ = std::move(*hello);
    saw_hello_ = true;
    return true;
  }
  if (const auto* decision = std::get_if<AdmissionDecisionMsg>(&message)) {
    if (outstanding_.erase(decision->request_id) == 0) {
      // Not awaited: a deferral from an earlier batch got resolved.
      resolved_[decision->request_id] = decision->decision;
    }
    decisions_[decision->request_id] = decision->decision;
    return true;
  }
  if (const auto* report = std::get_if<UtilizationReport>(&message)) {
    // Interleaved telemetry (codec v3): count and keep the latest; it is
    // never what a read_until predicate waits for.
    last_telemetry_ = *report;
    ++telemetry_reports_;
    return true;
  }
  if (std::holds_alternative<Bye>(message)) {
    saw_bye_ = true;
    return true;
  }
  if (auto* error = std::get_if<ErrorMsg>(&message)) {
    last_error_ = std::move(*error);
    return false;
  }
  return false;  // anything else is a protocol violation
}

std::uint64_t Client::submit(const cluster::AdmissionRequest& request) {
  AdmissionRequestMsg msg;
  msg.request_id = next_request_id_++;
  msg.request = request;
  const auto frame = encode_frame(Message{msg});
  batch_.insert(batch_.end(), frame.begin(), frame.end());
  outstanding_.insert(msg.request_id);
  return msg.request_id;
}

bool Client::flush() {
  if (batch_.empty()) return true;
  if (!socket_.send_all(batch_.data(), batch_.size())) return false;
  batch_.clear();
  return read_until([this] { return outstanding_.empty(); });
}

std::optional<cluster::AdmissionDecision> Client::admit(
    const cluster::AdmissionRequest& request) {
  const std::uint64_t id = submit(request);
  if (!flush()) return std::nullopt;
  const auto it = decisions_.find(id);
  if (it == decisions_.end()) return std::nullopt;
  return it->second;
}

bool Client::request_telemetry(std::uint32_t every) {
  Hello hello;
  hello.server = "client";
  hello.telemetry_every = every;
  const auto frame = encode_frame(Message{hello});
  return socket_.send_all(frame.data(), frame.size());
}

bool Client::shutdown_server() {
  const auto frame = encode_frame(Message{Shutdown{}});
  if (!socket_.send_all(frame.data(), frame.size())) return false;
  return read_until([this] { return saw_bye_; });
}

}  // namespace deflate::net
