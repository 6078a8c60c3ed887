#include "net/server.hpp"

#include <algorithm>

#include "net/registry.hpp"
#include "policy/catalog.hpp"

namespace deflate::net {

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
  listener_ = std::move(*listener);
  port_ = listener_.port();
  pool_ = std::make_unique<util::ThreadPool>(core_.config().worker_threads);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::accept_loop() {
  for (;;) {
    auto accepted = listener_.accept_one();
    if (!accepted.has_value()) return;  // listener closed: stopping
    auto socket = std::make_shared<Socket>(std::move(*accepted));
    std::uint32_t conn_id = 0;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (stopped_) return;
      conn_id = next_conn_id_++;
      open_connections_.emplace(conn_id, socket);
      ++stats_.connections;
    }
    pool_->submit([this, conn_id, socket] {
      serve_connection(conn_id, std::move(socket));
    });
  }
}

void Server::serve_connection(std::uint32_t conn_id,
                              std::shared_ptr<Socket> socket) {
  {
    Hello hello;
    hello.server = core_.config().banner;
    hello.admission_policy = core_.config().admission_policy;
    hello.policies = AdmissionPolicyRegistry::instance().names();
    for (const policy::SurfaceInfo& info : policy::describe_all_surfaces()) {
      PolicySurface surface;
      surface.surface = info.surface;
      for (const policy::PolicyInfo& p : info.policies) {
        surface.policies.push_back(p.name);
      }
      hello.surfaces.push_back(std::move(surface));
    }
    const auto frame = encode_frame(Message{hello});
    if (!socket->send_all(frame.data(), frame.size())) {
      std::lock_guard<std::mutex> lock(state_mutex_);
      open_connections_.erase(conn_id);
      return;
    }
  }

  auto controller = core_.make_controller();
  /// vm id -> client request id: drained resolutions echo the id the
  /// client attached when it submitted the (then deferred) request.
  std::map<std::uint64_t, std::uint64_t> request_ids;
  /// Telemetry subscription (codec v3): a client Hello with a non-zero
  /// `telemetry_every` asks for one aggregate UtilizationReport after
  /// every N admission decisions on this connection.
  std::uint32_t telemetry_every = 0;
  std::uint32_t telemetry_countdown = 0;
  FrameBuffer frames;
  std::vector<std::uint8_t> out;
  std::uint8_t chunk[16384];
  bool close_connection = false;
  bool request_shutdown = false;

  const auto append = [&out](const std::vector<std::uint8_t>& frame) {
    out.insert(out.end(), frame.begin(), frame.end());
  };

  while (!close_connection) {
    const long received = socket->recv_some(chunk, sizeof(chunk));
    if (received <= 0) break;  // peer gone, or stop() shut the socket down
    frames.append(chunk, static_cast<std::size_t>(received));
    out.clear();

    // Drain every complete frame before writing once: responses to a
    // pipelined batch leave in a single send.
    for (;;) {
      DecodeResult result = frames.next();
      if (result.status == DecodeStatus::NeedMore) break;
      if (result.status == DecodeStatus::Malformed) {
        ErrorMsg error;
        error.code = 400;
        error.message = result.error;
        append(encode_frame(Message{std::move(error)}));
        close_connection = true;
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++stats_.malformed_frames;
        break;
      }

      if (const auto* request =
              std::get_if<AdmissionRequestMsg>(&result.message)) {
        std::lock_guard<std::mutex> admission(admission_mutex_);
        const sim::SimTime now = core_.advance_clock(request->request.arrival);
        if (capture_ != nullptr) {
          capture_->record(conn_id, encode_frame(result.message));
        }
        std::uint64_t sent_decisions = 0;
        // Piggyback drain: deferral resolutions due by now go out first,
        // ahead of the fresh request's own decision.
        for (auto& resolved : controller->drain(now)) {
          AdmissionDecisionMsg msg;
          const auto it = request_ids.find(resolved.request.spec.id);
          msg.request_id = it == request_ids.end() ? 0 : it->second;
          msg.decision = resolved.decision;
          const auto frame = encode_frame(Message{msg});
          if (capture_ != nullptr) capture_->record(conn_id, frame);
          append(frame);
          ++sent_decisions;
        }
        request_ids[request->request.spec.id] = request->request_id;
        AdmissionDecisionMsg direct;
        direct.request_id = request->request_id;
        direct.decision = controller->decide(request->request, now);
        const auto frame = encode_frame(Message{direct});
        if (capture_ != nullptr) capture_->record(conn_id, frame);
        append(frame);
        ++sent_decisions;
        // Interleaved telemetry: after every `telemetry_every` requests a
        // subscribed connection gets one fleet-wide utilization frame,
        // snapshotted under the same admission mutex as the decision it
        // follows. Telemetry frames are not captured: replaying a capture
        // must reproduce the decision stream regardless of who was
        // subscribed to what.
        bool telemetry_due = false;
        if (telemetry_every != 0 && ++telemetry_countdown >= telemetry_every) {
          telemetry_countdown = 0;
          telemetry_due = true;
          append(encode_frame(Message{fleet_utilization()}));
        }
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++stats_.admission_requests;
        stats_.decisions += sent_decisions;
        if (telemetry_due) ++stats_.telemetry_reports;
      } else if (const auto* place =
                     std::get_if<PlaceRequest>(&result.message)) {
        // The raw placement path: a spec-only request straight to the
        // manager, bypassing admission (the legacy place_vm contract).
        hv::VmSpec spec;
        spec.id = place->vm_id;
        spec.vcpus = static_cast<int>(place->demand.cpu());
        spec.memory_mib = place->demand.memory();
        spec.disk_bw_mbps = place->demand.disk_bw();
        spec.net_bw_mbps = place->demand.net_bw();
        spec.priority = place->priority;
        spec.deflatable = place->deflatable;
        PlaceResponse response;
        response.vm_id = place->vm_id;
        {
          std::lock_guard<std::mutex> admission(admission_mutex_);
          const auto placement = core_.manager().place_vm(spec);
          response.accepted =
              placement.status != cluster::PlacementResult::Status::Rejected;
          response.host_id = placement.host_id;
          response.launch_fraction = placement.launch_fraction;
        }
        append(encode_frame(Message{response}));
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++stats_.place_requests;
      } else if (const auto* hello = std::get_if<Hello>(&result.message)) {
        // A client Hello is a subscription update: it (re)arms or cancels
        // the periodic telemetry stream for this connection. Nothing is
        // answered — the next due report is the acknowledgement.
        telemetry_every = hello->telemetry_every;
        telemetry_countdown = 0;
      } else if (std::holds_alternative<Shutdown>(result.message)) {
        append(encode_frame(Message{Bye{}}));
        close_connection = true;
        request_shutdown = true;
        break;
      } else {
        ErrorMsg error;
        error.code = 422;
        error.message =
            std::string("unexpected ") +
            msg_type_name(message_type(result.message)) + " frame";
        append(encode_frame(Message{std::move(error)}));
      }
    }

    if (!out.empty() && !socket->send_all(out.data(), out.size())) break;
  }

  {
    // Leave open_connections_ before closing: stop() reads the fd of
    // every socket still listed there.
    std::lock_guard<std::mutex> lock(state_mutex_);
    open_connections_.erase(conn_id);
    if (request_shutdown) {
      shutdown_requested_ = true;
      shutdown_cv_.notify_all();
    }
  }
  socket->close();
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
    // Wake every handler parked in recv().
    for (auto& [id, socket] : open_connections_) socket->shutdown_both();
  }
  // Wake the accept loop, and release the fd only once it has exited.
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  if (pool_ != nullptr) pool_->wait_idle();
  if (capture_ != nullptr) {
    std::lock_guard<std::mutex> admission(admission_mutex_);
    capture_->flush();
  }
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return stats_;
}

}  // namespace deflate::net
