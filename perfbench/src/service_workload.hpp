// The `service` workload: admission as a service over loopback TCP.
//
// An in-process net::Server runs the `price` admission policy over a 72 h
// spot-price trace and a small 1-shard fleet. Two client connections drive
// a closed loop (each caller waits for its decision before it launches the
// VM): phase 1 sends one request per round trip, phase 2 batches 64
// requests per flush. Requests alternate between on-demand and deflatable,
// with arrivals spread across the price trace.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/admission.hpp"
#include "net/service.hpp"
#include "report.hpp"

namespace perfbench {

/// The daemon configuration of the workload (the same for every seed).
[[nodiscard]] deflate::net::ServiceConfig service_config();

/// The request stream of connection `connection` (of `connections`): the
/// seed decides sizes and priorities, arrivals interleave across
/// connections, and each stream ends with a request past every deferral
/// deadline so all queued deferrals resolve.
[[nodiscard]] std::vector<deflate::cluster::AdmissionRequest> service_requests(
    std::uint64_t seed, std::size_t connection, std::size_t connections,
    std::size_t per_connection);

/// Runs the workload and fills `result`.
void run_service_workload(const RunOptions& options, Result& result);

/// The net layer (codec, server, client) measured with this workload's
/// traced sessions for `options.seed`: prints its layer lines, adds the
/// sessions to `result.attempted`, and sets `client.flush.calls` and
/// `server.frames_per_request`.
void measure_net_layer_for(const RunOptions& options, Result& result);

}  // namespace perfbench
