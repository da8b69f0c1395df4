// Thin client calls for the job server: each call dials HOST:PORT, sends one
// request frame, reads one reply and returns it decoded. Stateless on
// purpose — the CLI (`bonsai_sim --server HOST:PORT --submit ...`) maps one
// invocation to one call, and CI scripts drive the server the same way.
// Connection failures throw domain::NetError; malformed replies throw wire::WireError.
#pragma once

#include <cstdint>
#include <string>

#include "domain/metrics.hpp"
#include "domain/wire.hpp"

namespace bonsai::serve {

// Submit a job; the reply is kQueued (with the assigned job id) or kRejected
// (with the reason naming the violated limit).
domain::wire::JobStatusMsg submit_job(const std::string& host, std::uint16_t port,
                                      const domain::wire::JobSpec& spec);

// Non-blocking status poll.
domain::wire::JobStatusMsg job_status(const std::string& host, std::uint16_t port,
                                      std::int32_t job_id);

// Block until the job reaches a terminal state; the result carries the final
// particle set (with forces) and energies for a completed job.
domain::wire::JobResultMsg wait_job(const std::string& host, std::uint16_t port,
                                    std::int32_t job_id);

// Request cancellation. A queued or suspended job cancels immediately; a
// running job cancels at its next step boundary (the reply still shows
// kRunning — wait_job() observes the terminal state).
domain::wire::JobStatusMsg cancel_job(const std::string& host, std::uint16_t port,
                                      std::int32_t job_id);

// Fetch the job's current per-rank snapshot: a running job captures at its
// next step boundary, a suspended job replies from its spool checkpoint, a
// completed job replies its result as a single set. Empty sets mean the job
// is unknown or has no particles to show (queued/cancelled/failed).
domain::wire::SnapshotMsg fetch_snapshot(const std::string& host, std::uint16_t port,
                                         std::int32_t job_id);

// Live scrape of the server's metrics registry: per-job labeled step metrics
// plus server.jobs.* counters and server.pool.* gauges.
metrics::Snapshot fetch_metrics(const std::string& host, std::uint16_t port);

// Ask the server to stop serving (wait_for_shutdown() returns on the server
// side). Fire-and-forget: no reply.
void request_shutdown(const std::string& host, std::uint16_t port);

}  // namespace bonsai::serve
