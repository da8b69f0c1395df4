#include "serve/client.hpp"

#include "domain/net.hpp"

namespace bonsai::serve {

namespace wire = domain::wire;
using domain::FrameSocket;

namespace {

// One round trip: dial, send the request, read the single reply frame.
std::vector<std::uint8_t> round_trip(const std::string& host, std::uint16_t port,
                                     const std::vector<std::uint8_t>& request) {
  FrameSocket sock = domain::dial(host, port);
  sock.send(request);
  return sock.recv();
}

}  // namespace

wire::JobStatusMsg submit_job(const std::string& host, std::uint16_t port,
                              const wire::JobSpec& spec) {
  return wire::decode_job_status(round_trip(host, port, wire::encode_job_submit(spec)));
}

wire::JobStatusMsg job_status(const std::string& host, std::uint16_t port,
                              std::int32_t job_id) {
  wire::JobStatusMsg req;
  req.job_id = job_id;
  req.wait = false;
  return wire::decode_job_status(round_trip(host, port, wire::encode_job_status(req)));
}

wire::JobResultMsg wait_job(const std::string& host, std::uint16_t port,
                            std::int32_t job_id) {
  wire::JobStatusMsg req;
  req.job_id = job_id;
  req.wait = true;
  return wire::decode_job_result(round_trip(host, port, wire::encode_job_status(req)));
}

wire::JobStatusMsg cancel_job(const std::string& host, std::uint16_t port,
                              std::int32_t job_id) {
  return wire::decode_job_status(round_trip(host, port, wire::encode_job_cancel(job_id)));
}

wire::SnapshotMsg fetch_snapshot(const std::string& host, std::uint16_t port,
                                 std::int32_t job_id) {
  wire::SnapshotMsg req;
  req.job_id = job_id;  // empty sets: this is a request, not a payload
  return wire::decode_snapshot(round_trip(host, port, wire::encode_snapshot(req)));
}

metrics::Snapshot fetch_metrics(const std::string& host, std::uint16_t port) {
  return wire::decode_metrics_report(
      round_trip(host, port, wire::encode_metrics_query()));
}

void request_shutdown(const std::string& host, std::uint16_t port) {
  FrameSocket sock = domain::dial(host, port);
  sock.send(wire::encode_shutdown());
}

}  // namespace bonsai::serve
