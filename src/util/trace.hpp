// Span logs: the one timing instrument of the rank program, producing the
// Table II rows, the schedule model and Chrome trace-event / Perfetto output.
//
// A thread records spans only while a log is bound to it (BindLog). Each
// rank binds its step result's span list for its whole step, so a rank's
// log holds exactly the spans its own thread closed, in end order; the
// coordinator binds its report's list. ScopedSpan appends to the calling
// thread's bound log and does nothing on a thread without one (a
// device-pool worker, a bench harness), so the instrumentation stays
// compiled in everywhere and always on where a log is bound.
//
// Spans carry the ids the async pipeline is organised around: rank, lane
// (thread of execution inside a process), step, peer and byte count. Socket
// workers ship their spans in the StepResult frame; the coordinator shifts
// them onto its own clock with an NTP-style offset estimate
// (estimate_clock_offset) before merging all ranks into one report.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "util/timer.hpp"

namespace bonsai::trace {

// One closed span. Unset argument fields are -1 (they are omitted from the
// trace JSON).
struct Span {
  std::string name;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t rank = -1;  // -1 = coordinator / no rank
  std::int32_t lane = -1;
  std::int64_t step = -1;
  std::int64_t peer = -2;  // -2 = unset (-1 is a real id: the coordinator)
  std::int64_t bytes = -1;
};

// The calling thread's bound log, or nullptr.
std::vector<Span>* bound_log();

// Binds `log` to the calling thread for the guard's lifetime: every span the
// thread closes meanwhile is appended to it. Bindings nest; the previous one
// is restored on destruction.
class BindLog {
 public:
  explicit BindLog(std::vector<Span>& log);
  ~BindLog();

  BindLog(const BindLog&) = delete;
  BindLog& operator=(const BindLog&) = delete;

 private:
  std::vector<Span>* prev_;
};

// RAII span: samples now_ns() at construction and appends to the log bound
// at construction when it closes (on destruction, or earlier with close()).
// `name` must be a string literal. Argument fields can be filled in any time
// before the span closes.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int32_t rank = -1, std::int32_t lane = -1,
                      std::int64_t step = -1)
      : log_(bound_log()),
        name_(name),
        begin_ns_(log_ != nullptr ? now_ns() : 0),
        rank_(rank),
        lane_(lane),
        step_(step) {}

  ~ScopedSpan() { close(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_peer(std::int64_t peer) { peer_ = peer; }
  void set_bytes(std::int64_t bytes) { bytes_ = bytes; }

  // Ends the span now and returns its duration in seconds (0 when no log is
  // bound); later calls, and the destructor, record nothing.
  double close() {
    if (log_ == nullptr) return 0.0;
    const std::int64_t end_ns = now_ns();
    log_->push_back({name_, begin_ns_, end_ns, rank_, lane_, step_, peer_, bytes_});
    log_ = nullptr;
    return static_cast<double>(end_ns - begin_ns_) * 1e-9;
  }

 private:
  std::vector<Span>* log_;
  const char* name_;
  std::int64_t begin_ns_;
  std::int32_t rank_, lane_;
  std::int64_t step_;
  std::int64_t peer_ = -2;
  std::int64_t bytes_ = -1;
};

// One worker's clock handshake for a step: the coordinator's send/receive
// times and the worker's corresponding local receive/send times, all on each
// machine's own steady clock.
struct ClockSync {
  std::int64_t coord_post_ns = 0;    // coordinator: StepBegin posted
  std::int64_t coord_arrive_ns = 0;  // coordinator: StepResult arrived
  std::int64_t worker_recv_ns = 0;   // worker: StepBegin decoded
  std::int64_t worker_send_ns = 0;   // worker: StepResult about to be encoded
};

// NTP-style offset estimate: add the result to a worker-local timestamp to
// express it on the coordinator's clock. Assumes symmetric network delay.
std::int64_t estimate_clock_offset(const ClockSync& s);

// Shifts every span's begin/end by offset_ns (in place).
void shift_spans(std::vector<Span>& spans, std::int64_t offset_ns);

// Writes merged spans as Chrome trace-event JSON ({"traceEvents": [...]}),
// loadable in Perfetto or chrome://tracing. pid = rank + 1 (the coordinator's
// rank -1 becomes pid 0), tid = lane (-1 maps to the driver thread 0).
// process_names optionally labels pids via metadata events, keyed by rank.
void write_chrome_trace(std::ostream& os, const std::vector<Span>& spans,
                        const std::map<int, std::string>& process_names = {});

}  // namespace bonsai::trace
