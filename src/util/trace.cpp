#include "util/trace.hpp"

#include <algorithm>
#include <ostream>

namespace bonsai::trace {

namespace {

thread_local std::vector<Span>* t_bound = nullptr;

}  // namespace

std::vector<Span>* bound_log() { return t_bound; }

BindLog::BindLog(std::vector<Span>& log) : prev_(t_bound) { t_bound = &log; }

BindLog::~BindLog() { t_bound = prev_; }

std::int64_t estimate_clock_offset(const ClockSync& s) {
  // Classic NTP midpoint: the worker's (recv+send)/2 should coincide with the
  // coordinator's (post+arrive)/2 under symmetric delay; the difference is
  // the clock offset. Sum first to avoid losing the half-nanosecond.
  return ((s.coord_post_ns + s.coord_arrive_ns) -
          (s.worker_recv_ns + s.worker_send_ns)) /
         2;
}

void shift_spans(std::vector<Span>& spans, std::int64_t offset_ns) {
  for (Span& s : spans) {
    s.begin_ns += offset_ns;
    s.end_ns += offset_ns;
  }
}

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xF] << hex[c & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

// Chrome timestamps are microseconds; keep nanosecond precision as fractions.
void write_us(std::ostream& os, std::int64_t ns) {
  std::int64_t us = ns / 1000;
  std::int64_t rem = ns % 1000;
  if (rem < 0) {
    us -= 1;
    rem += 1000;
  }
  os << us << '.';
  os << static_cast<char>('0' + rem / 100)
     << static_cast<char>('0' + (rem / 10) % 10)
     << static_cast<char>('0' + rem % 10);
}

int pid_of(std::int32_t rank) { return rank + 1; }
int tid_of(std::int32_t lane) { return lane < 0 ? 0 : lane; }

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<Span>& spans,
                        const std::map<int, std::string>& process_names) {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& [rank, name] : process_names) {
    if (!first) os << ',';
    first = false;
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid_of(rank)
       << ",\"tid\":0,\"args\":{\"name\":";
    write_escaped(os, name);
    os << "}}";
  }
  for (const Span& s : spans) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":";
    write_escaped(os, s.name);
    os << ",\"ph\":\"X\",\"ts\":";
    write_us(os, s.begin_ns);
    os << ",\"dur\":";
    write_us(os, std::max<std::int64_t>(0, s.end_ns - s.begin_ns));
    os << ",\"pid\":" << pid_of(s.rank) << ",\"tid\":" << tid_of(s.lane)
       << ",\"args\":{";
    bool first_arg = true;
    auto arg = [&](const char* key, std::int64_t v) {
      if (!first_arg) os << ',';
      first_arg = false;
      os << '"' << key << "\":" << v;
    };
    if (s.step >= 0) arg("step", s.step);
    if (s.peer >= -1) arg("peer", s.peer);
    if (s.bytes >= 0) arg("bytes", s.bytes);
    os << "}}";
  }
  os << "]}\n";
}

}  // namespace bonsai::trace
