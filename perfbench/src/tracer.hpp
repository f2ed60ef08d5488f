/// \file tracer.hpp
/// Benchmark-side spans around calls into the library's public API.
///
/// Spans are opened and closed on the benchmark's own thread, so they
/// nest strictly and a parent's children never overlap: the part of a
/// span its children cover is the sum of their durations. A span's self
/// time is its duration minus that sum. Work the library times itself
/// (JobResult::stage_seconds, precompute seconds) has a duration but no
/// position; attribute() books it as a child of a named parent.
///
/// Per-name totals are kept for every span; the spans themselves are kept
/// up to a fixed capacity and counted as dropped beyond it, so a run of
/// millions of calls keeps bounded memory. write_json() dumps both at the
/// end of the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  /// Sentinel parent id of a root span.
  static constexpr std::uint32_t kRoot = 0xffffffffu;

  struct Span {
    const char* name = "";
    std::uint32_t id = 0;
    std::uint32_t parent = kRoot;
    double start_s = 0.0;  ///< seconds since the tracer was created
    double end_s = 0.0;
  };

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;  ///< summed durations
    double self_s = 0.0;   ///< summed durations minus child coverage
  };

  explicit Tracer(std::size_t capacity = std::size_t{1} << 17)
      : capacity_(capacity), epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a span as a child of the innermost open span. \p name must
  /// outlive the tracer (string literals do).
  void open(const char* name) {
    stack_.push_back({name, next_id_++, stack_.empty() ? kRoot
                                                       : stack_.back().id,
                      now(), 0.0});
  }

  /// Closes the innermost open span.
  void close() { close_at(now()); }

  /// Closes the innermost open span at \p end_s (seconds since creation);
  /// lets tests place spans exactly.
  void close_at(double end_s) {
    if (stack_.empty()) throw std::logic_error("Tracer::close: no open span");
    Frame frame = stack_.back();
    stack_.pop_back();
    const double duration = end_s - frame.start_s;
    Totals& totals = entry(frame.name);
    ++totals.count;
    totals.total_s += duration;
    totals.self_s += duration - frame.child_s;
    if (!stack_.empty()) stack_.back().child_s += duration;
    if (spans_.size() < capacity_)
      spans_.push_back({frame.name, frame.id, frame.parent, frame.start_s,
                        end_s});
    else
      ++dropped_;
  }

  /// Opens a span starting at \p start_s; the test twin of open().
  void open_at(const char* name, double start_s) {
    open(name);
    stack_.back().start_s = start_s;
  }

  /// Books \p seconds of work the library measured inside a \p parent
  /// span as a child of it: \p child's totals grow and \p parent's self
  /// time shrinks by the same amount.
  void attribute(const char* parent, const char* child, double seconds) {
    Totals& c = entry(child);
    ++c.count;
    c.total_s += seconds;
    c.self_s += seconds;
    entry(parent).self_s -= seconds;
  }

  /// Totals of \p name (zeros if it never occurred).
  [[nodiscard]] Totals totals(const char* name) const {
    for (const Entry& e : entries_)
      if (std::strcmp(e.name, name) == 0) return e.totals;
    return {};
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Seconds since the tracer was created.
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  /// {"dropped": n, "totals": {...}, "spans": [...]} with times in
  /// seconds since the tracer was created.
  void write_json(std::ostream& os) const {
    os.precision(9);
    os << "{\"dropped\":" << dropped_ << ",\"totals\":{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      os << (i ? "," : "") << "\n\"" << e.name << "\":{\"count\":"
         << e.totals.count << ",\"total_s\":" << e.totals.total_s
         << ",\"self_s\":" << e.totals.self_s << "}";
    }
    os << "},\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? "," : "") << "\n{\"name\":\"" << s.name
         << "\",\"id\":" << s.id << ",\"parent\":"
         << (s.parent == kRoot ? std::string("null")
                               : std::to_string(s.parent))
         << ",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s << "}";
    }
    os << "\n]}\n";
  }

 private:
  struct Frame {
    const char* name;
    std::uint32_t id;
    std::uint32_t parent;
    double start_s;
    double child_s;
  };
  struct Entry {
    const char* name;
    Totals totals;
  };

  Totals& entry(const char* name) {
    for (Entry& e : entries_)
      if (e.name == name || std::strcmp(e.name, name) == 0) return e.totals;
    entries_.push_back({name, {}});
    return entries_.back().totals;
  }

  std::size_t capacity_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint32_t next_id_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::vector<Entry> entries_;
};

/// Opens a span on construction and closes it on destruction; a null
/// tracer (untraced run) makes both no-ops.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(name);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
