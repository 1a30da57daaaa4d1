// Spans recorded by the traced run, around the benchmark's calls into each
// layer of the program.
//
// A span has a name, a start and an end, its own id, the id of the span
// that was open when it began (its parent) and the id of the request it
// served; every span of one traced iteration shares that request id.
// Spans stay in memory and are written out as Chrome Trace Event JSON when
// the run ends, the format the program's own spans are to be exported in.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder was created
  double end = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0: no parent
  uint64_t request = 0;
  /// A call made only to time one layer on its own (the real path fuses
  /// it with another layer, or runs it inside a call the benchmark cannot
  /// split). Probe time is not part of the work the iteration mirrors.
  bool probe = false;

  double seconds() const { return end - start; }
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span nested in the innermost open one; returns its id.
  uint64_t begin(std::string name, bool probe = false);
  /// Closes the innermost open span, which must be `id`.
  void end(uint64_t id);

  /// Request id given to the spans opened from now on.
  void set_request(uint64_t request) { request_ = request; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  ///< indices into spans_, innermost last
  uint64_t request_ = 0;
};

/// Times the enclosing scope as one span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name, bool probe = false)
      : rec_(rec), id_(rec->begin(std::move(name), probe)) {}
  ~ScopedSpan() { rec_->end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  uint64_t id_;
};

/// Self time of every span, index for index: its duration minus the part
/// of its interval that its direct children cover.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Writes the spans as Chrome Trace Event JSON (complete "X" events; the
/// span, parent and request ids ride in each event's args).
void write_chrome_trace(std::ostream& out, const std::vector<Span>& spans);

}  // namespace perfbench
