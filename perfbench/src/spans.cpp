#include "spans.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <utility>

#include "util/json.h"
#include "util/status.h"

namespace perfbench {

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

uint64_t SpanRecorder::begin(std::string name, bool probe) {
  Span s;
  s.name = std::move(name);
  s.id = spans_.size() + 1;
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.request = request_;
  s.probe = probe;
  s.start = now();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanRecorder::end(uint64_t id) {
  FORAY_CHECK(!open_.empty() && spans_[open_.back()].id == id,
              "SpanRecorder::end: span closed out of order");
  spans_[open_.back()].end = now();
  open_.pop_back();
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    const auto parent = index.find(s.parent);
    if (s.parent == 0 || parent == index.end()) continue;
    children[parent->second].emplace_back(s.start, s.end);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start;  // end of the covered prefix so far
    for (const auto& [kid_start, kid_end] : kids) {
      const double lo = std::max(kid_start, reach);
      const double hi = std::min(kid_end, s.end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(kid_end, s.end));
    }
    self[i] = s.seconds() - covered;
  }
  return self;
}

void write_chrome_trace(std::ostream& out, const std::vector<Span>& spans) {
  foray::util::JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const Span& s : spans) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value(s.probe ? "probe" : "layer");
    w.key("ph").value("X");
    w.key("ts").value(s.start * 1e6);
    w.key("dur").value(s.seconds() * 1e6);
    w.key("pid").value(static_cast<int64_t>(1));
    w.key("tid").value(static_cast<int64_t>(1));
    w.key("args").begin_object();
    w.key("span_id").value(s.id);
    w.key("parent_id").value(s.parent);
    w.key("request_id").value(s.request);
    w.key("end_us").value(s.end * 1e6);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << w.take() << '\n';
}

}  // namespace perfbench
