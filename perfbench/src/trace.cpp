#include "trace.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {
thread_local std::uint64_t t_current = 0;
}  // namespace

void Tracer::record(const Span& s) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(s);
}

void Tracer::record(const char* name, std::uint64_t parent,
                    std::int64_t start_ns, std::int64_t end_ns) {
  record(Span{next_id(), parent, name, start_ns, end_ns});
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name)
    : ScopedSpan(tracer, name, t_current) {}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->next_id();
  span_.parent = parent;
  span_.name = name;
  saved_current_ = t_current;
  t_current = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = now_ns();
  t_current = saved_current_;
  tracer_->record(span_);
}

std::map<std::string, LayerTotals> layer_totals(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::map<std::string, LayerTotals> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (const Span& s : spans) {
    const std::int64_t dur = s.end_ns - s.start_ns;
    std::int64_t covered = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      intervals.clear();
      for (const std::size_t c : it->second) {
        const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
        const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
        if (hi > lo) intervals.emplace_back(lo, hi);
      }
      std::sort(intervals.begin(), intervals.end());
      std::int64_t run_lo = 0;
      std::int64_t run_hi = std::numeric_limits<std::int64_t>::min();
      for (const auto& [lo, hi] : intervals) {
        if (lo > run_hi) {
          if (run_hi > run_lo) covered += run_hi - run_lo;
          run_lo = lo;
          run_hi = hi;
        } else {
          run_hi = std::max(run_hi, hi);
        }
      }
      if (run_hi > run_lo) covered += run_hi - run_lo;
    }
    LayerTotals& t = out[s.name];
    t.durations_s.push_back(static_cast<double>(dur) * 1e-9);
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - covered) * 1e-9;
  }
  return out;
}

void write_spans(std::ostream& os, const std::vector<Span>& spans) {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  os << "id\tparent\tname\tstart_ns\tend_ns\n";
  for (const Span& s : spans) {
    os << s.id << '\t' << s.parent << '\t' << s.name << '\t'
       << s.start_ns - origin << '\t' << s.end_ns - origin << '\n';
  }
}

}  // namespace perfbench
