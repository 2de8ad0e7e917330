#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "measure.h"

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  recording_ = true;
  BenchSpan span;
  span.name = std::move(name);
  span.id = ++tracer_.next_id_;
  span.parent = tracer_.stack_.empty() ? 0 : tracer_.stack_.back();
  span.op = tracer_.op_;
  span.start_ns = now_ns();
  index_ = tracer_.spans_.size();
  tracer_.stack_.push_back(span.id);
  tracer_.spans_.push_back(std::move(span));
}

Tracer::Scope::~Scope() {
  if (!recording_) return;
  tracer_.spans_[index_].end_ns = now_ns();
  tracer_.stack_.pop_back();
}

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

// Length of the union of `children` clipped to [begin, end).
std::int64_t covered_ns(std::vector<Interval> children, std::int64_t begin,
                        std::int64_t end) {
  for (auto& c : children) {
    c.first = std::max(c.first, begin);
    c.second = std::min(c.second, end);
  }
  std::sort(children.begin(), children.end());
  std::int64_t total = 0;
  std::int64_t cursor = begin;
  for (const auto& [lo, hi] : children) {
    const std::int64_t from = std::max(lo, cursor);
    if (hi > from) {
      total += hi - from;
      cursor = hi;
    }
  }
  return total;
}

Interval obs_interval(const rs::obs::SpanRecord& r) {
  const auto start = static_cast<std::int64_t>(r.start_ns);
  return {start, start + static_cast<std::int64_t>(r.duration_ns)};
}

constexpr std::uint32_t kMainThread = 0;

}  // namespace

void OpTrace::begin(Tracer& tracer, std::uint64_t op) {
  tracer.set_enabled(true);
  tracer.begin_op(op);
  auto& registry = rs::obs::Registry::global();
  registry.reset();
  // The first thread to ask after a reset gets index 0: make it this one,
  // so top-level main-thread stages can be told from pool-worker stages.
  (void)registry.thread_index();
  registry.enable();
}

OpTrace OpTrace::end(Tracer& tracer, std::uint64_t op) {
  tracer.set_enabled(false);
  auto& registry = rs::obs::Registry::global();
  registry.disable();
  OpTrace trace;
  trace.obs_spans_ = registry.spans();
  trace.counters_ = registry.counters();

  // rs_obs self times: children share the parent's thread by construction.
  std::map<std::uint64_t, std::vector<Interval>> obs_children;
  for (const auto& record : trace.obs_spans_) {
    if (record.parent != 0) {
      obs_children[record.parent].push_back(obs_interval(record));
    }
  }
  for (const auto& record : trace.obs_spans_) {
    const Interval iv = obs_interval(record);
    const auto it = obs_children.find(record.id);
    const std::int64_t covered =
        it == obs_children.end()
            ? 0
            : covered_ns(it->second, iv.first, iv.second);
    trace.obs_self_ns_[record.name] += (iv.second - iv.first) - covered;
  }

  // Benchmark self times: children are nested benchmark spans plus the
  // top-level rs_obs stages that ran on the main thread inside the span.
  std::vector<const BenchSpan*> spans;
  for (const auto& span : tracer.spans()) {
    if (span.op == op) spans.push_back(&span);
  }
  std::vector<Interval> main_stages;
  for (const auto& record : trace.obs_spans_) {
    if (record.thread == kMainThread && record.parent == 0) {
      main_stages.push_back(obs_interval(record));
    }
  }
  for (const BenchSpan* span : spans) {
    std::vector<Interval> children;
    for (const BenchSpan* child : spans) {
      if (child->parent == span->id) {
        children.emplace_back(child->start_ns, child->end_ns);
      }
    }
    for (const Interval& iv : main_stages) {
      if (iv.first >= span->start_ns && iv.second <= span->end_ns) {
        children.push_back(iv);
      }
    }
    const std::int64_t duration = span->end_ns - span->start_ns;
    trace.bench_ns_[span->name] += duration;
    trace.bench_self_ns_[span->name] +=
        duration - covered_ns(std::move(children), span->start_ns,
                              span->end_ns);
  }
  return trace;
}

namespace {

double lookup_ms(const std::map<std::string, std::int64_t>& totals,
                 const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
}

}  // namespace

double OpTrace::bench_ms(const std::string& name) const {
  return lookup_ms(bench_ns_, name);
}

double OpTrace::bench_self_ms(const std::string& name) const {
  return lookup_ms(bench_self_ns_, name);
}

double OpTrace::obs_self_ms(const std::string& name) const {
  return lookup_ms(obs_self_ns_, name);
}

std::uint64_t OpTrace::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void LayerSeries::report(RunResult& result) const {
  for (const auto& [name, values] : values_) {
    result.add(name, median(values), "");
  }
}

void record_exec_layers(const OpTrace& t, LayerSeries& layers) {
  const double wait_ms =
      static_cast<double>(t.counter("exec.pool_queue_wait_ns")) / 1e6;
  const double run_ms = static_cast<double>(t.counter("exec.pool_run_ns")) / 1e6;
  layers.add("exec.pool_tasks", static_cast<double>(t.counter("exec.pool_tasks")));
  layers.add("exec.queue_wait_ms", wait_ms);
  layers.add("exec.run_ms", run_ms);
  layers.add("exec.wait_over_run", run_ms > 0 ? wait_ms / run_ms : 0.0);
}

bool write_chrome_trace(const std::string& path, const Tracer& tracer,
                        const std::vector<rs::obs::SpanRecord>& obs_spans) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  char buf[512];
  const auto emit = [&](const std::string& name, std::uint32_t tid,
                        std::int64_t start_ns, std::int64_t dur_ns,
                        const char* args) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}",
                  first ? "" : ",\n", name.c_str(), tid,
                  static_cast<double>(start_ns) / 1e3,
                  static_cast<double>(dur_ns) / 1e3, args);
    out << buf;
    first = false;
  };
  char args[128];
  for (const auto& span : tracer.spans()) {
    std::snprintf(args, sizeof args,
                  "\"source\":\"perfbench\",\"op\":%llu,\"id\":%llu,"
                  "\"parent\":%llu",
                  static_cast<unsigned long long>(span.op),
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent));
    emit(span.name, 0, span.start_ns, span.end_ns - span.start_ns, args);
  }
  for (const auto& record : obs_spans) {
    std::snprintf(args, sizeof args,
                  "\"source\":\"rs_obs\",\"id\":%llu,\"parent\":%llu,"
                  "\"items\":%llu",
                  static_cast<unsigned long long>(record.id),
                  static_cast<unsigned long long>(record.parent),
                  static_cast<unsigned long long>(record.items));
    emit(record.name, record.thread + 1,
         static_cast<std::int64_t>(record.start_ns),
         static_cast<std::int64_t>(record.duration_ns), args);
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
