#include "src/obs/registry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/util/json.h"

namespace rs::obs {

namespace {

using rs::util::append_json_string;

const SteadyClock& default_clock() {
  static const SteadyClock clock;
  return clock;
}

// Thread-index slot: pairs the assigned index with the epoch it was
// assigned in, so Registry::reset() can restart numbering from zero
// without touching other threads' storage.  Epochs are unique across
// registries (Registry::next_epoch), so a slot filled by one registry is
// never mistaken for an index of another.
struct ThreadSlot {
  std::uint64_t epoch = ~std::uint64_t{0};
  std::uint32_t index = 0;
};

thread_local ThreadSlot tls_thread_slot;

// trace_event timestamps are microseconds; emit with fixed .3 precision so
// FakeClock-driven output is byte-stable.
void append_micros(std::string& out, TimeNs ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out += buf;
}

}  // namespace

void Counter::add(std::uint64_t delta) noexcept {
  if (!owner_->enabled()) return;
  // memory-order: relaxed — monotonic statistic with no ordering contract;
  // readers snapshot via value().
  value_.fetch_add(delta, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry* instance = [] {
    auto* reg = new Registry();
    // Startup-only read before any worker thread exists; no setenv racer.
    const char* env = std::getenv("ROOTSTORE_TRACE");  // NOLINT(concurrency-mt-unsafe)
    if (env != nullptr && env[0] != '\0') reg->enable();
    return reg;
  }();
  return *instance;
}

void Registry::enable(const Clock* clock) {
  // memory-order: release — publishes the clock object to probe threads,
  // pairing with the acquire load in clock().  The enabled flag itself can
  // stay relaxed: a probe that sees it early still loads a valid pointer
  // (clock_ is written first and never reverts to null).
  clock_.store(clock != nullptr ? clock : &default_clock(),
               std::memory_order_release);
  enabled_.store(true, std::memory_order_relaxed);
}

void Registry::reset() {
  const rs::util::MutexLock lock(mutex_);
  // memory-order: relaxed — reset is a quiescent-point operation (tests and
  // CLI call it between phases); concurrent probes would only re-observe
  // zeroed statistics, never torn state.
  for (auto& c : counter_storage_) {
    c->value_.store(0, std::memory_order_relaxed);
  }
  gauges_.clear();
  spans_.clear();
  next_span_id_.store(0, std::memory_order_relaxed);
  next_thread_index_.store(0, std::memory_order_relaxed);
  thread_epoch_.store(next_epoch(), std::memory_order_relaxed);
}

std::uint64_t Registry::next_epoch() noexcept {
  // memory-order: relaxed — epochs only need uniqueness, not ordering.
  static std::atomic<std::uint64_t> epochs{0};
  return epochs.fetch_add(1, std::memory_order_relaxed);
}

Counter& Registry::counter(std::string_view name) {
  const rs::util::MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  counter_storage_.push_back(
      std::unique_ptr<Counter>(new Counter(std::string(name), this)));
  Counter* c = counter_storage_.back().get();
  counters_.emplace(c->name(), c);
  return *c;
}

void Registry::set_gauge(std::string_view name, std::uint64_t value) {
  if (!enabled()) return;
  const rs::util::MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    it->second = value;
  } else {
    gauges_.emplace(std::string(name), value);
  }
}

void Registry::record_span(SpanRecord record) {
  const rs::util::MutexLock lock(mutex_);
  spans_.push_back(std::move(record));
}

std::uint32_t Registry::thread_index() {
  // memory-order: relaxed — epoch and index only need uniqueness within a
  // reset() generation, and reset() happens at quiescent points.
  const std::uint64_t epoch = thread_epoch_.load(std::memory_order_relaxed);
  if (tls_thread_slot.epoch != epoch) {
    tls_thread_slot.epoch = epoch;
    tls_thread_slot.index =
        next_thread_index_.fetch_add(1, std::memory_order_relaxed);
  }
  return tls_thread_slot.index;
}

std::vector<SpanRecord> Registry::spans() const {
  const rs::util::MutexLock lock(mutex_);
  return spans_;
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  const rs::util::MutexLock lock(mutex_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::map<std::string, std::uint64_t> Registry::counters() const {
  const rs::util::MutexLock lock(mutex_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, c] : counters_) out.emplace(name, c->value());
  return out;
}

std::map<std::string, std::uint64_t> Registry::gauges() const {
  const rs::util::MutexLock lock(mutex_);
  return {gauges_.begin(), gauges_.end()};
}

std::map<std::string, StageStats> Registry::stage_stats() const {
  std::map<std::string, StageStats> out;
  for (const auto& s : spans()) {
    auto [it, inserted] = out.try_emplace(s.name);
    StageStats& stats = it->second;
    if (inserted) {
      stats.min_ns = s.duration_ns;
      stats.max_ns = s.duration_ns;
    } else {
      stats.min_ns = std::min(stats.min_ns, s.duration_ns);
      stats.max_ns = std::max(stats.max_ns, s.duration_ns);
    }
    ++stats.count;
    stats.total_ns += s.duration_ns;
    stats.items += s.items;
  }
  return out;
}

std::string Registry::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"stages\": {";
  first = true;
  for (const auto& [name, stats] : stage_stats()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": {\"count\": " + std::to_string(stats.count) +
           ", \"total_ns\": " + std::to_string(stats.total_ns) +
           ", \"min_ns\": " + std::to_string(stats.min_ns) +
           ", \"max_ns\": " + std::to_string(stats.max_ns) +
           ", \"items\": " + std::to_string(stats.items) + "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string Registry::to_chrome_trace() const {
  // "X" (complete) events carry start + duration in one record; parent
  // nesting is reconstructed by the viewer from time containment per tid.
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "{\"name\":";
    append_json_string(out, s.name);
    out += ",\"cat\":\"rootstore\",\"ph\":\"X\",\"ts\":";
    append_micros(out, s.start_ns);
    out += ",\"dur\":";
    append_micros(out, s.duration_ns);
    out += ",\"pid\":1,\"tid\":" + std::to_string(s.thread);
    out += ",\"args\":{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"items\":" + std::to_string(s.items) + "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace rs::obs
