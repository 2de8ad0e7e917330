// rs_obs: the pipeline's observability registry.
//
// One Registry instance aggregates everything the instrumented pipeline
// emits: hierarchical trace spans (see span.h), monotonic counters, and
// gauges.  It serializes to two formats — a metrics JSON document (counters,
// gauges, and per-stage aggregates keyed by span name) and the Chrome
// trace_event format loadable in chrome://tracing / Perfetto.
//
// Cost model (the contract the bench gate in BENCH_obs.json pins):
//   * DISABLED (the default): Span construction and Counter::add are a
//     single relaxed atomic load each — no clock query, no allocation, no
//     lock.  tests/obs/obs_disabled_test.cpp enforces this.
//   * ENABLED: Counter::add is one relaxed atomic add; finishing a span
//     takes the registry mutex once to append its record.  Hot loops are
//     instrumented at stage granularity only, never per element.
//
// Determinism: report output never flows through this layer, so enabling
// or disabling instrumentation cannot change a single report byte (pinned
// by tests/analysis/golden_report_test.cpp).  With a FakeClock installed,
// the serialized span tree itself is byte-reproducible.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/clock.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace rs::obs {

class Registry;

/// A monotonic counter.  Handles are stable for the process lifetime:
/// Registry::counter() never invalidates previously returned references,
/// and Registry::reset() zeroes values without destroying counters, so
/// instrumentation sites may cache `static Counter&` references.
class Counter {
 public:
  /// No-op (one relaxed load) while the owning registry is disabled.
  void add(std::uint64_t delta) noexcept;
  void increment() noexcept { add(1); }

  std::uint64_t value() const noexcept {
    // memory-order: relaxed — monotonic statistic; readers only need an
    // eventually-consistent snapshot, never ordering against other state.
    return value_.load(std::memory_order_relaxed);
  }
  const std::string& name() const noexcept { return name_; }

 private:
  friend class Registry;
  Counter(std::string name, const Registry* owner)
      : name_(std::move(name)), owner_(owner) {}

  std::string name_;
  const Registry* owner_;
  std::atomic<std::uint64_t> value_{0};
};

/// One finished span, as recorded by the RAII Span (span.h).
struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;      // 1-based; 0 is reserved for "no parent"
  std::uint64_t parent = 0;  // id of the enclosing span on the same thread
  std::uint32_t thread = 0;  // dense per-registry thread index
  TimeNs start_ns = 0;
  TimeNs duration_ns = 0;
  std::uint64_t items = 0;   // optional workload size (certs, pairs, iters)
};

/// Aggregate view of all spans sharing a name: the per-stage metrics.
struct StageStats {
  std::uint64_t count = 0;
  TimeNs total_ns = 0;
  TimeNs min_ns = 0;
  TimeNs max_ns = 0;
  std::uint64_t items = 0;
};

/// Thread-safe sink for spans, counters, and gauges.
///
/// Most code uses the process-wide Registry::global(); tests construct
/// private instances.  Enabling installs a clock (default: a static
/// SteadyClock) and starts recording; disabling stops recording but keeps
/// whatever was already collected until reset().
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry.  First access honours the ROOTSTORE_TRACE
  /// environment variable: when set (non-empty), instrumentation starts
  /// enabled, so any binary in the tree can be traced without code changes.
  static Registry& global();

  /// Starts recording.  `clock` must outlive the registry; nullptr selects
  /// the built-in SteadyClock.
  void enable(const Clock* clock = nullptr);
  // memory-order: relaxed — the enabled flag is an independent on/off
  // probe; the clock pointer it gates is published separately with
  // release/acquire (see clock_), so no ordering is needed here.
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const noexcept {
    // memory-order: relaxed — see disable(); a stale read only means one
    // more or one fewer sample around an enable/disable edge.
    return enabled_.load(std::memory_order_relaxed);
  }
  const Clock& clock() const noexcept {
    // memory-order: acquire — pairs with the release store in enable() so
    // a thread that observes the pointer also observes the constructed
    // clock object behind it.
    return *clock_.load(std::memory_order_acquire);
  }

  /// Zeroes every counter, clears gauges and spans, and resets the span-id
  /// and thread-index generators.  Counter handles stay valid.
  void reset();

  /// Interns a counter by name (creating it on first use) and returns a
  /// process-lifetime-stable reference.
  Counter& counter(std::string_view name);

  /// Sets a gauge (last-write-wins instantaneous value).
  void set_gauge(std::string_view name, std::uint64_t value);

  /// Appends a finished span.  Called by Span's destructor; also usable
  /// directly for externally timed phases.
  void record_span(SpanRecord record);

  // --- introspection ------------------------------------------------------
  std::vector<SpanRecord> spans() const;
  std::uint64_t counter_value(std::string_view name) const;
  std::map<std::string, std::uint64_t> counters() const;
  std::map<std::string, std::uint64_t> gauges() const;
  /// Spans aggregated by name, sorted by name (the per-stage metrics).
  std::map<std::string, StageStats> stage_stats() const;

  // --- serialization ------------------------------------------------------
  /// Metrics document: {"counters":{...},"gauges":{...},"stages":{...}}.
  /// Keys are sorted; with a FakeClock the output is byte-reproducible.
  std::string to_json() const;
  /// Chrome trace_event JSON ("X" complete events, microsecond timestamps)
  /// loadable in chrome://tracing and Perfetto.
  std::string to_chrome_trace() const;

  // --- used by Span -------------------------------------------------------
  std::uint64_t next_span_id() noexcept {
    // memory-order: relaxed — ids only need uniqueness, not ordering.
    return next_span_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Dense index for the calling thread, assigned on first use per epoch.
  /// Epochs come from one process-wide counter, drawn at construction and
  /// at reset(), so no two registries (nor two generations of one) share
  /// an epoch, and reset() makes tests see indices from 0 again.
  std::uint32_t thread_index();

 private:
  std::atomic<bool> enabled_{false};
  // Set by enable(), read lock-free by every probe; atomic because spans on
  // worker threads may race an enable()/clock swap on the main thread.
  std::atomic<const Clock*> clock_{nullptr};

  mutable rs::util::Mutex mutex_;
  // Deque-like stable storage: counters are never destroyed or moved once
  // created, so references handed out remain valid without the lock.
  std::vector<std::unique_ptr<Counter>> counter_storage_
      RS_GUARDED_BY(mutex_);
  std::map<std::string, Counter*, std::less<>> counters_
      RS_GUARDED_BY(mutex_);
  std::map<std::string, std::uint64_t, std::less<>> gauges_
      RS_GUARDED_BY(mutex_);
  std::vector<SpanRecord> spans_ RS_GUARDED_BY(mutex_);

  std::atomic<std::uint64_t> next_span_id_{0};
  std::atomic<std::uint32_t> next_thread_index_{0};
  std::atomic<std::uint64_t> thread_epoch_{next_epoch()};

  static std::uint64_t next_epoch() noexcept;
};

}  // namespace rs::obs
