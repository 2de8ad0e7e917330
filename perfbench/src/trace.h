// Tracing for the traced (--trace 1) run.
//
// Two span sources share one steady-clock timeline:
//   * benchmark-owned spans (BenchSpan), recorded by Tracer::Scope around
//     each call the benchmark makes into a library module's public API;
//     every span of one op (one pass or one request) carries that op's id;
//   * the rs_obs stages and counters the library already records, enabled
//     only for traced ops and harvested after each one.
// Spans stay in memory; write_chrome_trace() writes them out at the end.
// A span's self time is its duration minus the part of it that its child
// spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/registry.h"

namespace perfbench {

struct BenchSpan {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = top level
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Benchmark-owned spans.  Single-threaded: every wrapped call is made from
/// the benchmark's main thread.  Disabled, a Scope only reads the clock.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;  // into tracer_.spans_, when recording
    bool recording_ = false;
  };

  void set_enabled(bool on) { enabled_ = on; }
  void begin_op(std::uint64_t op) { op_ = op; }
  const std::vector<BenchSpan>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::uint64_t op_ = 0;
  std::uint64_t next_id_ = 0;
  std::vector<std::uint64_t> stack_;
  std::vector<BenchSpan> spans_;
};

/// One traced op: its benchmark spans plus the rs_obs spans and counter
/// values recorded while it ran.
class OpTrace {
 public:
  /// Starts op `op`: enables `tracer`, resets the global rs_obs registry,
  /// claims its thread index 0 for the calling (main) thread, and enables
  /// it.
  static void begin(Tracer& tracer, std::uint64_t op);
  /// Disables both and captures what op `op` recorded.
  static OpTrace end(Tracer& tracer, std::uint64_t op);

  /// Σ inclusive duration (ms) of the op's benchmark spans named `name`.
  double bench_ms(const std::string& name) const;
  /// Σ self time (ms) of the op's benchmark spans named `name`: minus the
  /// time covered by child benchmark spans and by top-level rs_obs spans
  /// on the main thread.
  double bench_self_ms(const std::string& name) const;
  /// Σ self time (ms) of rs_obs spans named `name` (minus their rs_obs
  /// children on the same thread).
  double obs_self_ms(const std::string& name) const;
  std::uint64_t counter(const std::string& name) const;

  const std::vector<rs::obs::SpanRecord>& obs_spans() const {
    return obs_spans_;
  }

 private:
  std::vector<rs::obs::SpanRecord> obs_spans_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::int64_t> bench_ns_;
  std::map<std::string, std::int64_t> bench_self_ns_;
  std::map<std::string, std::int64_t> obs_self_ns_;
};

struct RunResult;

/// Per-op figures of the traced ops, reported as medians over ops.
class LayerSeries {
 public:
  void add(const std::string& name, double value) {
    values_[name].push_back(value);
  }
  /// Adds every series' median to `result` (units are filled in later).
  void report(RunResult& result) const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// The exec pool's counters for one traced op: tasks, summed queue wait and
/// run time, and their ratio.
void record_exec_layers(const OpTrace& t, LayerSeries& layers);

/// Writes every benchmark span and every harvested rs_obs span as Chrome
/// trace_event JSON (loadable in chrome://tracing or Perfetto).
bool write_chrome_trace(const std::string& path, const Tracer& tracer,
                        const std::vector<rs::obs::SpanRecord>& obs_spans);

}  // namespace perfbench
