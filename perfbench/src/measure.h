// Shared measurement plumbing for the perfbench workloads: clocks, CPU and
// memory readings from /proc, order statistics, the seeded PRNG, and the
// result record each workload fills in.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock, the clock rs_obs's
/// SteadyClock reads, so benchmark and library spans share one timeline).
std::int64_t now_ns();
double seconds_since(std::int64_t start_ns);

/// user+sys CPU seconds of this whole process (every thread).
double process_cpu_s();
/// user+sys CPU seconds of the calling thread only.
double thread_cpu_s();
/// user+sys CPU seconds of another process (every thread), from
/// /proc/<pid>/stat; negative when unreadable.
double pid_cpu_s(pid_t pid);
/// VmHWM (peak resident set) of a process in MiB; negative if unreadable.
double peak_rss_mb(pid_t pid);
double self_peak_rss_mb();

/// Median with linear interpolation; 0 for an empty sample.
double median(std::vector<double> values);
/// p-th percentile (0..100) with linear interpolation between ranks.
double percentile(std::vector<double> values, double p);

/// splitmix64: the one PRNG behind every seeded input, so equal seeds give
/// byte-identical inputs on any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound);
  /// Uniform in [0, 1).
  double unit();

 private:
  std::uint64_t state_;
};

/// FNV-1a over bytes, for input digests printed beside each run.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t seed = 0xcbf29ce484222325ULL);
std::string hex64(std::uint64_t value);

/// What one workload run reports.  `metrics` holds the end-to-end set
/// (untraced run) or the per-layer set (traced run); `context` holds
/// sample counts, input digests and other facts printed beside it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> context;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& value) {
    context.emplace_back(key, value);
  }
  void note(const std::string& key, double value);
};

/// Prints `result` as one JSON line on stdout.
void print_result(const RunResult& result);

/// Everything a workload needs from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   // per-run scratch directory inside the checkout
  std::string repo_root;  // checkout root (tests/golden lives under it)
  std::string rootstore;  // the rootstore CLI binary
  std::string trace_out;  // traced run: Chrome trace file to write
  // sim_index scale point (the gated point is the default).
  int sim_cas = 600;
  int sim_programs = 6;
  int sim_derivatives = 6;
  int sim_interval_days = 30;
  int sim_ct_logs = 2;
};

/// Hypervisor steal since construction, as a share of all CPU time of the
/// host (/proc/stat's aggregate cpu line).
class StealMeter {
 public:
  StealMeter();
  double share() const;

 private:
  std::uint64_t steal_ = 0;
  std::uint64_t total_ = 0;
};

/// One timed phase of fixed work.
struct Phase {
  std::vector<double> op_us;  // per-op latency
  double wall_s = 0;
  double cpu_s = 0;           // the program's user+sys CPU
  double steal_share = 0;
  std::size_t attempt = 0;    // which attempt steadiest_phase() kept
};

/// A timed phase during which the hypervisor stole more than this share of
/// the host's CPU time is measured once more (README.md, host hygiene).
inline constexpr double kStealRetryShare = 0.01;

/// Runs `measure` (which also counts the ops it attempts and fails into
/// `result`), repeats it once when `retry` and steal exceeded
/// kStealRetryShare, and returns the attempt with less steal.  Every
/// attempt's steal share is noted in `result`.
Phase steadiest_phase(bool retry, RunResult& result,
                      const std::function<Phase()>& measure);

/// Notes the op-latency sample count and quartiles, and every set-up time.
void note_samples(RunResult& result, const std::vector<double>& op_us,
                  const std::vector<double>& setup_s);

/// Fixed op counts per workload, derived from --seconds so that equal
/// settings always do equal work (wall_s then measures speed).
std::size_t scaled_count(double seconds, double per_second,
                         std::size_t minimum);

// Workload entry points (one translation unit each).
int gen_paper_reports(const Options& options);
RunResult run_paper_reports(const Options& options);
int gen_sim_index(const Options& options);
RunResult run_sim_index(const Options& options);
RunResult run_serve_mix(const Options& options);

/// Reads a whole file; empty when missing.
std::string read_file(const std::string& path);
bool write_file(const std::string& path, const std::string& bytes);

}  // namespace perfbench
