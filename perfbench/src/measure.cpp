#include "measure.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

namespace {

double rusage_cpu_s(int who) {
  rusage usage{};
  if (::getrusage(who, &usage) != 0) return 0;
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

std::string proc_path(pid_t pid, const char* leaf) {
  return "/proc/" + std::to_string(pid) + "/" + leaf;
}

double read_vmhwm_mb(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1;
}

}  // namespace

double process_cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }

double thread_cpu_s() { return rusage_cpu_s(RUSAGE_THREAD); }

double pid_cpu_s(pid_t pid) {
  std::ifstream in(proc_path(pid, "stat"));
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The command name may hold spaces; fields resume after the last ')'.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = -1;
  double stime = -1;
  // Field 3 (state) is the first after ')'; utime and stime are 14 and 15.
  for (int index = 3; fields >> field; ++index) {
    if (index == 14) utime = std::strtod(field.c_str(), nullptr);
    if (index == 15) {
      stime = std::strtod(field.c_str(), nullptr);
      break;
    }
  }
  if (utime < 0 || stime < 0) return -1;
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(pid_t pid) {
  return read_vmhwm_mb(proc_path(pid, "status"));
}

double self_peak_rss_mb() { return read_vmhwm_mb("/proc/self/status"); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t bound) {
  return bound == 0 ? 0 : next() % bound;
}

double Rng::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void RunResult::note(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  note(key, std::string(buf));
}

namespace {

void append_json_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

}  // namespace

void print_result(const RunResult& result) {
  std::string out = "{\"correct\":";
  out += result.failed == 0 ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) out.push_back(',');
    append_json_string(out, m.name);
    char buf[64];
    // Full precision: the value exactly as measured.
    std::snprintf(buf, sizeof buf, ":{\"value\":%.17g,\"unit\":",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += buf;
    append_json_string(out, m.unit);
    out.push_back('}');
  }
  out += "},\"context\":{";
  for (std::size_t i = 0; i < result.context.size(); ++i) {
    if (i > 0) out.push_back(',');
    append_json_string(out, result.context[i].first);
    out.push_back(':');
    append_json_string(out, result.context[i].second);
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

namespace {

void read_cpu_ticks(std::uint64_t& steal, std::uint64_t& total) {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu"
  steal = 0;
  total = 0;
  std::uint64_t value = 0;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int field = 0; field < 8 && in >> value; ++field) {
    total += value;
    if (field == 7) steal = value;
  }
}

}  // namespace

StealMeter::StealMeter() { read_cpu_ticks(steal_, total_); }

double StealMeter::share() const {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  read_cpu_ticks(steal, total);
  return total > total_ ? static_cast<double>(steal - steal_) /
                              static_cast<double>(total - total_)
                        : 0.0;
}

Phase steadiest_phase(bool retry, RunResult& result,
                      const std::function<Phase()>& measure) {
  std::string shares;
  std::size_t attempts = 0;
  const auto attempt = [&] {
    const StealMeter steal;
    Phase phase = measure();
    phase.steal_share = steal.share();
    phase.attempt = attempts++;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.4f", shares.empty() ? "" : " ",
                  phase.steal_share);
    shares += buf;
    return phase;
  };
  Phase best = attempt();
  if (retry && best.steal_share > kStealRetryShare) {
    Phase again = attempt();
    if (again.steal_share < best.steal_share) best = std::move(again);
  }
  result.note("steal_share.attempts", shares);
  return best;
}

void note_samples(RunResult& result, const std::vector<double>& op_us,
                  const std::vector<double>& setup_s) {
  result.note("p50_us.samples", static_cast<double>(op_us.size()));
  result.note("p50_us.q1", percentile(op_us, 25));
  result.note("p50_us.q3", percentile(op_us, 75));
  std::string all;
  for (const double s : setup_s) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.4f", all.empty() ? "" : " ", s);
    all += buf;
  }
  result.note("setup_s.all", all);
}

std::size_t scaled_count(double seconds, double per_second,
                         std::size_t minimum) {
  const double count = std::round(seconds * per_second);
  return std::max(minimum, static_cast<std::size_t>(std::max(0.0, count)));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

}  // namespace perfbench
