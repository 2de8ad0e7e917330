// perfbench: the end-to-end benchmark program (see ../README.md).
//
//   perfbench gen <workload> --seed N --dir WORK [sim options]
//       Generates a workload's seeded inputs into WORK, in a process of its
//       own so that input generation never counts towards the measured
//       process's peak RSS.
//   perfbench run <workload> --seed N --dir WORK --seconds S --trace 0|1
//                 --repo ROOT --rootstore BIN [--trace-out FILE]
//                 [--sim-cas N --sim-programs N --sim-derivatives N
//                  --sim-interval-days N --sim-ct-logs N]
//       Runs one measurement and prints one JSON line: the end-to-end
//       metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {
namespace {

// Every per-layer metric with its unit.  A traced run reports all of them;
// a layer that the workload does not run reports 0 (README.md).
const std::vector<std::pair<const char*, const char*>>& per_layer_units() {
  static const std::vector<std::pair<const char*, const char*>> table = {
      {"synth.scenario_ms", "ms"},
      {"synth.simulate_ms", "ms"},
      {"formats.load_dataset_ms", "ms"},
      {"formats.certs_decoded", "count"},
      {"formats.bytes_decoded", "bytes"},
      {"formats.decodes_per_cert", "ratio"},
      {"core.study_ms", "ms"},
      {"core.study_self_ms", "ms"},
      {"core.report_ms.table1", "ms"},
      {"core.report_ms.table2", "ms"},
      {"core.report_ms.table3", "ms"},
      {"core.report_ms.table4", "ms"},
      {"core.report_ms.table5", "ms"},
      {"core.report_ms.table6", "ms"},
      {"core.report_ms.table7", "ms"},
      {"core.report_ms.fig1", "ms"},
      {"core.report_ms.fig2", "ms"},
      {"core.report_ms.fig3", "ms"},
      {"core.report_ms.fig4", "ms"},
      {"core.report_ms.agreement", "ms"},
      {"core.report_ms.exclusivity", "ms"},
      {"core.report_ms.ct_landscape", "ms"},
      {"core.report_self_ms.table1", "ms"},
      {"core.report_self_ms.table2", "ms"},
      {"core.report_self_ms.table3", "ms"},
      {"core.report_self_ms.table4", "ms"},
      {"core.report_self_ms.table5", "ms"},
      {"core.report_self_ms.table6", "ms"},
      {"core.report_self_ms.table7", "ms"},
      {"core.report_self_ms.fig1", "ms"},
      {"core.report_self_ms.fig2", "ms"},
      {"core.report_self_ms.fig3", "ms"},
      {"core.report_self_ms.fig4", "ms"},
      {"core.report_self_ms.agreement", "ms"},
      {"core.report_self_ms.exclusivity", "ms"},
      {"core.report_self_ms.ct_landscape", "ms"},
      {"analysis.jaccard_matrix_ms", "ms"},
      {"analysis.mds_smacof_ms", "ms"},
      {"analysis.staleness_ms", "ms"},
      {"analysis.diffs_ms", "ms"},
      {"analysis.jaccard_pairs", "count"},
      {"analysis.set_cache_hits", "count"},
      {"store.intern_ms", "ms"},
      {"store.sets_interned_per_snapshot", "ratio"},
      {"query.index_build_ms", "ms"},
      {"query.serialize_ms", "ms"},
      {"query.deserialize_ms", "ms"},
      {"query.verify_ms", "ms"},
      {"query.append_ms", "ms"},
      {"query.image_bytes", "bytes"},
      {"query.load_file_ms", "ms"},
      {"landscape.agreement_ms", "ms"},
      {"landscape.ct_coverage_ms", "ms"},
      {"landscape.grid_ms", "ms"},
      {"landscape.pairs_scored", "count"},
      {"exec.pool_tasks", "count"},
      {"exec.queue_wait_ms", "ms"},
      {"exec.run_ms", "ms"},
      {"exec.wait_over_run", "ratio"},
      {"query.handle_us.is_trusted", "us"},
      {"query.handle_us.providers_trusting", "us"},
      {"query.handle_us.lineage", "us"},
      {"query.handle_us.store_at", "us"},
      {"query.handle_us.diff", "us"},
      {"query.handle_us.verify_chain", "us"},
      {"query.handle_us.first_rejected_at", "us"},
      {"query.handle_us.agreement_at", "us"},
      {"query.handle_us.ct_coverage", "us"},
      {"serve.respond_us_p50", "us"},
      {"serve.respond_us_p99", "us"},
      {"serve.socket_p99_us", "us"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.transport_us", "us"},
      {"serve.cpu_us_per_request", "us"},
      {"serve.errors", "count"},
      {"client.cpu_share", "ratio"},
      {"obs.tracing_overhead", "ratio"},
  };
  return table;
}

// Orders a traced run's metrics as the table does, fills in units, adds 0
// for layers the workload did not run, and rejects names not in the table.
bool complete_per_layer(RunResult& result) {
  std::map<std::string, double> measured;
  for (const auto& m : result.metrics) measured[m.name] = m.value;
  bool ok = true;
  for (const auto& [name, value] : measured) {
    bool known = false;
    for (const auto& entry : per_layer_units()) known |= name == entry.first;
    if (!known) {
      std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
                   name.c_str());
      ok = false;
    }
  }
  result.metrics.clear();
  for (const auto& [name, unit] : per_layer_units()) {
    const auto it = measured.find(name);
    result.add(name, it == measured.end() ? 0.0 : it->second, unit);
  }
  return ok;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench gen|run <paper_reports|sim_index|serve_mix> "
               "--seed N --dir WORK [--seconds S --trace 0|1 --repo ROOT "
               "--rootstore BIN --trace-out FILE --sim-cas N ...]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 3) return usage();
  const std::string mode = argv[1];
  Options o;
  o.workload = argv[2];
  for (int i = 3; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    const auto as_int = [&] { return std::atoi(value.c_str()); };
    if (key == "--seed") o.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") o.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") o.trace = value == "1";
    else if (key == "--dir") o.work_dir = value;
    else if (key == "--repo") o.repo_root = value;
    else if (key == "--rootstore") o.rootstore = value;
    else if (key == "--trace-out") o.trace_out = value;
    else if (key == "--sim-cas") o.sim_cas = as_int();
    else if (key == "--sim-programs") o.sim_programs = as_int();
    else if (key == "--sim-derivatives") o.sim_derivatives = as_int();
    else if (key == "--sim-interval-days") o.sim_interval_days = as_int();
    else if (key == "--sim-ct-logs") o.sim_ct_logs = as_int();
    else return usage();
  }
  if (o.work_dir.empty() || o.seconds <= 0) return usage();

  if (mode == "gen") {
    if (o.workload == "paper_reports") return gen_paper_reports(o);
    if (o.workload == "sim_index") return gen_sim_index(o);
    return usage();
  }
  if (mode != "run") return usage();
  RunResult result;
  if (o.workload == "paper_reports") result = run_paper_reports(o);
  else if (o.workload == "sim_index") result = run_sim_index(o);
  else if (o.workload == "serve_mix") result = run_serve_mix(o);
  else return usage();
  if (result.attempted == 0) return 1;  // could not run at all
  if (o.trace && !complete_per_layer(result)) return 1;
  print_result(result);
  return 0;
}
