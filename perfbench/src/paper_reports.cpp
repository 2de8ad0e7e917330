// paper_reports: the researcher's path.
//
// Set-up is `rootstore report --from DIR`'s front half: build the paper
// scenario and decode the exported 670-snapshot dataset through the real
// format parsers.  Each timed pass then copies the decoded scenario, builds
// a fresh EcosystemStudy on a 2-worker pool and renders all 14 reports in a
// seeded order, each byte-compared with the expected text.
//
// The scenario is the paper's (kPaperSeed) whatever --seed is, so every
// pass is checked against tests/golden: other scenario seeds change the
// SMACOF iteration count, and with it the work of a pass, by up to 2x.
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "measure.h"
#include "src/core/study.h"
#include "src/formats/dataset_io.h"
#include "src/store/interner.h"
#include "src/synth/paper_scenario.h"
#include "trace.h"

namespace perfbench {
namespace {

using rs::core::EcosystemStudy;

struct Report {
  const char* name;
  std::function<std::string(EcosystemStudy&)> render;
};

const std::vector<Report>& reports() {
  static const std::vector<Report> all = {
      {"table1", [](EcosystemStudy& s) { return s.report_table1(); }},
      {"table2", [](EcosystemStudy& s) { return s.report_table2(); }},
      {"table3", [](EcosystemStudy& s) { return s.report_table3(); }},
      {"table4", [](EcosystemStudy& s) { return s.report_table4(); }},
      {"table5", [](EcosystemStudy& s) { return s.report_table5(); }},
      {"table6", [](EcosystemStudy& s) { return s.report_table6(); }},
      {"table7", [](EcosystemStudy& s) { return s.report_table7(); }},
      {"fig1", [](EcosystemStudy& s) { return s.report_figure1(); }},
      {"fig2", [](EcosystemStudy& s) { return s.report_figure2(); }},
      {"fig3", [](EcosystemStudy& s) { return s.report_figure3(); }},
      {"fig4", [](EcosystemStudy& s) { return s.report_figure4(); }},
      {"agreement", [](EcosystemStudy& s) { return s.report_agreement(); }},
      {"exclusivity",
       [](EcosystemStudy& s) { return s.report_exclusivity(); }},
      {"ct_landscape",
       [](EcosystemStudy& s) { return s.report_ct_landscape(); }},
  };
  return all;
}

constexpr std::size_t kWorkers = 2;
// Nominal passes per second on a 4-vCPU x86 host; fixes the work per run.
constexpr double kPassesPerSecond = 2.0;

std::string dataset_dir(const Options& o) { return o.work_dir + "/dataset"; }

// Digest of the exported dataset, file by file in MANIFEST order.
std::uint64_t dataset_digest(const std::string& dir) {
  const std::string manifest = read_file(dir + "/MANIFEST");
  std::uint64_t hash = fnv1a(manifest.data(), manifest.size());
  std::size_t pos = 0;
  while (pos < manifest.size()) {
    const std::size_t nl = manifest.find('\n', pos);
    const std::string line = manifest.substr(pos, nl - pos);
    pos = nl == std::string::npos ? manifest.size() : nl + 1;
    const std::size_t tab = line.rfind('\t');
    if (tab == std::string::npos) continue;
    const std::string bytes = read_file(dir + "/" + line.substr(tab + 1));
    hash = fnv1a(bytes.data(), bytes.size(), hash);
  }
  return hash;
}

// Per-layer figures of one traced pass.
void record_pass_layers(const OpTrace& t, double snapshots,
                        LayerSeries& layers) {
  layers.add("core.study_ms", t.bench_ms("core.study"));
  // Self time of a core span: the benchmark span's own time plus the
  // library's same-named stage minus the deeper stages under it.
  layers.add("core.study_self_ms",
             t.bench_self_ms("core.study") + t.obs_self_ms("study/build"));
  for (const auto& report : reports()) {
    const std::string span = std::string("core.report.") + report.name;
    layers.add(std::string("core.report_ms.") + report.name, t.bench_ms(span));
    layers.add(std::string("core.report_self_ms.") + report.name,
               t.bench_self_ms(span) +
                   t.obs_self_ms(std::string("report/") + report.name));
  }
  layers.add("analysis.jaccard_matrix_ms", t.obs_self_ms("jaccard/matrix"));
  layers.add("analysis.mds_smacof_ms", t.obs_self_ms("mds/smacof"));
  layers.add("analysis.staleness_ms", t.obs_self_ms("staleness/version_index") +
                                          t.obs_self_ms("staleness/derivative"));
  layers.add("analysis.diffs_ms", t.obs_self_ms("diffs/derivative"));
  layers.add("analysis.jaccard_pairs",
             static_cast<double>(t.counter("analysis.jaccard_pairs")));
  layers.add("analysis.set_cache_hits",
             static_cast<double>(t.counter("analysis.set_cache_hits")));
  layers.add("store.intern_ms", t.obs_self_ms("store/intern_build"));
  layers.add("store.sets_interned_per_snapshot",
             static_cast<double>(t.counter("store.sets_interned")) / snapshots);
  layers.add("query.index_build_ms", t.obs_self_ms("query/build_index"));
  layers.add("landscape.agreement_ms", t.obs_self_ms("landscape/agreement"));
  layers.add("landscape.ct_coverage_ms", t.obs_self_ms("landscape/ct_coverage"));
  layers.add("landscape.pairs_scored",
             static_cast<double>(t.counter("landscape.pairs_scored")));
  record_exec_layers(t, layers);
}

}  // namespace

int gen_paper_reports(const Options& o) {
  const auto scenario = rs::synth::build_paper_scenario(rs::synth::kPaperSeed);
  auto written = rs::formats::write_dataset(scenario.database(),
                                            dataset_dir(o));
  if (!written.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", written.error().c_str());
    return 1;
  }
  std::printf("dataset_digest=%s\n",
              hex64(dataset_digest(dataset_dir(o))).c_str());
  return 0;
}

RunResult run_paper_reports(const Options& o) {
  RunResult result;
  std::vector<std::string> expected;
  for (const auto& report : reports()) {
    const std::string path =
        o.repo_root + "/tests/golden/report_" + report.name + ".txt";
    expected.push_back(read_file(path));
    if (expected.back().empty()) {
      std::fprintf(stderr, "perfbench: missing golden %s\n", path.c_str());
    }
  }

  Tracer tracer;
  LayerSeries layers;
  std::vector<rs::obs::SpanRecord> obs_kept;

  // --- set-up: scenario + dataset decode, several times, median reported.
  const int setups = o.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::optional<rs::synth::PaperScenario> scenario;
  for (int rep = 0; rep < setups; ++rep) {
    scenario.reset();
    if (o.trace) OpTrace::begin(tracer, 0);
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope span(tracer, "synth.build_paper_scenario");
      scenario.emplace(rs::synth::build_paper_scenario(rs::synth::kPaperSeed));
    }
    {
      Tracer::Scope span(tracer, "formats.load_dataset");
      auto loaded = rs::formats::load_dataset(dataset_dir(o));
      if (!loaded.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", loaded.error().c_str());
        result.attempted = 1;
        result.failed = 1;
        return result;
      }
      scenario->replace_database(std::move(loaded).take());
    }
    setup_s.push_back(seconds_since(t0));
    if (o.trace) {
      const OpTrace t = OpTrace::end(tracer, 0);
      const auto distinct = static_cast<double>(
          rs::store::CertInterner::from_database(scenario->database()).size());
      const auto decoded = static_cast<double>(t.counter("formats.certs_decoded"));
      layers.add("synth.scenario_ms", t.bench_ms("synth.build_paper_scenario"));
      layers.add("formats.load_dataset_ms", t.bench_ms("formats.load_dataset"));
      layers.add("formats.certs_decoded", decoded);
      layers.add("formats.bytes_decoded",
                 static_cast<double>(t.counter("formats.bytes_decoded")));
      layers.add("formats.decodes_per_cert",
                 distinct > 0 ? decoded / distinct : 0.0);
      obs_kept.insert(obs_kept.end(), t.obs_spans().begin(),
                      t.obs_spans().end());
    }
  }
  const double snapshots =
      static_cast<double>(scenario->database().total_snapshots());

  // --- timed phase: a fixed number of passes.
  const std::size_t passes = scaled_count(o.seconds, kPassesPerSecond, 5);
  std::vector<double> traced_us;
  std::vector<double> untraced_us;
  Rng order_rng(o.seed);
  std::vector<std::size_t> order(reports().size());
  const auto measure = [&] {
    Phase phase;
    const double cpu0 = process_cpu_s();
    const std::int64_t phase0 = now_ns();
    for (std::size_t pass = 0; pass < passes; ++pass) {
      // The traced run alternates untraced and traced passes, so the
      // tracing overhead is measured on interleaved, equal work.
      const bool traced = o.trace && pass % 2 == 1;
      const std::uint64_t op = pass + 1;
      if (traced) OpTrace::begin(tracer, op);
      // A seeded report order per pass: which landscape report builds the
      // study's lazy TrustIndex, and what each report finds in the caches,
      // differ between passes; the bytes must not.
      for (std::size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
        std::swap(order[i], order[order_rng.below(i + 1)]);
      }
      std::vector<std::string> outputs(reports().size());
      const std::int64_t t0 = now_ns();
      {
        std::optional<EcosystemStudy> study;
        {
          Tracer::Scope span(tracer, "core.study");
          rs::synth::PaperScenario copy = *scenario;
          study.emplace(std::move(copy), rs::core::StudyOptions{kWorkers});
        }
        for (const std::size_t r : order) {
          const Report& report = reports()[r];
          Tracer::Scope span(tracer,
                             std::string("core.report.") + report.name);
          outputs[r] = report.render(*study);
        }
      }
      const double us = static_cast<double>(now_ns() - t0) / 1e3;
      phase.op_us.push_back(us);
      (traced ? traced_us : untraced_us).push_back(us);

      ++result.attempted;
      for (std::size_t r = 0; r < outputs.size(); ++r) {
        if (outputs[r] != expected[r]) {
          std::fprintf(stderr, "perfbench: pass %zu: report %s differs\n",
                       pass, reports()[r].name);
          ++result.failed;
          break;
        }
      }
      if (traced) {
        const OpTrace t = OpTrace::end(tracer, op);
        record_pass_layers(t, snapshots, layers);
        obs_kept.insert(obs_kept.end(), t.obs_spans().begin(),
                        t.obs_spans().end());
      }
    }
    phase.wall_s = seconds_since(phase0);
    phase.cpu_s = process_cpu_s() - cpu0;
    return phase;
  };
  const Phase phase = steadiest_phase(!o.trace, result, measure);

  result.note("passes", static_cast<double>(passes));
  result.note("workers", static_cast<double>(kWorkers));
  result.note("snapshots", snapshots);
  result.note("setup_reps", static_cast<double>(setups));
  if (!o.trace) {
    result.add("setup_s", median(setup_s), "s");
    result.add("wall_s", phase.wall_s, "s");
    result.add("cpu_s", phase.cpu_s, "s");
    result.add("peak_rss_mb", self_peak_rss_mb(), "MiB");
    result.add("ops_per_s", static_cast<double>(passes) / phase.wall_s, "1/s");
    result.add("p50_us", median(phase.op_us), "us");
    note_samples(result, phase.op_us, setup_s);
    return result;
  }
  layers.report(result);
  result.add("obs.tracing_overhead",
             median(traced_us) / median(untraced_us) - 1.0, "");
  result.note("traced_passes", static_cast<double>(traced_us.size()));
  if (!o.trace_out.empty() &&
      !write_chrome_trace(o.trace_out, tracer, obs_kept)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
  }
  return result;
}

}  // namespace perfbench
