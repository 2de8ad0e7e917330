// sim_index: the maintainer's index write path at simulator scale.
//
// Set-up is one simulate_ecosystem() run at the configured point (by
// default 600 CAs, 6 programs, 6 derivatives, a 30-day cadence and 2 CT
// logs).  Each timed pass, on a 2-worker pool: interns the database and
// builds the TrustIndex; serializes, deserializes and deep-verifies it;
// refreshes a stale image (each provider's newest snapshots missing) with
// append_from_database; and sweeps the landscape (agreement and exclusive
// sets over a monthly grid, CT coverage and adoption lag).
#include <algorithm>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "measure.h"
#include "src/exec/thread_pool.h"
#include "src/landscape/index_view.h"
#include "src/query/index_io.h"
#include "src/query/trust_index.h"
#include "src/store/interner.h"
#include "src/synth/simulator.h"
#include "trace.h"

namespace perfbench {
namespace {

using rs::query::TrustIndex;
using rs::query::TrustIndexIO;

constexpr std::size_t kWorkers = 2;
// Snapshots each provider is missing in the stale image.
constexpr std::size_t kStaleDrop = 3;
// Nominal passes per second on a 4-vCPU x86 host; fixes the work per run.
constexpr double kPassesPerSecond = 2.0;

rs::synth::SimulatorConfig sim_config(const Options& o) {
  rs::synth::SimulatorConfig config;
  config.seed = o.seed;
  config.ca_count = o.sim_cas;
  config.program_count = o.sim_programs;
  config.derivative_count = o.sim_derivatives;
  config.snapshot_interval_days = o.sim_interval_days;
  config.ct_log_count = o.sim_ct_logs;
  return config;
}

std::string stale_path(const Options& o) { return o.work_dir + "/stale.rsix"; }

std::span<const std::uint8_t> bytes_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

rs::store::StoreDatabase stale_database(const rs::store::StoreDatabase& db) {
  rs::store::StoreDatabase stale;
  for (const auto& [name, history] : db.histories()) {
    rs::store::ProviderHistory kept(name);
    const auto& snaps = history.snapshots();
    const std::size_t keep =
        snaps.size() > kStaleDrop ? snaps.size() - kStaleDrop : 1;
    for (std::size_t i = 0; i < keep && i < snaps.size(); ++i) {
      kept.add(snaps[i]);
    }
    stale.add(std::move(kept));
  }
  return stale;
}

std::uint64_t database_digest(const rs::store::StoreDatabase& db) {
  std::uint64_t hash = fnv1a("db", 2);
  for (const auto& [name, history] : db.histories()) {
    hash = fnv1a(name.data(), name.size(), hash);
    for (const auto& snap : history.snapshots()) {
      const std::int64_t day = snap.date.days_since_epoch();
      hash = fnv1a(&day, sizeof day, hash);
      hash = fnv1a(snap.version.data(), snap.version.size(), hash);
      for (const auto& entry : snap.entries) {
        const auto& fp = entry.certificate->sha256();
        hash = fnv1a(fp.data(), fp.size(), hash);
        for (const auto& purpose : entry.purposes) {
          const auto level = static_cast<int>(purpose.level);
          hash = fnv1a(&level, sizeof level, hash);
        }
      }
    }
  }
  return hash;
}

std::uint64_t mix(std::uint64_t hash, std::size_t value) {
  const auto v = static_cast<std::uint64_t>(value);
  return fnv1a(&v, sizeof v, hash);
}

// Agreement and exclusive sets at the first of every month in the union of
// the providers' coverage windows.
std::uint64_t grid_sweep(const TrustIndex& index,
                         rs::exec::ThreadPool* pool) {
  std::optional<rs::util::Date> first;
  std::optional<rs::util::Date> last;
  for (const auto& name : index.providers()) {
    const auto cov = index.coverage(name);
    if (!cov) continue;
    if (!first || cov->first < *first) first = cov->first;
    if (!last || *last < cov->last) last = cov->last;
  }
  std::uint64_t hash = fnv1a("grid", 4);
  if (!first) return hash;
  const std::string from = first->to_string();
  int year = std::stoi(from.substr(0, 4));
  int month = std::stoi(from.substr(5, 2));
  for (;;) {
    const rs::util::Date date = rs::util::Date::ymd(year, month, 1);
    if (*last < date) break;
    const auto view =
        rs::landscape::presence_at(index, date, rs::query::Scope::kTls);
    const auto summary = rs::landscape::agreement_summary(view.sets, pool);
    const auto exclusive = rs::landscape::exclusive_sets(view.sets, view.sets);
    hash = mix(hash, summary.union_size);
    hash = mix(hash, summary.intersection_size);
    for (const auto& pair : summary.pairs) {
      hash = mix(hash, pair.intersection);
      hash = mix(hash, pair.union_size);
    }
    for (const auto& set : exclusive) hash = mix(hash, set.size());
    if (++month > 12) {
      month = 1;
      ++year;
    }
  }
  return hash;
}

// Each CT log against every other store at the log's newest snapshot:
// coverage, log-exclusive roots and history-wide adoption lag.
std::uint64_t ct_sweep(const TrustIndex& index,
                       const std::vector<std::string>& logs) {
  const auto names = index.providers();
  const auto first_seen =
      rs::landscape::first_seen_tables(index, rs::query::Scope::kTls);
  std::uint64_t hash = fnv1a("ct", 2);
  for (const auto& log : logs) {
    const auto cov = index.coverage(log);
    if (!cov) continue;
    const auto log_view = index.store_at(log, cov->last, rs::query::Scope::kTls);
    std::vector<const rs::store::IdSet*> stores;
    std::vector<std::size_t> store_index;
    std::size_t log_index = 0;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == log) {
        log_index = i;
        continue;
      }
      const auto view =
          index.store_at(names[i], cov->last, rs::query::Scope::kTls);
      if (!view) continue;
      stores.push_back(view->roots);
      store_index.push_back(i);
    }
    const auto rows = rs::landscape::coverage_rows(*log_view->roots, stores);
    hash = mix(hash, rs::landscape::log_exclusive_count(*log_view->roots,
                                                        stores));
    for (std::size_t s = 0; s < rows.size(); ++s) {
      hash = mix(hash, rows[s].covered);
      const auto lag = rs::landscape::adoption_lag(first_seen[log_index],
                                                   first_seen[store_index[s]]);
      hash = mix(hash, lag.matched);
      hash = mix(hash, static_cast<std::size_t>(lag.total_lag_days));
    }
  }
  return hash;
}

// What every pass must reproduce: a serial build's image and the serial
// landscape sweeps' digests.
struct Reference {
  std::string image;
  std::uint64_t grid = 0;
  std::uint64_t ct = 0;
};

// One timed pass on a fresh 2-worker pool; false when any check fails.
bool run_pass(const rs::store::StoreDatabase& db,
              const std::string& stale_bytes, const Reference& reference,
              const std::vector<std::string>& ct_logs, Tracer& tracer,
              std::size_t& image_bytes) {
  rs::exec::ThreadPool pool(kWorkers);
  std::optional<rs::store::CertInterner> interner;
  {
    Tracer::Scope span(tracer, "store.from_database");
    interner.emplace(rs::store::CertInterner::from_database(db));
  }
  std::optional<TrustIndex> index;
  {
    Tracer::Scope span(tracer, "query.build");
    index.emplace(TrustIndex::build(db, *interner, &pool));
  }
  std::string image;
  {
    Tracer::Scope span(tracer, "query.serialize");
    image = TrustIndexIO::serialize(*index);
  }
  image_bytes = image.size();
  bool ok = image == reference.image;
  {
    std::optional<TrustIndex> loaded;
    {
      Tracer::Scope span(tracer, "query.deserialize");
      auto parsed = TrustIndexIO::deserialize(bytes_of(image));
      ok = ok && parsed.ok();
      if (parsed.ok()) loaded.emplace(std::move(parsed).take());
    }
    std::string round_trip;
    if (loaded) {
      Tracer::Scope span(tracer, "query.serialize");
      round_trip = TrustIndexIO::serialize(*loaded);
    }
    Tracer::Scope span(tracer, "query.verify");
    ok = ok && round_trip == image &&
         TrustIndexIO::verify(bytes_of(round_trip)).ok();
  }
  {
    // The refresh: the stale image, brought up to date by appending the
    // snapshots it lacks, must serialize to the full build's bytes.
    Tracer::Scope span(tracer, "query.refresh");
    auto stale = TrustIndexIO::deserialize(bytes_of(stale_bytes));
    ok = ok && stale.ok();
    if (stale.ok()) {
      TrustIndex refreshed = std::move(stale).take();
      {
        Tracer::Scope inner(tracer, "query.append");
        ok = ok && TrustIndexIO::append_from_database(refreshed, db).ok();
      }
      Tracer::Scope inner(tracer, "query.serialize");
      ok = ok && TrustIndexIO::serialize(refreshed) == image;
    }
  }
  {
    Tracer::Scope span(tracer, "landscape.grid");
    ok = ok && grid_sweep(*index, &pool) == reference.grid;
  }
  {
    Tracer::Scope span(tracer, "landscape.ct");
    ok = ok && ct_sweep(*index, ct_logs) == reference.ct;
  }
  return ok;
}

// Per-layer figures of one traced pass.
void record_pass_layers(const OpTrace& t, double snapshots,
                        std::size_t image_bytes, LayerSeries& layers) {
  layers.add("store.intern_ms", t.obs_self_ms("store/intern_build"));
  layers.add("store.sets_interned_per_snapshot",
             static_cast<double>(t.counter("store.sets_interned")) / snapshots);
  layers.add("query.index_build_ms", t.obs_self_ms("query/build_index"));
  layers.add("query.serialize_ms", t.bench_ms("query.serialize"));
  layers.add("query.deserialize_ms", t.bench_ms("query.deserialize"));
  layers.add("query.verify_ms", t.bench_ms("query.verify"));
  layers.add("query.append_ms", t.bench_ms("query.append"));
  layers.add("query.image_bytes", static_cast<double>(image_bytes));
  layers.add("landscape.agreement_ms", t.obs_self_ms("landscape/agreement"));
  // The whole CT sweep: coverage rows, first-seen tables and lag.
  layers.add("landscape.ct_coverage_ms", t.bench_ms("landscape.ct"));
  layers.add("landscape.grid_ms", t.bench_self_ms("landscape.grid"));
  layers.add("landscape.pairs_scored",
             static_cast<double>(t.counter("landscape.pairs_scored")));
  record_exec_layers(t, layers);
}

}  // namespace

int gen_sim_index(const Options& o) {
  const auto sim = rs::synth::simulate_ecosystem(sim_config(o));
  const auto stale = stale_database(sim.database);
  const auto index = TrustIndex::build(
      stale, rs::store::CertInterner::from_database(stale), nullptr);
  if (!write_file(stale_path(o), TrustIndexIO::serialize(index))) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 stale_path(o).c_str());
    return 1;
  }
  std::printf("database_digest=%s\n",
              hex64(database_digest(sim.database)).c_str());
  return 0;
}

RunResult run_sim_index(const Options& o) {
  RunResult result;
  const std::string stale_bytes = read_file(stale_path(o));
  Tracer tracer;
  LayerSeries layers;
  std::vector<rs::obs::SpanRecord> obs_kept;

  // --- set-up: the simulator run, several times, median reported.
  const int setups = o.trace ? 1 : 3;
  std::vector<double> setup_s;
  std::optional<rs::synth::SimulatedEcosystem> sim;
  for (int rep = 0; rep < setups; ++rep) {
    sim.reset();
    if (o.trace) OpTrace::begin(tracer, 0);
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope span(tracer, "synth.simulate");
      sim.emplace(rs::synth::simulate_ecosystem(sim_config(o)));
    }
    setup_s.push_back(seconds_since(t0));
    if (o.trace) {
      const OpTrace t = OpTrace::end(tracer, 0);
      layers.add("synth.simulate_ms", t.bench_ms("synth.simulate"));
    }
  }
  const auto& db = sim->database;
  const double snapshots = static_cast<double>(db.total_snapshots());

  // --- references, untimed: a serial build and serial landscape sweeps.
  Reference reference;
  {
    const auto index = TrustIndex::build(
        db, rs::store::CertInterner::from_database(db), nullptr);
    reference.image = TrustIndexIO::serialize(index);
    reference.grid = grid_sweep(index, nullptr);
    reference.ct = ct_sweep(index, sim->ct_log_names);
  }

  // --- timed phase: a fixed number of passes.
  const std::size_t passes = scaled_count(o.seconds, kPassesPerSecond, 5);
  std::vector<double> traced_us;
  std::vector<double> untraced_us;
  const auto measure = [&] {
    Phase phase;
    const double cpu0 = process_cpu_s();
    const std::int64_t phase0 = now_ns();
    for (std::size_t pass = 0; pass < passes; ++pass) {
      const bool traced = o.trace && pass % 2 == 1;
      const std::uint64_t op = pass + 1;
      if (traced) OpTrace::begin(tracer, op);
      std::size_t image_bytes = 0;
      const std::int64_t t0 = now_ns();
      const bool ok = run_pass(db, stale_bytes, reference, sim->ct_log_names,
                               tracer, image_bytes);
      const double us = static_cast<double>(now_ns() - t0) / 1e3;
      phase.op_us.push_back(us);
      (traced ? traced_us : untraced_us).push_back(us);
      ++result.attempted;
      if (!ok) {
        std::fprintf(stderr, "perfbench: sim_index pass %zu failed a check\n",
                     pass);
        ++result.failed;
      }
      if (traced) {
        const OpTrace t = OpTrace::end(tracer, op);
        record_pass_layers(t, snapshots, image_bytes, layers);
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
  result.note("providers", static_cast<double>(db.provider_count()));
  result.note("certificates", static_cast<double>(
      rs::store::CertInterner::from_database(db).size()));
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
