// Microbenchmarks for the persisted trust index (RSIX, see
// docs/PERSISTENCE.md): the two speedups the format exists to buy.
//
//   * Cold start — `rootstore serve --index FILE` deserializes the
//     persisted image (BM_ColdStartLoad / BM_ColdStartLoadFile, the mmap
//     path) instead of compiling interner + index from the database
//     (BM_ColdStartRebuild).
//   * Incremental absorb — `rootstore index append` applies one new
//     snapshot to the existing tables (BM_AppendOneSnapshot) instead of
//     recomputing the whole history (BM_FullRecompute).
//
// tools/record_bench.sh runs these, writes BENCH_incremental.json, and
// enforces the DESIGN.md floors: load >= 20x rebuild, append-one >= 10x
// full recompute, both on the paper scenario.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "src/query/index_io.h"
#include "src/query/trust_index.h"
#include "src/store/database.h"
#include "src/store/interner.h"
#include "src/store/snapshot.h"
#include "src/synth/paper_scenario.h"

namespace {

using rs::query::TrustIndex;
using rs::query::TrustIndexIO;
using rs::store::StoreDatabase;

const rs::synth::PaperScenario& shared_scenario() {
  static const rs::synth::PaperScenario scenario =
      rs::synth::build_paper_scenario();
  return scenario;
}

TrustIndex build_full() {
  const StoreDatabase& db = shared_scenario().database();
  return TrustIndex::build(db, rs::store::CertInterner::from_database(db));
}

const std::string& shared_image() {
  static const std::string image = TrustIndexIO::serialize(build_full());
  return image;
}

std::span<const std::uint8_t> as_span(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// The globally newest snapshot — the one a weekly refresh would add.
const rs::store::Snapshot& newest_snapshot(const StoreDatabase& db) {
  const rs::store::Snapshot* newest = nullptr;
  for (const auto& [name, history] : db.histories()) {
    const auto& candidate = history.back();
    if (newest == nullptr || newest->date < candidate.date) {
      newest = &candidate;
    }
  }
  return *newest;
}

/// The database with the newest snapshot's provider truncated by one
/// release: the "index on disk is one week stale" starting state.
StoreDatabase stale_db() {
  const StoreDatabase& full = shared_scenario().database();
  const std::string provider = newest_snapshot(full).provider;
  StoreDatabase out;
  for (const auto& [name, history] : full.histories()) {
    if (name != provider) {
      out.add(history);
      continue;
    }
    rs::store::ProviderHistory trimmed(name);
    for (std::size_t i = 0; i + 1 < history.size(); ++i) {
      trimmed.add(history.snapshots()[i]);
    }
    out.add(std::move(trimmed));
  }
  return out;
}

void BM_ColdStartRebuild(benchmark::State& state) {
  const StoreDatabase& db = shared_scenario().database();
  for (auto _ : state) {
    auto index = TrustIndex::build(
        db, rs::store::CertInterner::from_database(db));
    benchmark::DoNotOptimize(index.resolution_point_count());
  }
  state.counters["providers"] =
      static_cast<double>(db.histories().size());
}
BENCHMARK(BM_ColdStartRebuild)->Unit(benchmark::kMillisecond);

void BM_ColdStartLoad(benchmark::State& state) {
  const std::string& image = shared_image();
  for (auto _ : state) {
    auto loaded = TrustIndexIO::deserialize(as_span(image));
    benchmark::DoNotOptimize(loaded.ok());
  }
  state.counters["bytes"] = static_cast<double>(image.size());
}
BENCHMARK(BM_ColdStartLoad)->Unit(benchmark::kMillisecond);

// The real serve path: mmap the file, validate, deserialize.
void BM_ColdStartLoadFile(benchmark::State& state) {
  const auto path = std::filesystem::temp_directory_path() /
                    "rs_perf_persist_cold.rsix";
  auto written = TrustIndexIO::write_file(build_full(), path.string());
  if (!written.ok()) {
    state.SkipWithError(written.error().c_str());
    return;
  }
  for (auto _ : state) {
    auto loaded = TrustIndexIO::load_file(path.string());
    benchmark::DoNotOptimize(loaded.ok());
  }
  std::filesystem::remove(path);
}
BENCHMARK(BM_ColdStartLoadFile)->Unit(benchmark::kMillisecond);

void BM_FullRecompute(benchmark::State& state) {
  const StoreDatabase& db = shared_scenario().database();
  for (auto _ : state) {
    auto index = TrustIndex::build(
        db, rs::store::CertInterner::from_database(db));
    benchmark::DoNotOptimize(index.resolution_point_count());
  }
}
BENCHMARK(BM_FullRecompute)->Unit(benchmark::kMillisecond);

void BM_AppendOneSnapshot(benchmark::State& state) {
  const StoreDatabase base = stale_db();
  const TrustIndex stale = TrustIndex::build(
      base, rs::store::CertInterner::from_database(base));
  const rs::store::Snapshot& fresh =
      newest_snapshot(shared_scenario().database());
  // Append mutates, so each iteration works on a fresh copy.  Making it
  // and destroying the previous one both happen outside the clock: the
  // destructor frees every interval vector and costs several times the
  // append itself.  The timer stops before the loop's last copy dies.
  std::unique_ptr<TrustIndex> index;
  for (auto _ : state) {
    state.PauseTiming();
    index = std::make_unique<TrustIndex>(stale);
    state.ResumeTiming();
    auto ok = TrustIndexIO::append_snapshot(*index, fresh);
    benchmark::DoNotOptimize(ok.ok());
    if (!ok.ok()) {
      state.SkipWithError(ok.error().c_str());
      return;
    }
  }
  state.counters["entries"] = static_cast<double>(fresh.entries.size());
}
BENCHMARK(BM_AppendOneSnapshot)->Unit(benchmark::kMillisecond);

}  // namespace
