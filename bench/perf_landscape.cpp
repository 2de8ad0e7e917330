// Microbenchmarks for the landscape disparity pass (docs/LANDSCAPE.md).
//
//   * BM_AgreementMatrixIdSet — the shipped path: resolve every provider's
//     store at one date through the TrustIndex (borrowed IdSet views, no
//     copies) and run landscape::agreement_summary, i.e. word-parallel
//     popcounts over interned presence vectors.
//   * BM_AgreementMatrixNaive — the honest baseline an implementation
//     without the interner would run: extract each provider's snapshot
//     into a sorted set of 32-byte digests (the test referee's
//     FingerprintSet, tests/referee/fingerprint_set.h) and compute the
//     same sizes / exclusive counts / pairwise matrix / union /
//     intersection by merge scans.
//
// tools/record_bench.sh runs these, writes BENCH_landscape.json, and
// enforces the floor: the IdSet matrix must beat the naive scan by >= 5x
// on the simulated ecosystem below.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "src/landscape/index_view.h"
#include "src/landscape/presence.h"
#include "src/query/engine.h"
#include "src/query/request.h"
#include "src/store/database.h"
#include "src/synth/simulator.h"
#include "src/util/date.h"
#include "tests/referee/fingerprint_set.h"

namespace {

using rs::query::QueryEngine;
using rs::query::Scope;
using rs::referee::FingerprintSet;
using rs::util::Date;

/// A mid-size simulated ecosystem: 4 programs, 8 derivatives, 2 CT logs
/// over 21 years at a 60-day cadence.  Big enough that the per-pair work
/// dominates the per-iteration fixed costs on both sides.
struct Bench {
  rs::synth::SimulatedEcosystem eco;
  QueryEngine engine;
  Date date = Date::ymd(2015, 6, 1);

  static rs::synth::SimulatorConfig config() {
    rs::synth::SimulatorConfig cfg;
    cfg.seed = 20210801;
    cfg.ca_count = 300;
    cfg.program_count = 4;
    cfg.derivative_count = 8;
    cfg.ct_log_count = 2;
    return cfg;
  }

  Bench()
      : eco(rs::synth::simulate_ecosystem(config())),
        engine(eco.database, {}) {}
};

const Bench& bench() {
  static const Bench* b = new Bench();
  return *b;
}

void BM_AgreementMatrixIdSet(benchmark::State& state) {
  const Bench& b = bench();
  for (auto _ : state) {
    const auto view =
        rs::landscape::presence_at(b.engine.index(), b.date, Scope::kTls);
    auto summary = rs::landscape::agreement_summary(view.sets);
    benchmark::DoNotOptimize(summary);
  }
}
BENCHMARK(BM_AgreementMatrixIdSet);

/// The same metrics from scratch with sorted-digest sets: what every
/// request would cost without interned presence vectors.
void BM_AgreementMatrixNaive(benchmark::State& state) {
  const Bench& b = bench();
  const auto& db = b.eco.database;
  for (auto _ : state) {
    std::vector<FingerprintSet> sets;
    for (const auto& name : db.providers()) {
      const auto* snap = db.find(name)->at(b.date);
      if (snap != nullptr) sets.push_back(rs::referee::tls_anchors(*snap));
    }
    std::vector<std::size_t> sizes, exclusive;
    FingerprintSet union_all, intersection_all;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      sizes.push_back(sets[i].size());
      FingerprintSet others;
      for (std::size_t j = 0; j < sets.size(); ++j) {
        if (j != i) others = others.set_union(sets[j]);
      }
      exclusive.push_back(sets[i].difference(others).size());
      union_all = union_all.set_union(sets[i]);
      intersection_all =
          i == 0 ? sets[i] : intersection_all.intersection(sets[i]);
    }
    std::vector<std::size_t> pair_scores;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      for (std::size_t j = i + 1; j < sets.size(); ++j) {
        pair_scores.push_back(sets[i].intersection_size(sets[j]));
        pair_scores.push_back(sets[i].union_size(sets[j]));
      }
    }
    benchmark::DoNotOptimize(sizes);
    benchmark::DoNotOptimize(exclusive);
    benchmark::DoNotOptimize(pair_scores);
    benchmark::DoNotOptimize(union_all);
    benchmark::DoNotOptimize(intersection_all);
  }
}
BENCHMARK(BM_AgreementMatrixNaive);

}  // namespace
