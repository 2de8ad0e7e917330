// Drives the one pooled kernel of the pipeline, the per-provider lanes of
// the membership table, on a simulated ecosystem so the TSan CI stage
// (ROOTSTORE_SANITIZE=thread, `ctest -L tsan`) exercises the real lane
// build, not just the pool in isolation.  Assertions double as a
// serial-equivalence smoke check; the report-level suite lives in
// tests/analysis/parallel_equivalence_test.cpp.
#include <gtest/gtest.h>

#include "src/exec/thread_pool.h"
#include "src/query/index_io.h"
#include "src/query/trust_index.h"
#include "src/store/interner.h"
#include "src/store/membership.h"
#include "src/synth/simulator.h"

namespace rs::exec {
namespace {

rs::synth::SimulatedEcosystem make_ecosystem() {
  rs::synth::SimulatorConfig cfg;
  cfg.seed = 321;
  cfg.ca_count = 50;
  cfg.program_count = 2;
  cfg.derivative_count = 2;
  cfg.snapshot_interval_days = 90;
  return rs::synth::simulate_ecosystem(cfg);
}

TEST(ParallelPipeline, RepeatedRunsOnOnePoolStayIdentical) {
  // Re-running on a warm pool must not perturb results (no hidden state):
  // every round's table and index match the inline serial build.
  const auto eco = make_ecosystem();
  const auto& db = eco.database;
  const auto interner = rs::store::CertInterner::from_database(db);
  const auto serial_table = rs::store::MembershipTable::build(db);
  const std::string serial_index = rs::query::TrustIndexIO::serialize(
      rs::query::TrustIndex::build(db, interner));
  ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    const auto table = rs::store::MembershipTable::build(db, &pool);
    for (const auto& [name, history] : db.histories()) {
      EXPECT_TRUE(table.lane(history) == serial_table.lane(history))
          << name << " round " << round;
    }
    EXPECT_EQ(rs::query::TrustIndexIO::serialize(
                  rs::query::TrustIndex::build(db, interner, &pool)),
              serial_index)
        << "round " << round;
  }
}

}  // namespace
}  // namespace rs::exec
