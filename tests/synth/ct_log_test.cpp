// Batched CT-log generation: one sightings sweep serves every policy, and
// each log comes out exactly as its policy generates it alone.
#include "src/synth/ct_log.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/synth/paper_scenario.h"
#include "src/synth/simulator.h"

namespace rs::synth {
namespace {

using rs::store::ProviderHistory;

/// Same provider, dates, versions, certificates and trust bits.
void expect_same_history(const ProviderHistory& got,
                         const ProviderHistory& want) {
  ASSERT_EQ(got.provider(), want.provider());
  ASSERT_EQ(got.size(), want.size()) << want.provider();
  for (std::size_t k = 0; k < want.size(); ++k) {
    const auto& a = got.snapshots()[k];
    const auto& b = want.snapshots()[k];
    EXPECT_EQ(a.provider, b.provider);
    EXPECT_EQ(a.date, b.date) << want.provider() << " snapshot " << k;
    EXPECT_EQ(a.version, b.version) << want.provider() << " snapshot " << k;
    ASSERT_EQ(a.entries.size(), b.entries.size())
        << want.provider() << " snapshot " << k;
    for (std::size_t e = 0; e < b.entries.size(); ++e) {
      EXPECT_EQ(a.entries[e].certificate->sha256(),
                b.entries[e].certificate->sha256());
      EXPECT_EQ(a.entries[e].purposes, b.entries[e].purposes);
    }
  }
}

/// Three policies of distinct temperament (the ct_landscape report's).
std::vector<CtLogPolicy> policies(std::uint64_t seed) {
  std::vector<CtLogPolicy> out(3);
  out[0].name = "Eager";
  out[0].accept_lag_days = 45;
  out[1].name = "Steady";
  out[1].accept_lag_days = 150;
  out[1].extra_accept_prob = 0.25;
  out[2].name = "Slow";
  out[2].accept_lag_days = 330;
  out[2].retire_prob = 0.2;
  for (auto& p : out) p.seed = seed;
  return out;
}

void expect_batch_matches_singles(const rs::store::StoreDatabase& db,
                                  std::uint64_t seed) {
  const auto all = policies(seed);
  const auto batch = generate_ct_logs(all, db);
  ASSERT_EQ(batch.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto single = generate_ct_logs({all[i]}, db);
    ASSERT_EQ(single.size(), 1u);
    EXPECT_FALSE(single[0].empty());
    expect_same_history(batch[i], single[0]);
  }
}

TEST(CtLogs, BatchEqualsOnePolicyAtATimeOnPaperScenario) {
  const auto scenario = build_paper_scenario();
  expect_batch_matches_singles(scenario.database(), kPaperSeed);
}

TEST(CtLogs, BatchEqualsOnePolicyAtATimeOnSimulatedEcosystem) {
  SimulatorConfig cfg;
  cfg.seed = 21;
  cfg.ca_count = 60;
  const auto eco = simulate_ecosystem(cfg);
  expect_batch_matches_singles(eco.database, cfg.seed);
}

}  // namespace
}  // namespace rs::synth
