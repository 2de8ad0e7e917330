#include "src/synth/simulator.h"

#include <gtest/gtest.h>

#include "tests/referee/fingerprint_set.h"

namespace rs::synth {
namespace {

TEST(Simulator, ProducesRequestedShape) {
  SimulatorConfig cfg;
  cfg.seed = 3;
  cfg.program_count = 2;
  cfg.derivative_count = 2;
  cfg.ca_count = 40;
  const auto eco = simulate_ecosystem(cfg);
  EXPECT_EQ(eco.database.provider_count(), 4u);
  EXPECT_NE(eco.database.find("Prog0"), nullptr);
  EXPECT_NE(eco.database.find("Prog1"), nullptr);
  EXPECT_NE(eco.database.find("Deriv0"), nullptr);
  EXPECT_NE(eco.database.find("Deriv1"), nullptr);
  EXPECT_EQ(eco.base_program, "Prog0");
  EXPECT_EQ(eco.derivative_names.size(), 2u);
}

TEST(Simulator, DeterministicInSeed) {
  SimulatorConfig cfg;
  cfg.seed = 11;
  cfg.ca_count = 30;
  const auto a = simulate_ecosystem(cfg);
  const auto b = simulate_ecosystem(cfg);
  const auto& ha = *a.database.find("Prog0");
  const auto& hb = *b.database.find("Prog0");
  ASSERT_EQ(ha.size(), hb.size());
  EXPECT_EQ(rs::referee::all_fingerprints(ha.back()),
            rs::referee::all_fingerprints(hb.back()));

  cfg.seed = 12;
  const auto c = simulate_ecosystem(cfg);
  EXPECT_FALSE(rs::referee::all_fingerprints(ha.back()) ==
               rs::referee::all_fingerprints(c.database.find("Prog0")->back()));
}

TEST(Simulator, IncidentsAreRemovedFromBaseProgram) {
  SimulatorConfig cfg;
  cfg.seed = 5;
  cfg.incident_count = 4;
  const auto eco = simulate_ecosystem(cfg);
  EXPECT_GT(eco.incidents.size(), 0u);
  const auto* base = eco.database.find(eco.base_program);
  for (const auto& inc : eco.incidents) {
    // After removal (+ one snapshot interval), the base program must not
    // trust the root any more.
    const auto* after =
        base->at(inc.removal + cfg.snapshot_interval_days + 1);
    if (after == nullptr) continue;
    for (const auto& e : after->entries) {
      EXPECT_NE(e.certificate->subject().common_name().value_or(""),
                "Simulated Root CA " + inc.root_id.substr(7));
    }
  }
}

TEST(Simulator, SnapshotsRespectDateRange) {
  SimulatorConfig cfg;
  cfg.seed = 9;
  cfg.start = rs::util::Date::ymd(2010, 1, 1);
  cfg.end = rs::util::Date::ymd(2012, 1, 1);
  const auto eco = simulate_ecosystem(cfg);
  for (const auto& [name, history] : eco.database.histories()) {
    for (const auto& snap : history.snapshots()) {
      EXPECT_GE(snap.date, cfg.start) << name;
      EXPECT_LE(snap.date, cfg.end) << name;
    }
  }
}

TEST(Simulator, DerivativesTrackBaseProgram) {
  SimulatorConfig cfg;
  cfg.seed = 21;
  cfg.derivative_count = 1;
  cfg.min_lag_days = 30;
  cfg.max_lag_days = 120;
  const auto eco = simulate_ecosystem(cfg);
  const auto* base = eco.database.find("Prog0");
  const auto* deriv = eco.database.find("Deriv0");
  ASSERT_NE(deriv, nullptr);
  // The derivative's final TLS set should heavily overlap the base's.
  const auto base_tls = rs::referee::tls_anchors(base->back());
  const auto deriv_tls = rs::referee::tls_anchors(deriv->back());
  ASSERT_GT(base_tls.size(), 0u);
  EXPECT_LT(deriv_tls.jaccard_distance(base_tls), 0.5);
}

TEST(Simulator, ZeroDerivativesSupported) {
  SimulatorConfig cfg;
  cfg.seed = 2;
  cfg.derivative_count = 0;
  cfg.program_count = 1;
  const auto eco = simulate_ecosystem(cfg);
  EXPECT_EQ(eco.database.provider_count(), 1u);
  EXPECT_TRUE(eco.derivative_names.empty());
}

TEST(Simulator, CtLogsAreGeneratedAndDeterministic) {
  SimulatorConfig cfg;
  cfg.seed = 5;
  cfg.ca_count = 40;
  cfg.program_count = 2;
  cfg.derivative_count = 1;
  cfg.ct_log_count = 2;
  const auto eco = simulate_ecosystem(cfg);
  ASSERT_EQ(eco.ct_log_names.size(), 2u);
  EXPECT_EQ(eco.ct_log_names[0], "CtLog0");
  EXPECT_EQ(eco.ct_log_names[1], "CtLog1");
  EXPECT_EQ(eco.database.provider_count(), 5u);
  for (const auto& name : eco.ct_log_names) {
    const auto* h = eco.database.find(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_FALSE(h->empty()) << name;
    // A log accepts roots from programs it watches, so it is non-trivial.
    EXPECT_GT(rs::referee::tls_anchors(h->back()).size(), 0u) << name;
  }
  const auto again = simulate_ecosystem(cfg);
  for (const auto& name : eco.ct_log_names) {
    EXPECT_EQ(rs::referee::all_fingerprints(eco.database.find(name)->back()),
              rs::referee::all_fingerprints(again.database.find(name)->back()))
        << name;
  }
}

TEST(Simulator, ZeroCtLogsLeavesTheEcosystemByteIdentical) {
  SimulatorConfig base;
  base.seed = 11;
  base.ca_count = 30;
  const auto before = simulate_ecosystem(base);
  SimulatorConfig with_knobs = base;
  with_knobs.ct_log_count = 0;  // explicit default: nothing changes
  with_knobs.ct_min_lag_days = 90;
  with_knobs.ct_max_lag_days = 120;
  const auto after = simulate_ecosystem(with_knobs);
  EXPECT_TRUE(after.ct_log_names.empty());
  ASSERT_EQ(before.database.provider_count(), after.database.provider_count());
  for (const auto& name : before.database.providers()) {
    const auto* ha = before.database.find(name);
    const auto* hb = after.database.find(name);
    ASSERT_NE(hb, nullptr);
    ASSERT_EQ(ha->size(), hb->size());
    EXPECT_EQ(rs::referee::all_fingerprints(ha->back()),
              rs::referee::all_fingerprints(hb->back()));
  }
}

}  // namespace
}  // namespace rs::synth
