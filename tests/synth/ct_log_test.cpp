// Batched CT-log generation: one sightings sweep serves every policy, and
// each log comes out exactly as its policy generates it alone.  The
// per-object sweep draws the same logs as the map sweep of
// tests/referee/ct_log_reference.h, down to each entry's certificate
// object.
#include "src/synth/ct_log.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/store/trust.h"
#include "src/synth/paper_scenario.h"
#include "src/synth/simulator.h"
#include "src/x509/builder.h"
#include "tests/referee/ct_log_reference.h"

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

// --- the per-object sweep against the map sweep ------------------------------

/// Same histories, and every entry holds the same certificate object.
void expect_same_logs(const std::vector<ProviderHistory>& got,
                      const std::vector<ProviderHistory>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    expect_same_history(got[i], want[i]);
    for (std::size_t k = 0; k < want[i].size(); ++k) {
      const auto& a = got[i].snapshots()[k].entries;
      const auto& b = want[i].snapshots()[k].entries;
      for (std::size_t e = 0; e < b.size() && e < a.size(); ++e) {
        EXPECT_EQ(a[e].certificate.get(), b[e].certificate.get())
            << want[i].provider() << " snapshot " << k << " entry " << e;
      }
    }
  }
}

void expect_matches_map_sweep(const rs::store::StoreDatabase& db,
                              std::uint64_t seed) {
  const auto all = policies(seed);
  expect_same_logs(generate_ct_logs(all, db),
                   rs::referee::ct_log::generate_ct_logs(all, db));
}

TEST(CtLogs, PerObjectSweepMatchesMapSweepOnPaperScenario) {
  const auto scenario = build_paper_scenario();
  expect_matches_map_sweep(scenario.database(), kPaperSeed);
}

TEST(CtLogs, PerObjectSweepMatchesMapSweepOnSimulatedEcosystem) {
  SimulatorConfig cfg;
  cfg.seed = 21;
  cfg.ca_count = 60;
  const auto eco = simulate_ecosystem(cfg);
  expect_matches_map_sweep(eco.database, cfg.seed);
}

std::shared_ptr<const rs::x509::Certificate> make_root(std::uint64_t seed) {
  rs::x509::Name name;
  name.add_common_name("CT Sweep Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(name).key_seed(seed).build());
}

rs::store::Snapshot snapshot(const std::string& provider, int year,
                             std::vector<rs::store::TrustEntry> entries) {
  rs::store::Snapshot snap;
  snap.provider = provider;
  snap.date = rs::util::Date::ymd(year, 1, 1);
  snap.version = std::to_string(year);
  snap.entries = std::move(entries);
  return snap;
}

TEST(CtLogs, EqualDerObjectsMergeAsInTheMapSweep) {
  // "Alpha" holds `shared` as a TLS anchor in 2008 and 2012.  "Beta" holds
  // a distinct object with the same DER, email-only in 2004 and a TLS
  // anchor in 2015.  The sightings must merge both objects' dates (first
  // present 2004, TLS 2008..2015) and keep Alpha's object, seen first, as
  // the one every log entry holds.
  const auto shared = make_root(9001);
  const auto twin = std::make_shared<const rs::x509::Certificate>(*shared);
  ASSERT_NE(shared.get(), twin.get());
  ASSERT_EQ(shared->sha256(), twin->sha256());
  const auto other = make_root(9002);
  const auto email_only = make_root(9003);
  const auto email = [](std::shared_ptr<const rs::x509::Certificate> c) {
    return rs::store::make_anchor_for(
        std::move(c), {rs::store::TrustPurpose::kEmailProtection});
  };

  ProviderHistory alpha("Alpha");
  alpha.add(snapshot("Alpha", 2008, {rs::store::make_tls_anchor(shared),
                                     rs::store::make_tls_anchor(other)}));
  alpha.add(snapshot("Alpha", 2012, {rs::store::make_tls_anchor(shared)}));
  ProviderHistory beta("Beta");
  beta.add(snapshot("Beta", 2004, {email(twin), email(email_only)}));
  beta.add(snapshot("Beta", 2015, {rs::store::make_tls_anchor(twin),
                                   rs::store::make_tls_anchor(other)}));
  rs::store::StoreDatabase db;
  db.add(std::move(alpha));
  db.add(std::move(beta));

  auto all = policies(77);
  CtLogPolicy keen;  // accepts everything, retires everything
  keen.name = "Keen";
  keen.accept_prob = 1.0;
  keen.extra_accept_prob = 1.0;
  keen.retire_prob = 1.0;
  all.push_back(keen);
  const auto logs = generate_ct_logs(all, db);
  expect_same_logs(logs, rs::referee::ct_log::generate_ct_logs(all, db));

  bool held = false;
  for (const auto& snap : logs.back().snapshots()) {
    for (const auto& entry : snap.entries) {
      if (entry.certificate->sha256() != shared->sha256()) continue;
      EXPECT_EQ(entry.certificate.get(), shared.get());
      held = true;
    }
  }
  EXPECT_TRUE(held);
}

}  // namespace
}  // namespace rs::synth
