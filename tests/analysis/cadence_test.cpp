#include "src/analysis/cadence.h"

#include <gtest/gtest.h>

#include "src/store/membership.h"
#include "src/store/trust.h"
#include "src/synth/paper_scenario.h"
#include "src/x509/builder.h"

namespace rs::analysis {
namespace {

using rs::store::ProviderHistory;
using rs::store::Snapshot;
using rs::util::Date;

std::shared_ptr<const rs::x509::Certificate> make_cert(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("Cadence Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
}

Snapshot snap(Date date, std::initializer_list<int> ids) {
  Snapshot s;
  s.provider = "P";
  s.date = date;
  for (int id : ids) {
    s.entries.push_back(
        rs::store::make_tls_anchor(make_cert(static_cast<std::uint64_t>(id))));
  }
  return s;
}

/// update_cadence over `h`, read through a membership table of its own.
UpdateCadence cadence_of(const ProviderHistory& h) {
  rs::store::StoreDatabase db;
  db.add(h);
  return update_cadence(h, rs::store::MembershipTable::build(db));
}

TEST(Cadence, CountsSubstantialAndNoopUpdates) {
  ProviderHistory h("P");
  h.add(snap(Date::ymd(2020, 1, 1), {1}));        // substantial (first)
  h.add(snap(Date::ymd(2020, 2, 1), {1}));        // no-op
  h.add(snap(Date::ymd(2020, 3, 1), {1, 2}));     // substantial
  h.add(snap(Date::ymd(2020, 4, 1), {1, 2}));     // no-op
  h.add(snap(Date::ymd(2020, 5, 1), {2}));        // substantial
  const auto c = cadence_of(h);
  EXPECT_EQ(c.snapshots, 5u);
  EXPECT_EQ(c.substantial_updates, 3u);
  EXPECT_EQ(c.noop_updates, 2u);
}

TEST(Cadence, IntervalStatistics) {
  ProviderHistory h("P");
  h.add(snap(Date::ymd(2020, 1, 1), {1}));
  h.add(snap(Date::ymd(2020, 1, 11), {2}));   // +10 days
  h.add(snap(Date::ymd(2020, 1, 31), {3}));   // +20 days
  const auto c = cadence_of(h);
  EXPECT_DOUBLE_EQ(c.mean_interval_days, 15.0);
  EXPECT_DOUBLE_EQ(c.median_interval_days, 15.0);
  // Substantial intervals are measured between substantial updates.
  EXPECT_DOUBLE_EQ(c.mean_substantial_interval_days, 15.0);
}

TEST(Cadence, NoopsDoNotResetSubstantialIntervals) {
  ProviderHistory h("P");
  h.add(snap(Date::ymd(2020, 1, 1), {1}));
  h.add(snap(Date::ymd(2020, 1, 10), {1}));   // no-op
  h.add(snap(Date::ymd(2020, 1, 21), {2}));   // substantial: 20 days later
  const auto c = cadence_of(h);
  EXPECT_DOUBLE_EQ(c.mean_substantial_interval_days, 20.0);
}

TEST(Cadence, PerYearRate) {
  ProviderHistory h("P");
  h.add(snap(Date::ymd(2019, 1, 1), {1}));
  h.add(snap(Date::ymd(2019, 7, 1), {2}));
  h.add(snap(Date::ymd(2020, 1, 1), {3}));
  const auto c = cadence_of(h);
  EXPECT_NEAR(c.substantial_per_year, 3.0, 0.1);
}

TEST(Cadence, DegenerateHistories) {
  EXPECT_EQ(cadence_of(ProviderHistory("P")).snapshots, 0u);
  ProviderHistory one("P");
  one.add(snap(Date::ymd(2020, 1, 1), {1}));
  const auto c = cadence_of(one);
  EXPECT_EQ(c.snapshots, 1u);
  EXPECT_EQ(c.substantial_updates, 1u);
  EXPECT_EQ(c.mean_interval_days, 0.0);
}

TEST(Cadence, PaperScenarioNssUpdatesMostOften) {
  // §6.1: "NSS's relatively frequent updates" — no derivative should ship
  // substantial updates more often than NSS itself.
  auto scenario = rs::synth::build_paper_scenario();
  const auto& db = scenario.database();
  const auto table = rs::store::MembershipTable::build(db);
  const auto nss = update_cadence(*db.find("NSS"), table);
  for (const char* name : {"Android", "AmazonLinux", "NodeJS"}) {
    const auto deriv = update_cadence(*db.find(name), table);
    EXPECT_LT(deriv.substantial_per_year, nss.substantial_per_year) << name;
  }
}

}  // namespace
}  // namespace rs::analysis
