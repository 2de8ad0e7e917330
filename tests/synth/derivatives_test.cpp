#include "src/synth/derivatives.h"

#include <gtest/gtest.h>

#include "tests/referee/fingerprint_set.h"

namespace rs::synth {
namespace {

using rs::store::TrustPurpose;
using rs::util::Date;

RootSpec spec(const std::string& id, Date nb = Date::ymd(2005, 1, 1)) {
  RootSpec s;
  s.id = id;
  s.common_name = id + " CN";
  s.not_before = nb;
  s.not_after = nb.add_months(12 * 30);
  return s;
}

/// NSS fixture: "tls" TLS-anchored from 2010; "email" email-only from 2010;
/// "late" TLS from 2018; "partial" TLS with a cutoff from 2019.
Timeline make_nss() {
  Timeline t;
  for (const char* id : {"tls", "email", "late", "partial"}) t.add_spec(spec(id));
  t.include(Date::ymd(2010, 1, 1), "tls");
  t.include(Date::ymd(2010, 1, 1), "email", {TrustPurpose::kEmailProtection});
  t.include(Date::ymd(2018, 1, 1), "late");
  t.include(Date::ymd(2010, 1, 1), "partial");
  t.set_server_distrust_after(Date::ymd(2019, 1, 1), "partial",
                              Date::ymd(2018, 6, 1));
  return t;
}

DerivativePolicy base_policy() {
  DerivativePolicy p;
  p.name = "TestDeriv";
  p.lag_days = 100;
  p.lag_jitter_days = 0;
  p.snapshot_dates = {Date::ymd(2015, 1, 1), Date::ymd(2019, 1, 1)};
  return p;
}

TEST(Derivatives, LagDelaysCopies) {
  CertFactory f(1);
  Timeline nss = make_nss();
  DerivativePolicy p = base_policy();
  p.snapshot_dates = {Date::ymd(2018, 2, 1), Date::ymd(2018, 8, 1)};
  const auto history = generate_derivative(p, nss, f, {});
  ASSERT_EQ(history.size(), 2u);
  // 2018-02-01 - 100d < 2018-01-01: "late" not yet copied.
  EXPECT_EQ(rs::referee::tls_anchors(history.snapshots()[0]).size(), 2u);
  // 2018-08-01 - 100d >= 2018-01-01: now present.
  EXPECT_EQ(rs::referee::tls_anchors(history.snapshots()[1]).size(), 3u);
}

TEST(Derivatives, EmailConflationWindow) {
  CertFactory f(1);
  Timeline nss = make_nss();
  DerivativePolicy p = base_policy();
  p.email_conflation_until = Date::ymd(2017, 1, 1);
  p.snapshot_dates = {Date::ymd(2015, 1, 1), Date::ymd(2018, 1, 1)};
  const auto history = generate_derivative(p, nss, f, {});
  // Before the cutover: email-only root is (mis)trusted for TLS.
  const auto& early = history.snapshots()[0];
  EXPECT_EQ(rs::referee::tls_anchors(early).size(), 3u);  // tls, partial, email
  // After: TLS-only population.
  const auto& late = history.snapshots()[1];
  EXPECT_EQ(rs::referee::tls_anchors(late).size(), 2u);  // tls, partial
}

TEST(Derivatives, CopiedEntriesAreMultiPurposeAndFlattened) {
  CertFactory f(1);
  Timeline nss = make_nss();
  DerivativePolicy p = base_policy();
  p.snapshot_dates = {Date::ymd(2020, 1, 1)};
  const auto history = generate_derivative(p, nss, f, {});
  ASSERT_EQ(history.size(), 1u);
  for (const auto& e : history.snapshots()[0].entries) {
    // The single-file format grants everything...
    for (TrustPurpose purpose : rs::store::kAllPurposes) {
      EXPECT_TRUE(e.is_anchor_for(purpose));
    }
    // ...and cannot carry partial-distrust cutoffs.
    EXPECT_FALSE(e.is_partially_distrusted_tls());
  }
}

TEST(Derivatives, FreezeCapsEffectiveDate) {
  CertFactory f(1);
  Timeline nss = make_nss();
  DerivativePolicy p = base_policy();
  p.freeze_effective_after = Date::ymd(2016, 1, 1);
  p.snapshot_dates = {Date::ymd(2020, 6, 1)};
  const auto history = generate_derivative(p, nss, f, {});
  // Frozen before "late" landed in NSS.
  EXPECT_EQ(rs::referee::tls_anchors(history.snapshots()[0]).size(), 2u);
  EXPECT_EQ(history.snapshots()[0].version, "sync-2016-01-01");
}

TEST(Derivatives, AlwaysAbsentOverride) {
  CertFactory f(1);
  Timeline nss = make_nss();
  DerivativePolicy p = base_policy();
  p.overrides.push_back({"tls", {}, {}, {}, {}, /*always_absent=*/true});
  p.snapshot_dates = {Date::ymd(2020, 1, 1)};
  const auto history = generate_derivative(p, nss, f, {});
  const auto& snap = history.snapshots()[0];
  EXPECT_EQ(snap.find(f.find("tls")->sha256()), nullptr);
}

TEST(Derivatives, AbsentWindowThenReappears) {
  CertFactory f(1);
  Timeline nss = make_nss();
  DerivativePolicy p = base_policy();
  DerivativeOverride ov;
  ov.root_id = "tls";
  ov.absent_from = Date::ymd(2016, 1, 1);
  ov.absent_until = Date::ymd(2017, 1, 1);
  p.overrides.push_back(ov);
  p.snapshot_dates = {Date::ymd(2015, 6, 1), Date::ymd(2016, 6, 1),
                      Date::ymd(2018, 1, 1)};
  const auto history = generate_derivative(p, nss, f, {});
  const auto fp = f.find("tls")->sha256();
  EXPECT_NE(history.snapshots()[0].find(fp), nullptr);
  EXPECT_EQ(history.snapshots()[1].find(fp), nullptr);
  EXPECT_NE(history.snapshots()[2].find(fp), nullptr);
}

TEST(Derivatives, ForcePresentFromExtraSpecs) {
  CertFactory f(1);
  Timeline nss = make_nss();
  std::map<std::string, RootSpec> extra;
  extra.emplace("local", spec("local"));
  DerivativePolicy p = base_policy();
  DerivativeOverride ov;
  ov.root_id = "local";
  ov.present_from = Date::ymd(2016, 1, 1);
  ov.present_until = Date::ymd(2018, 1, 1);
  ov.absent_from = Date::ymd(2018, 1, 2);
  p.overrides.push_back(ov);
  p.snapshot_dates = {Date::ymd(2015, 6, 1), Date::ymd(2017, 1, 1),
                      Date::ymd(2019, 1, 1)};
  const auto history = generate_derivative(p, nss, f, extra);
  const auto fp = f.find("local")->sha256();
  EXPECT_EQ(history.snapshots()[0].find(fp), nullptr);  // before window
  EXPECT_NE(history.snapshots()[1].find(fp), nullptr);  // inside window
  EXPECT_EQ(history.snapshots()[2].find(fp), nullptr);  // after absent_from
}

TEST(Derivatives, AbsenceWinsOverPresenceRegardlessOfDeclarationOrder) {
  CertFactory f(1);
  Timeline nss = make_nss();
  DerivativePolicy p = base_policy();
  // Absence declared FIRST, presence second: the root must still be absent.
  DerivativeOverride absent;
  absent.root_id = "tls";
  absent.always_absent = true;
  DerivativeOverride present;
  present.root_id = "tls";
  present.present_from = Date::ymd(2010, 1, 1);
  p.overrides = {absent, present};
  p.snapshot_dates = {Date::ymd(2020, 1, 1)};
  const auto h1 = generate_derivative(p, nss, f, {});
  EXPECT_EQ(h1.snapshots()[0].find(f.find("tls")->sha256()), nullptr);

  // And in the opposite declaration order.
  p.overrides = {present, absent};
  const auto h2 = generate_derivative(p, nss, f, {});
  EXPECT_EQ(h2.snapshots()[0].find(f.find("tls")->sha256()), nullptr);
}

TEST(Derivatives, LagIsDeterministicPerProviderAndDate) {
  DerivativePolicy p = base_policy();
  p.lag_jitter_days = 30;
  const int a = derivative_lag_days(p, Date::ymd(2020, 1, 1));
  const int b = derivative_lag_days(p, Date::ymd(2020, 1, 1));
  EXPECT_EQ(a, b);
  EXPECT_GE(a, p.lag_days - p.lag_jitter_days);
  EXPECT_LE(a, p.lag_days + p.lag_jitter_days);
  DerivativePolicy q = p;
  q.name = "OtherDeriv";
  int diffs = 0;
  for (int m = 0; m < 12; ++m) {
    const Date d = Date::ymd(2020, 1 + m, 1);
    if (derivative_lag_days(p, d) != derivative_lag_days(q, d)) ++diffs;
  }
  EXPECT_GT(diffs, 0);  // providers get independent jitter streams
}

TEST(Derivatives, SnapshotDatesSortedAndDeduped) {
  CertFactory f(1);
  Timeline nss = make_nss();
  DerivativePolicy p = base_policy();
  p.snapshot_dates = {Date::ymd(2019, 1, 1), Date::ymd(2015, 1, 1),
                      Date::ymd(2019, 1, 1)};
  const auto history = generate_derivative(p, nss, f, {});
  ASSERT_EQ(history.size(), 2u);
  EXPECT_LT(history.snapshots()[0].date, history.snapshots()[1].date);
}

}  // namespace
}  // namespace rs::synth
