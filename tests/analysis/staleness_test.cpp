#include "src/analysis/staleness.h"

#include <gtest/gtest.h>

#include "src/store/trust.h"
#include "src/x509/builder.h"

namespace rs::analysis {
namespace {

using rs::store::in_scope;
using rs::store::MembershipTable;
using rs::store::ProviderHistory;
using rs::store::Scope;
using rs::store::Snapshot;
using rs::store::StoreDatabase;
using rs::util::Date;

std::shared_ptr<const rs::x509::Certificate> make_cert(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("Stale Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
}

Snapshot snap(const std::string& provider, Date date,
              std::initializer_list<int> tls_ids, std::string version = "") {
  Snapshot s;
  s.provider = provider;
  s.date = date;
  s.version = std::move(version);
  for (int id : tls_ids) {
    s.entries.push_back(
        rs::store::make_tls_anchor(make_cert(static_cast<std::uint64_t>(id))));
  }
  return s;
}

/// NSS fixture: v1 {1}, v2 {1,2}, v3 {1,2,3}; a no-change snapshot between
/// v2 and v3 must NOT become a substantial version.
ProviderHistory make_nss() {
  ProviderHistory nss("NSS");
  nss.add(snap("NSS", Date::ymd(2020, 1, 1), {1}, "a"));
  nss.add(snap("NSS", Date::ymd(2020, 2, 1), {1, 2}, "b"));
  nss.add(snap("NSS", Date::ymd(2020, 2, 15), {1, 2}, "b2"));  // no change
  nss.add(snap("NSS", Date::ymd(2020, 3, 1), {1, 2, 3}, "c"));
  return nss;
}

/// `nss` and `others` in one database, with its membership table.
struct Fixture {
  Fixture(ProviderHistory base, std::vector<ProviderHistory> others)
      : nss(std::move(base)) {
    db.add(nss);
    for (auto& h : others) db.add(std::move(h));
    table = MembershipTable::build(db);
  }
  NssVersionIndex index() const { return build_version_index(nss, table); }
  ProviderHistory nss;
  StoreDatabase db;
  MembershipTable table;
};

/// Staleness of derivative "D" against make_nss().
StalenessResult staleness_of(ProviderHistory d) {
  const Fixture f(make_nss(), {std::move(d)});
  return derivative_staleness(*f.db.find("D"), f.table, f.index());
}

TEST(VersionIndex, SubstantialVersionsOnly) {
  const auto index = Fixture(make_nss(), {}).index();
  ASSERT_EQ(index.size(), 3u);
  EXPECT_EQ(index.versions()[0].index, 1u);
  EXPECT_EQ(index.versions()[1].label, "b");
  EXPECT_EQ(index.versions()[1].snapshot, 1u);
  EXPECT_EQ(index.versions()[2].date, Date::ymd(2020, 3, 1));
  EXPECT_EQ(index.versions()[2].snapshot, 3u);  // the no-op b2 is skipped
}

TEST(VersionIndex, CurrentAt) {
  const auto index = Fixture(make_nss(), {}).index();
  EXPECT_EQ(index.current_at(Date::ymd(2019, 12, 1)), nullptr);
  EXPECT_EQ(index.current_at(Date::ymd(2020, 1, 15))->index, 1u);
  EXPECT_EQ(index.current_at(Date::ymd(2020, 2, 20))->index, 2u);
  EXPECT_EQ(index.current_at(Date::ymd(2021, 1, 1))->index, 3u);
}

TEST(VersionIndex, ClosestMatchPrefersExactThenEarlier) {
  ProviderHistory x("X");
  x.add(snap("X", Date::ymd(2020, 6, 1), {1, 2}));
  // A set equidistant from v1 {1} and v2 {1,2}? {1,9}: d(v1)=1-1/2=0.5,
  // d(v2)=1-1/3=0.667 -> v1.
  x.add(snap("X", Date::ymd(2020, 6, 2), {1, 9}));
  const Fixture f(make_nss(), {std::move(x)});
  const auto index = f.index();
  const auto& rows = f.table.lane(*f.db.find("X"));
  EXPECT_EQ(index.closest_match(in_scope(rows[0], Scope::kTls))->index, 2u);
  EXPECT_EQ(index.closest_match(in_scope(rows[1], Scope::kTls))->index, 1u);
}

TEST(Staleness, UpToDateDerivativeHasZero) {
  ProviderHistory d("D");
  d.add(snap("D", Date::ymd(2020, 3, 2), {1, 2, 3}));
  const auto res = staleness_of(std::move(d));
  ASSERT_EQ(res.points.size(), 1u);
  EXPECT_EQ(res.points[0].versions_behind, 0.0);
  EXPECT_FALSE(res.always_stale);
}

TEST(Staleness, LaggingDerivativeCounted) {
  ProviderHistory d("D");
  d.add(snap("D", Date::ymd(2020, 3, 2), {1}));  // matches v1, current v3
  const auto res = staleness_of(std::move(d));
  ASSERT_EQ(res.points.size(), 1u);
  EXPECT_EQ(res.points[0].matched_version, 1u);
  EXPECT_EQ(res.points[0].current_version, 3u);
  EXPECT_EQ(res.points[0].versions_behind, 2.0);
  EXPECT_TRUE(res.always_stale);
}

TEST(Staleness, TimeWeightedAverage) {
  ProviderHistory d("D");
  // 10 days at 2 behind, then 30 days at 0 behind (the final sample's own
  // deficit is not integrated; only spans between samples count).
  d.add(snap("D", Date::ymd(2020, 3, 2), {1}));
  d.add(snap("D", Date::ymd(2020, 3, 12), {1, 2, 3}));
  d.add(snap("D", Date::ymd(2020, 4, 11), {1, 2, 3}));
  const auto res = staleness_of(std::move(d));
  ASSERT_EQ(res.points.size(), 3u);
  EXPECT_NEAR(res.avg_versions_behind, (2.0 * 10 + 0.0 * 30) / 40.0, 1e-9);
}

TEST(Staleness, EmptyInputsAreSafe) {
  const Fixture f(ProviderHistory("NSS"), {ProviderHistory("D")});
  const auto index = f.index();
  EXPECT_EQ(index.size(), 0u);
  const auto res = derivative_staleness(*f.db.find("D"), f.table, index);
  EXPECT_TRUE(res.points.empty());
  EXPECT_EQ(res.avg_versions_behind, 0.0);
}

TEST(Staleness, AheadOfCurrentClampsToZero) {
  ProviderHistory d("D");
  // Dated before v2 exists but matching v3's set (hypothetical pre-release
  // copy): deficit clamps to zero rather than going negative.
  d.add(snap("D", Date::ymd(2020, 1, 15), {1, 2, 3}));
  const auto res = staleness_of(std::move(d));
  ASSERT_EQ(res.points.size(), 1u);
  EXPECT_EQ(res.points[0].versions_behind, 0.0);
}

}  // namespace
}  // namespace rs::analysis
