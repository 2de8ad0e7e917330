#include "src/analysis/diffs.h"

#include <gtest/gtest.h>

#include "src/store/trust.h"
#include "src/x509/builder.h"

namespace rs::analysis {
namespace {

using rs::store::MembershipTable;
using rs::store::ProviderHistory;
using rs::store::Snapshot;
using rs::store::StoreDatabase;
using rs::store::TrustEntry;
using rs::store::TrustPurpose;
using rs::util::Date;

std::shared_ptr<const rs::x509::Certificate> make_cert(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("Diff Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
}

TrustEntry tls(int id) {
  return rs::store::make_tls_anchor(make_cert(static_cast<std::uint64_t>(id)));
}
TrustEntry email_only(int id) {
  return rs::store::make_anchor_for(make_cert(static_cast<std::uint64_t>(id)),
                                    {TrustPurpose::kEmailProtection});
}

Snapshot snap(const std::string& provider, Date date,
              std::vector<TrustEntry> entries) {
  Snapshot s;
  s.provider = provider;
  s.date = date;
  s.entries = std::move(entries);
  return s;
}

/// NSS: v1 {1,2 tls; 9 email-only}, v2 {1 tls (2 removed), 9 email}, where
/// root 1 gains a partial-distrust cutoff in v2.
ProviderHistory make_nss() {
  ProviderHistory nss("NSS");
  nss.add(snap("NSS", Date::ymd(2020, 1, 1), {tls(1), tls(2), email_only(9)}));
  TrustEntry partial = tls(1);
  partial.trust_for(TrustPurpose::kServerAuth).distrust_after =
      Date::ymd(2020, 6, 1);
  nss.add(snap("NSS", Date::ymd(2020, 7, 1), {partial, email_only(9)}));
  return nss;
}

/// Figure 4 series of derivative `d` against `nss`, over a membership
/// table built for the two histories.
DerivativeDiffSeries diffs_of(ProviderHistory nss, ProviderHistory d) {
  const std::string name = d.provider();
  StoreDatabase db;
  db.add(std::move(nss));
  db.add(std::move(d));
  const auto table = MembershipTable::build(db);
  const auto index = build_version_index(*db.find("NSS"), table);
  return derivative_diffs(*db.find(name), *db.find("NSS"), table, index);
}

TEST(Diffs, CleanCopyHasNoDeviation) {
  ProviderHistory d("D");
  d.add(snap("D", Date::ymd(2020, 2, 1), {tls(1), tls(2)}));
  const auto series = diffs_of(make_nss(), std::move(d));
  ASSERT_EQ(series.points.size(), 1u);
  EXPECT_EQ(series.points[0].added_total(), 0u);
  EXPECT_EQ(series.points[0].removed_total(), 0u);
  EXPECT_FALSE(series.ever_deviates);
}

TEST(Diffs, NonNssRootCategorized) {
  ProviderHistory d("D");
  d.add(snap("D", Date::ymd(2020, 2, 1), {tls(1), tls(2), tls(77)}));
  const auto series = diffs_of(make_nss(), std::move(d));
  ASSERT_EQ(series.points.size(), 1u);
  EXPECT_EQ(series.points[0]
                .adds[static_cast<std::size_t>(AddCategory::kNonNssRoot)],
            1u);
  EXPECT_TRUE(series.ever_deviates);
}

TEST(Diffs, EmailOnlyRootCategorized) {
  ProviderHistory d("D");
  // Derivative TLS-trusts NSS's email-only root 9 (conflation).
  d.add(snap("D", Date::ymd(2020, 2, 1), {tls(1), tls(2), tls(9)}));
  const auto series = diffs_of(make_nss(), std::move(d));
  EXPECT_EQ(series.points[0]
                .adds[static_cast<std::size_t>(AddCategory::kEmailOnlyRoot)],
            1u);
}

TEST(Diffs, ReAddedRootCategorized) {
  ProviderHistory d("D");
  // Root 2 was dropped by NSS v2; the derivative matching v2 still ships it.
  d.add(snap("D", Date::ymd(2020, 8, 1), {tls(1), tls(2), tls(88), tls(89)}));
  const auto series = diffs_of(make_nss(), std::move(d));
  // Closest match: v2 {1} (distance to {1,2,88,89} = 3/4) vs v1 {1,2}
  // (distance = 1/2) -> v1.  Against v1, adds are 88/89 (non-NSS).
  EXPECT_EQ(series.points[0].matched_version, 1u);
  EXPECT_EQ(series.points[0]
                .adds[static_cast<std::size_t>(AddCategory::kNonNssRoot)],
            2u);

  ProviderHistory d2("D2");
  // Closer to v2: only root2 extra.
  d2.add(snap("D2", Date::ymd(2020, 8, 1), {tls(1), tls(2)}));
  const auto series2 = diffs_of(make_nss(), std::move(d2));
  // {1,2}: d(v1)=0, so matches v1 exactly; use a set matching v2 plus 2:
  ProviderHistory d3("D3");
  d3.add(snap("D3", Date::ymd(2020, 8, 1), {tls(1)}));
  const auto series3 = diffs_of(make_nss(), std::move(d3));
  EXPECT_EQ(series3.points[0].matched_version, 2u);
  EXPECT_EQ(series3.points[0].added_total(), 0u);
  (void)series2;
}

TEST(Diffs, PartialDistrustFalloutOnRemoval) {
  // Derivative matching v2 but *without* the partially-distrusted root 1:
  // classic Debian-style premature removal.  Add roots 2.. so v2 is closer?
  // v2 = {1}. Derivative = {} -> matches v2? distance({} , {1}) = 1,
  // distance({}, {1,2}) = 1; ties keep earlier => v1. Make derivative {2}:
  // d(v1 {1,2}) = 0.5, d(v2 {1}) = 1.0 -> v1; removal of 1 vs v1 has no
  // cutoff... Use derivative {1,2} against nss where v2 = {1 partial, 2}:
  ProviderHistory nss2("NSS");
  nss2.add(snap("NSS", Date::ymd(2020, 1, 1), {tls(1), tls(2)}));
  TrustEntry partial = tls(1);
  partial.trust_for(TrustPurpose::kServerAuth).distrust_after =
      Date::ymd(2020, 6, 1);
  nss2.add(snap("NSS", Date::ymd(2020, 7, 1), {partial, tls(2), tls(3)}));
  ProviderHistory d2("D");
  // Matches v2 {1,2,3} (distance 1/3) better than v1 {1,2} (distance 1/2)?
  // derivative {2,3}: d(v2) = 1 - 2/3 = 0.33, d(v1) = 1 - 1/3 = 0.67 -> v2.
  d2.add(snap("D", Date::ymd(2020, 8, 1), {tls(2), tls(3)}));
  const auto series = diffs_of(std::move(nss2), std::move(d2));
  ASSERT_EQ(series.points.size(), 1u);
  EXPECT_EQ(series.points[0].matched_version, 2u);
  EXPECT_EQ(series.points[0].removes[static_cast<std::size_t>(
                RemoveCategory::kPartialDistrustFallout)],
            1u);
  EXPECT_EQ(series.points[0].removes[static_cast<std::size_t>(
                RemoveCategory::kCustomRemoval)],
            0u);
}

TEST(Diffs, CustomRemovalCategorized) {
  // NSS v1 = {1,2,3}, v2 = {1}.  Derivative {1,3}: distance to v1 is 1/3,
  // to v2 is 1/2 -> matches v1; the missing root 2 carries no cutoff in v1,
  // so its absence is a custom removal.
  ProviderHistory nss("NSS");
  nss.add(snap("NSS", Date::ymd(2020, 1, 1), {tls(1), tls(2), tls(3)}));
  nss.add(snap("NSS", Date::ymd(2020, 7, 1), {tls(1)}));
  ProviderHistory d("D");
  d.add(snap("D", Date::ymd(2020, 2, 1), {tls(1), tls(3)}));
  const auto series = diffs_of(std::move(nss), std::move(d));
  ASSERT_EQ(series.points.size(), 1u);
  EXPECT_EQ(series.points[0].matched_version, 1u);
  EXPECT_EQ(series.points[0].removes[static_cast<std::size_t>(
                RemoveCategory::kCustomRemoval)],
            1u);
  EXPECT_EQ(series.points[0].removes[static_cast<std::size_t>(
                RemoveCategory::kPartialDistrustFallout)],
            0u);
}

// Regression: NSS ships a corrected re-release on the date of the snapshot
// before it, and the re-release is its own substantial version.  Its
// removals must be classified against its own entries, not those of the
// first snapshot carrying that date.
TEST(Diffs, SameDateReReleaseClassifiesAgainstItsOwnSnapshot) {
  ProviderHistory nss("NSS");
  nss.add(snap("NSS", Date::ymd(2020, 1, 1), {tls(1)}));
  nss.add(snap("NSS", Date::ymd(2020, 7, 1), {tls(1), tls(7)}));
  TrustEntry partial = tls(6);
  partial.trust_for(TrustPurpose::kServerAuth).distrust_after =
      Date::ymd(2020, 6, 1);
  nss.add(snap("NSS", Date::ymd(2020, 7, 1),
               {tls(1), tls(2), tls(3), tls(4), tls(5), partial}));
  ProviderHistory d("D");
  d.add(snap("D", Date::ymd(2020, 8, 1),
             {tls(1), tls(2), tls(3), tls(4), tls(5)}));
  const auto series = diffs_of(std::move(nss), std::move(d));
  ASSERT_EQ(series.points.size(), 1u);
  EXPECT_EQ(series.points[0].matched_version, 3u);
  EXPECT_EQ(series.points[0].removes[static_cast<std::size_t>(
                RemoveCategory::kPartialDistrustFallout)],
            1u);
  EXPECT_EQ(series.points[0].removes[static_cast<std::size_t>(
                RemoveCategory::kCustomRemoval)],
            0u);
}

TEST(Diffs, CategoryNames) {
  EXPECT_STREQ(to_string(AddCategory::kNonNssRoot), "non-NSS root");
  EXPECT_STREQ(to_string(AddCategory::kEmailOnlyRoot), "email-only root");
  EXPECT_STREQ(to_string(AddCategory::kReAddedRoot), "re-added root");
  EXPECT_STREQ(to_string(AddCategory::kOther), "other");
  EXPECT_STREQ(to_string(RemoveCategory::kPartialDistrustFallout),
               "partial-distrust fallout");
  EXPECT_STREQ(to_string(RemoveCategory::kCustomRemoval), "custom removal");
}

}  // namespace
}  // namespace rs::analysis
