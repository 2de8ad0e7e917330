// Deeper §6 fidelity checks on the curated scenario: email-conflation
// windows, AmazonLinux's re-adds, NodeJS's ValiCert, and Apple's overlay.
#include <gtest/gtest.h>

#include "src/analysis/churn.h"
#include "src/analysis/diffs.h"
#include "src/analysis/staleness.h"
#include "src/store/membership.h"
#include "src/store/overlay.h"
#include "src/synth/paper_scenario.h"
#include "tests/referee/fingerprint_set.h"

namespace rs::synth {
namespace {

using rs::util::Date;

class FidelityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new PaperScenario(build_paper_scenario());
    table_ = new rs::store::MembershipTable(
        rs::store::MembershipTable::build(scenario_->database()));
  }
  static void TearDownTestSuite() {
    delete table_;
    delete scenario_;
    table_ = nullptr;
    scenario_ = nullptr;
  }

  static std::size_t email_adds_at(const char* provider, Date when) {
    const auto* nss = scenario_->database().find("NSS");
    const auto* h = scenario_->database().find(provider);
    const auto series = rs::analysis::derivative_diffs(
        *h, *nss, *table_, rs::analysis::build_version_index(*nss, *table_));
    // Latest point dated on or before `when`.
    const rs::analysis::SnapshotDiff* best = nullptr;
    for (const auto& p : series.points) {
      if (p.date <= when) best = &p;
    }
    if (best == nullptr) return 0;
    return best->adds[static_cast<std::size_t>(
        rs::analysis::AddCategory::kEmailOnlyRoot)];
  }

  static PaperScenario* scenario_;
  static rs::store::MembershipTable* table_;
};
PaperScenario* FidelityTest::scenario_ = nullptr;
rs::store::MembershipTable* FidelityTest::table_ = nullptr;

TEST_F(FidelityTest, DebianEmailConflationEndsIn2017) {
  EXPECT_GT(email_adds_at("Debian", Date::ymd(2016, 6, 1)), 0u);
  EXPECT_EQ(email_adds_at("Debian", Date::ymd(2018, 6, 1)), 0u);
}

TEST_F(FidelityTest, AlpineEmailConflationEndsIn2020) {
  EXPECT_GT(email_adds_at("Alpine", Date::ymd(2019, 9, 1)), 0u);
  EXPECT_EQ(email_adds_at("Alpine", Date::ymd(2020, 12, 1)), 0u);
}

TEST_F(FidelityTest, NodeJsIsTlsOnlyFromTheStart) {
  EXPECT_EQ(email_adds_at("NodeJS", Date::ymd(2016, 1, 1)), 0u);
  EXPECT_EQ(email_adds_at("NodeJS", Date::ymd(2020, 1, 1)), 0u);
}

TEST_F(FidelityTest, AmazonReAdds1024BitRootsInWindow) {
  // §6.2: AmazonLinux continually re-added sixteen 1024-bit roots after NSS
  // purged them (2016-2018), then dropped them.
  const auto* amazon = scenario_->database().find("AmazonLinux");
  auto weak_count = [&](Date when) {
    const auto* snap = amazon->at(when);
    if (snap == nullptr) return std::size_t{0};
    return snap->weak_rsa_count();
  };
  // The synthetic pool has nine 1024-bit roots still unexpired in the
  // window (the paper counts sixteen in the real dataset).
  EXPECT_GE(weak_count(Date::ymd(2017, 6, 1)), 8u);
  EXPECT_EQ(weak_count(Date::ymd(2019, 6, 1)), 0u);
}

TEST_F(FidelityTest, NodeJsCarriesValiCertForever) {
  auto valicert = scenario_->factory().find("nodejs-valicert");
  ASSERT_NE(valicert, nullptr);
  const auto* node = scenario_->database().find("NodeJS");
  // Present from shortly after its 2015 re-add through the end.
  const auto* early = node->at(Date::ymd(2016, 1, 1));
  ASSERT_NE(early, nullptr);
  EXPECT_NE(early->find(valicert->sha256()), nullptr);
  EXPECT_NE(node->back().find(valicert->sha256()), nullptr);
  // And never in NSS.
  const auto* nss = scenario_->database().find("NSS");
  for (const auto& snap : nss->snapshots()) {
    ASSERT_EQ(snap.find(valicert->sha256()), nullptr) << snap.date.to_string();
  }
}

TEST_F(FidelityTest, AppleOverlayRevokesWithoutRemoving) {
  const auto& overlays = scenario_->overlays();
  ASSERT_TRUE(overlays.contains("Apple"));
  const auto& overlay = overlays.at("Apple");
  EXPECT_EQ(overlay.revocations().size(), 4u);

  const auto* apple = scenario_->database().find("Apple");
  const auto& latest = apple->back();
  const auto zombies = rs::referee::revoked_but_shipped(latest, overlay);
  // StartCom x2 + Certinomis + Gov. of Venezuela.
  EXPECT_EQ(zombies.size(), 4u);
  // And the effective set is correspondingly smaller than the shipped one.
  EXPECT_EQ(rs::referee::effective_tls_anchors(latest, overlay).size() +
                zombies.size(),
            rs::referee::tls_anchors(latest).size());
}

TEST_F(FidelityTest, VenezuelaRootStillShippedStillExclusive) {
  // §5.2: the Gov. of Venezuela root is blocked by Apple's revocation
  // system yet ships in the trust store — and counts as Apple-exclusive.
  auto cert = scenario_->factory().find("apple-excl-venezuela");
  ASSERT_NE(cert, nullptr);
  const auto* apple = scenario_->database().find("Apple");
  const auto* entry = apple->back().find(cert->sha256());
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->is_tls_anchor());
  EXPECT_TRUE(scenario_->overlays().at("Apple").is_revoked(
      cert->sha256(), apple->back().date));
}

TEST_F(FidelityTest, Figure1OutliersReproduced) {
  // §4's ordination outliers: Java 2018-08 ("removal of 9 roots ... and the
  // addition of 21") and Apple 2014-02 (a large batch after stagnation).
  const auto java = rs::analysis::churn_series(
      *scenario_->database().find("Java"), *table_);
  const rs::analysis::ChurnPoint* java_peak = nullptr;
  for (const auto& p : java.points) {
    if (p.date == Date::ymd(2018, 8, 15)) java_peak = &p;
  }
  ASSERT_NE(java_peak, nullptr);
  EXPECT_EQ(java_peak->added, 21u);
  EXPECT_EQ(java_peak->removed, 9u);
  const auto java_outliers = rs::analysis::find_outliers({java}, 1.5, 8);
  ASSERT_FALSE(java_outliers.empty());
  EXPECT_EQ(java_outliers[0].point.date, Date::ymd(2018, 8, 15));

  const auto apple = rs::analysis::churn_series(
      *scenario_->database().find("Apple"), *table_);
  const auto apple_outliers = rs::analysis::find_outliers({apple}, 2.0, 8);
  bool found_2014 = false;
  for (const auto& o : apple_outliers) {
    if (o.point.date.year() == 2014 && o.point.date.month() == 2) {
      found_2014 = true;
      EXPECT_GE(o.point.total_change(), 20u);  // paper: 67 changed roots
    }
  }
  EXPECT_TRUE(found_2014);
}

TEST_F(FidelityTest, AlpineManuallyRemovedExpiredAddTrust) {
  auto addtrust = scenario_->factory().find("addtrust-root");
  ASSERT_NE(addtrust, nullptr);
  const auto* alpine = scenario_->database().find("Alpine");
  const auto* before = alpine->at(Date::ymd(2020, 5, 20));
  const auto* after = alpine->at(Date::ymd(2020, 8, 1));
  ASSERT_NE(before, nullptr);
  ASSERT_NE(after, nullptr);
  EXPECT_NE(before->find(addtrust->sha256()), nullptr);
  EXPECT_EQ(after->find(addtrust->sha256()), nullptr);
}

}  // namespace
}  // namespace rs::synth
