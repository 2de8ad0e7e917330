// Integration tests over the curated paper scenario: the scenario must
// encode the paper's published ground truth.
#include <gtest/gtest.h>

#include "src/synth/incidents.h"
#include "src/synth/paper_reference.h"
#include "src/synth/paper_scenario.h"
#include "src/synth/software_survey.h"
#include "src/synth/user_agents.h"
#include "tests/referee/fingerprint_set.h"

namespace rs::synth {
namespace {

using rs::util::Date;

class ScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { scenario_ = new PaperScenario(build_paper_scenario()); }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static PaperScenario* scenario_;
};
PaperScenario* ScenarioTest::scenario_ = nullptr;

TEST_F(ScenarioTest, HasAllTenProviders) {
  const auto providers = scenario_->database().providers();
  ASSERT_EQ(providers.size(), 10u);
  for (const char* name :
       {"NSS", "Apple", "Microsoft", "Java", "Debian", "Ubuntu", "Alpine",
        "AmazonLinux", "Android", "NodeJS"}) {
    EXPECT_NE(scenario_->database().find(name), nullptr) << name;
  }
}

TEST_F(ScenarioTest, SnapshotCountsNearPaper) {
  // Shape check: within 25% of every Table 2 row.
  for (const auto& row : paper::table2_dataset()) {
    const auto* h = scenario_->database().find(row.provider);
    ASSERT_NE(h, nullptr) << row.provider;
    const double measured = static_cast<double>(h->size());
    EXPECT_GT(measured, row.snapshots * 0.75) << row.provider;
    EXPECT_LT(measured, row.snapshots * 1.3) << row.provider;
  }
}

TEST_F(ScenarioTest, DateRangesMatchPaper) {
  for (const auto& row : paper::table2_dataset()) {
    const auto* h = scenario_->database().find(row.provider);
    ASSERT_NE(h, nullptr);
    // First/last snapshot within ~2 months of the published range.
    EXPECT_LT(std::abs(h->first_date() - row.from), 62) << row.provider;
    EXPECT_LT(std::abs(h->last_date() - row.to), 62) << row.provider;
  }
}

TEST_F(ScenarioTest, StoreSizeOrderingMatchesTable3) {
  auto avg_size = [&](const char* name) {
    const auto* h = scenario_->database().find(name);
    double sum = 0;
    for (const auto& s : h->snapshots()) sum += static_cast<double>(s.size());
    return sum / static_cast<double>(h->size());
  };
  const double microsoft = avg_size("Microsoft");
  const double apple = avg_size("Apple");
  const double nss = avg_size("NSS");
  const double java = avg_size("Java");
  EXPECT_GT(microsoft, apple);
  EXPECT_GT(apple, nss);
  EXPECT_GT(nss, java);
}

TEST_F(ScenarioTest, IncidentRootsExistAndAreRemovedFromNss) {
  const auto* nss = scenario_->database().find("NSS");
  for (const auto& incident : incident_catalog()) {
    for (const auto& id : incident.root_ids) {
      auto cert = scenario_->factory().find(id);
      ASSERT_NE(cert, nullptr) << id;
      // Present the day before removal, gone at the removal-date snapshot.
      const auto* before = nss->at(incident.nss_removal - 1);
      const auto* at = nss->at(incident.nss_removal);
      ASSERT_NE(before, nullptr);
      ASSERT_NE(at, nullptr);
      EXPECT_NE(before->find(cert->sha256()), nullptr)
          << incident.name << " " << id;
      EXPECT_EQ(at->find(cert->sha256()), nullptr)
          << incident.name << " " << id;
    }
  }
}

TEST_F(ScenarioTest, SymantecPartialDistrustInNssOnly) {
  const auto* nss = scenario_->database().find("NSS");
  const auto* snap = nss->at(Date::ymd(2020, 5, 15));
  ASSERT_NE(snap, nullptr);
  int with_cutoff = 0;
  for (const auto& e : snap->entries) {
    if (e.is_partially_distrusted_tls()) ++with_cutoff;
  }
  EXPECT_EQ(with_cutoff, 12);  // the twelve Symantec roots

  // Derivatives cannot express the cutoff.
  for (const char* deriv : {"Debian", "NodeJS", "Alpine"}) {
    const auto* h = scenario_->database().find(deriv);
    const auto* d = h->at(Date::ymd(2020, 12, 1));
    if (d == nullptr) continue;
    for (const auto& e : d->entries) {
      EXPECT_FALSE(e.is_partially_distrusted_tls()) << deriv;
    }
  }
}

TEST_F(ScenarioTest, DebianSymantecRemoveThenReadd) {
  const auto* debian = scenario_->database().find("Debian");
  auto sym1 = scenario_->factory().find("symantec-root-1");
  auto sym12 = scenario_->factory().find("symantec-root-12");
  ASSERT_NE(sym1, nullptr);
  ASSERT_NE(sym12, nullptr);
  const auto* during = debian->at(Date::ymd(2020, 5, 15));
  ASSERT_NE(during, nullptr);
  EXPECT_EQ(during->find(sym1->sha256()), nullptr)
      << "symantec-1 should be prematurely removed";
  EXPECT_NE(during->find(sym12->sha256()), nullptr)
      << "GeoTrust Universal CA 2 was curiously retained";
  const auto* after = debian->at(Date::ymd(2020, 8, 1));
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after->find(sym1->sha256()), nullptr)
      << "symantec-1 should be re-added after user complaints";
}

TEST_F(ScenarioTest, NodeJsPreservesTwcaAndSkid) {
  const auto* node = scenario_->database().find("NodeJS");
  const auto* nss = scenario_->database().find("NSS");
  auto twca = scenario_->factory().find("twca-root");
  ASSERT_NE(twca, nullptr);
  // NSS dropped it in the v53 analog...
  EXPECT_EQ(nss->back().find(twca->sha256()), nullptr);
  // ...NodeJS still ships it.
  EXPECT_NE(node->back().find(twca->sha256()), nullptr);
}

TEST_F(ScenarioTest, AndroidNeverCarriedProcert) {
  const auto* android = scenario_->database().find("Android");
  auto procert = scenario_->factory().find("procert-root");
  ASSERT_NE(procert, nullptr);
  for (const auto& snap : android->snapshots()) {
    EXPECT_EQ(snap.find(procert->sha256()), nullptr) << snap.date.to_string();
  }
}

TEST_F(ScenarioTest, DebianCarriedNonNssRootsUntil2015) {
  const auto* debian = scenario_->database().find("Debian");
  int early_extra = 0, late_extra = 0;
  const auto* nss = scenario_->database().find("NSS");
  rs::referee::FingerprintSet nss_ever;
  for (const auto& s : nss->snapshots()) {
    nss_ever = nss_ever.set_union(rs::referee::all_fingerprints(s));
  }
  const auto* early = debian->at(Date::ymd(2010, 1, 1));
  const auto* late = debian->at(Date::ymd(2018, 1, 1));
  ASSERT_NE(early, nullptr);
  ASSERT_NE(late, nullptr);
  const auto early_fps = rs::referee::all_fingerprints(*early);
  for (const auto& fp : early_fps.items()) {
    if (!nss_ever.contains(fp)) ++early_extra;
  }
  const auto late_fps = rs::referee::all_fingerprints(*late);
  for (const auto& fp : late_fps.items()) {
    if (!nss_ever.contains(fp)) ++late_extra;
  }
  EXPECT_EQ(early_extra, 19);  // paper: 19 historical non-NSS roots
  EXPECT_EQ(late_extra, 0);
}

TEST_F(ScenarioTest, DeterministicAcrossBuilds) {
  auto again = build_paper_scenario();
  const auto* a = scenario_->database().find("NSS");
  const auto* b = again.database().find("NSS");
  ASSERT_EQ(a->size(), b->size());
  EXPECT_EQ(rs::referee::all_fingerprints(a->back()),
            rs::referee::all_fingerprints(b->back()));
  // A different seed produces different certificates.
  auto other = build_paper_scenario(7);
  const auto* c = other.database().find("NSS");
  EXPECT_FALSE(rs::referee::all_fingerprints(a->back()) ==
               rs::referee::all_fingerprints(c->back()));
}

TEST(ScenarioData, UserAgentPopulationMatchesTable1) {
  const auto population = user_agent_population();
  int total = 0, included = 0;
  for (const auto& g : population) {
    total += g.versions;
    if (g.included) included += g.versions;
  }
  EXPECT_EQ(total, 200);
  EXPECT_EQ(included, 154);  // 77.0%
}

TEST(ScenarioData, SurveyHasThreeCategories) {
  const auto survey = software_survey();
  EXPECT_GT(survey.size(), 35u);
  int os = 0, lib = 0, client = 0;
  for (const auto& s : survey) {
    if (s.kind == SoftwareKind::kOperatingSystem) ++os;
    if (s.kind == SoftwareKind::kTlsLibrary) ++lib;
    if (s.kind == SoftwareKind::kTlsClient) ++client;
  }
  EXPECT_EQ(os, 8);
  EXPECT_GE(lib, 19);
  EXPECT_GE(client, 12);
}

TEST(ScenarioData, IncidentCatalogMatchesTable7) {
  const auto catalog = incident_catalog();
  int high = 0, medium = 0;
  for (const auto& i : catalog) {
    if (i.severity == RemovalSeverity::kHigh) ++high;
    if (i.severity == RemovalSeverity::kMedium) ++medium;
  }
  EXPECT_EQ(high, 6);
  EXPECT_EQ(medium, 3);
  // Table 7 cert counts.
  for (const auto& i : catalog) {
    if (i.bugzilla_id == "1670769") {
      EXPECT_EQ(i.root_ids.size(), 10u);
    }
    if (i.bugzilla_id == "1618402") {
      EXPECT_EQ(i.root_ids.size(), 3u);
    }
    if (i.bugzilla_id == "1387260") {
      EXPECT_EQ(i.root_ids.size(), 4u);
    }
    if (i.bugzilla_id == "682927") {
      EXPECT_EQ(i.root_ids.size(), 1u);
    }
  }
}

}  // namespace
}  // namespace rs::synth
