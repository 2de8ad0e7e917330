// End-to-end integration: the study façade must reproduce the paper's
// headline findings from the curated scenario.
#include "src/core/study.h"

#include <gtest/gtest.h>

#include "src/analysis/exclusive.h"
#include "src/analysis/hygiene.h"
#include "src/analysis/incident_response.h"
#include "src/analysis/staleness.h"
#include "src/obs/clock.h"
#include "src/obs/registry.h"
#include "src/synth/incidents.h"

namespace rs::core {
namespace {

class StudyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    study_ = new EcosystemStudy(EcosystemStudy::from_paper_scenario());
  }
  static void TearDownTestSuite() {
    delete study_;
    study_ = nullptr;
  }
  static EcosystemStudy* study_;
};
EcosystemStudy* StudyTest::study_ = nullptr;

TEST_F(StudyTest, Table6CountsMatchPaperExactly) {
  const auto measured = rs::analysis::exclusive_roots(
      study_->database(), study_->membership(),
      {"NSS", "Java", "Apple", "Microsoft"});
  std::map<std::string, std::size_t> counts;
  for (const auto& m : measured) counts[m.program] = m.roots.size();
  EXPECT_EQ(counts["NSS"], 1u);
  EXPECT_EQ(counts["Java"], 0u);
  EXPECT_EQ(counts["Apple"], 13u);
  EXPECT_EQ(counts["Microsoft"], 30u);
}

TEST_F(StudyTest, Table3PurgeMonthsMatchPaperExactly) {
  struct Expected {
    const char* program;
    const char* md5;
    const char* weak;
  };
  const Expected expected[] = {
      {"Apple", "2016-09", "2015-09"},
      {"Java", "2019-02", "2021-02"},
      {"Microsoft", "2018-03", "2017-09"},
      {"NSS", "2016-02", "2015-10"},
  };
  for (const auto& e : expected) {
    const auto m =
        rs::analysis::hygiene_metrics(*study_->database().find(e.program));
    ASSERT_TRUE(m.md5_removed.has_value()) << e.program;
    ASSERT_TRUE(m.weak_rsa_removed.has_value()) << e.program;
    EXPECT_EQ(m.md5_removed->to_string().substr(0, 7), e.md5) << e.program;
    EXPECT_EQ(m.weak_rsa_removed->to_string().substr(0, 7), e.weak)
        << e.program;
  }
}

TEST_F(StudyTest, HygieneOrderingsMatchPaper) {
  auto metrics = [&](const char* p) {
    return rs::analysis::hygiene_metrics(*study_->database().find(p));
  };
  const auto apple = metrics("Apple");
  const auto java = metrics("Java");
  const auto microsoft = metrics("Microsoft");
  const auto nss = metrics("NSS");
  // Sizes: Microsoft > Apple > NSS > Java.
  EXPECT_GT(microsoft.avg_size, apple.avg_size);
  EXPECT_GT(apple.avg_size, nss.avg_size);
  EXPECT_GT(nss.avg_size, java.avg_size);
  // Expired retention: Microsoft far worst; NSS/Java cleanest.
  EXPECT_GT(microsoft.avg_expired, apple.avg_expired);
  EXPECT_GT(apple.avg_expired, nss.avg_expired);
}

TEST_F(StudyTest, Table4LagsMatchPaperWhereDefined) {
  auto& scenario = study_->scenario();
  for (const auto& incident : rs::synth::high_severity_incidents()) {
    const auto measured = rs::analysis::measure_incident(
        study_->database(), incident, scenario.factory(),
        &scenario.overlays());
    for (const auto& paper_row : incident.responses) {
      // Debian and Ubuntu rows are identical; Apple's Certinomis lag is
      // footnoted as approximate in the paper itself.
      if (incident.name == "Certinomis" && paper_row.provider == "Apple") {
        continue;
      }
      const rs::analysis::MeasuredResponse* found = nullptr;
      for (const auto& m : measured.responses) {
        if (m.provider == paper_row.provider) found = &m;
      }
      ASSERT_NE(found, nullptr)
          << incident.name << " / " << paper_row.provider;
      if (paper_row.lag_days.has_value()) {
        ASSERT_TRUE(found->lag_days.has_value())
            << incident.name << " / " << paper_row.provider;
        EXPECT_EQ(*found->lag_days, *paper_row.lag_days)
            << incident.name << " / " << paper_row.provider;
      } else {
        EXPECT_TRUE(found->still_trusted)
            << incident.name << " / " << paper_row.provider;
      }
    }
  }
}

TEST_F(StudyTest, Figure3OrderingMatchesPaper) {
  const auto index = rs::analysis::build_version_index(
      *study_->database().find("NSS"), study_->membership());
  auto behind = [&](const char* p) {
    return rs::analysis::derivative_staleness(*study_->database().find(p),
                                              study_->membership(), index)
        .avg_versions_behind;
  };
  const double alpine = behind("Alpine");
  const double debian = behind("Debian");
  const double ubuntu = behind("Ubuntu");
  const double node = behind("NodeJS");
  const double android = behind("Android");
  const double amazon = behind("AmazonLinux");
  EXPECT_LT(alpine, debian);
  EXPECT_LT(alpine, ubuntu);
  EXPECT_LT(debian, android);
  EXPECT_LT(node, android);
  EXPECT_LT(android, amazon);
  // Magnitudes within ~1.5 substantial versions of the paper.
  EXPECT_NEAR(alpine, 0.73, 1.0);
  EXPECT_NEAR(amazon, 4.83, 1.6);
}

TEST_F(StudyTest, ReportsAreNonEmptyAndMentionKeyFacts) {
  EXPECT_NE(study_->report_table1().find("77.0%"), std::string::npos);
  EXPECT_NE(study_->report_table2().find("NSS"), std::string::npos);
  EXPECT_NE(study_->report_table3().find("2016-02"), std::string::npos);
  EXPECT_NE(study_->report_table4().find("DigiNotar"), std::string::npos);
  EXPECT_NE(study_->report_table5().find("OpenSSL"), std::string::npos);
  EXPECT_NE(study_->report_table6().find("Microsoft"), std::string::npos);
  EXPECT_NE(study_->report_table7().find("682927"), std::string::npos);
  EXPECT_NE(study_->report_figure2().find("inverted pyramid"),
            std::string::npos);
  EXPECT_NE(study_->report_figure3().find("AmazonLinux"), std::string::npos);
  EXPECT_NE(study_->report_figure4().find("Symantec"), std::string::npos);
}

TEST_F(StudyTest, Figure1FindsFourPureFamilies) {
  const std::string report = study_->report_figure1(20);
  EXPECT_NE(report.find("clusters found: 4"), std::string::npos) << report;
  EXPECT_NE(report.find("overall purity: 100.0%"), std::string::npos);
}

// "Intern once", pinned by exact counts: a study interns its universe once
// and builds one row per (snapshot, scope); no report interns or builds a
// row again, except that ct_landscape builds the rows of its three CT-log
// lanes.
TEST(StudyCounts, InternsOnceAndBuildsEachRowOnce) {
  rs::obs::FakeClock clock(0, 10);
  auto& reg = rs::obs::Registry::global();
  reg.reset();
  reg.enable(&clock);

  auto study = EcosystemStudy::from_paper_scenario();
  const std::uint64_t snapshots = study.database().total_snapshots();
  EXPECT_EQ(snapshots, 670u);
  for (const auto& report :
       {study.report_table1(), study.report_table2(), study.report_table3(),
        study.report_table4(), study.report_table5(), study.report_table6(),
        study.report_table7(), study.report_figure1(), study.report_figure2(),
        study.report_figure3(), study.report_figure4(),
        study.report_agreement(), study.report_exclusivity()}) {
    EXPECT_FALSE(report.empty());
  }
  auto stats = reg.stage_stats();
  EXPECT_EQ(stats["store/intern_build"].count, 1u);
  EXPECT_EQ(reg.counter_value("store.membership_rows"), 4 * snapshots);

  // Three logs at the default 90-day cadence over 2000-01-01..2021-01-01
  // have 86 snapshots each.
  EXPECT_FALSE(study.report_ct_landscape().empty());
  stats = reg.stage_stats();
  EXPECT_EQ(stats["store/intern_build"].count, 1u);
  EXPECT_EQ(reg.counter_value("store.membership_rows"),
            4 * snapshots + 4 * 258);
  reg.disable();  // before the clock goes out of scope
  reg.reset();
}

}  // namespace
}  // namespace rs::core
