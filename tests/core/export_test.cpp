// CSV exports: the figure data series must be well-formed CSV with the
// documented headers and one row per data point, and Figure 1's CSV must
// hold exactly the points `report fig1` embeds.
#include "src/core/export.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/store/database.h"
#include "src/synth/paper_scenario.h"
#include "src/util/strings.h"

namespace rs::core {
namespace {

class ExportTest : public ::testing::Test {
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
EcosystemStudy* ExportTest::study_ = nullptr;

std::vector<std::string_view> rows(const std::string& csv) {
  auto lines = rs::util::split_lines(csv);
  return lines;
}

TEST_F(ExportTest, Figure1CsvShape) {
  const auto csv = figure1_csv(*study_, 10);
  const auto lines = rows(csv);
  ASSERT_GT(lines.size(), 10u);
  EXPECT_EQ(lines[0], "provider,family,date,version,x,y,cluster");
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(rs::util::split(lines[i], ',').size(), 7u) << lines[i];
  }
  // Every provider family appears.
  EXPECT_NE(csv.find("Microsoft,Microsoft"), std::string::npos);
  EXPECT_NE(csv.find("Debian,Mozilla/NSS"), std::string::npos);
}

// `report fig1 --csv` is the data behind `report fig1`: one row per
// embedded snapshot, under the same default per-provider cap.
TEST_F(ExportTest, Figure1CsvHoldsTheReportsSnapshots) {
  const auto lines = rows(figure1_csv(*study_));
  const std::string report = study_->report_figure1();
  const std::string key = "snapshots=";
  const auto at = report.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t embedded = std::stoul(report.substr(at + key.size()));
  EXPECT_GT(embedded, 250u);
  EXPECT_EQ(lines.size() - 1, embedded);
}

TEST_F(ExportTest, Figure3CsvShape) {
  const auto csv = figure3_csv(*study_);
  const auto lines = rows(csv);
  EXPECT_EQ(lines[0],
            "provider,date,matched_version,current_version,versions_behind");
  ASSERT_GT(lines.size(), 50u);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto fields = rs::util::split(lines[i], ',');
    ASSERT_EQ(fields.size(), 5u);
    // versions_behind is non-negative.
    EXPECT_NE(fields[4].front(), '-');
  }
}

TEST_F(ExportTest, Figure4CsvShape) {
  const auto csv = figure4_csv(*study_);
  const auto lines = rows(csv);
  // Header: 3 id columns + 4 add categories + 2 remove categories.
  EXPECT_EQ(rs::util::split(lines[0], ',').size(), 9u);
  EXPECT_EQ(lines[0].find(' '), std::string::npos) << "no spaces in header";
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(rs::util::split(lines[i], ',').size(), 9u) << lines[i];
  }
}

TEST_F(ExportTest, ChurnCsvMarksOutliers) {
  const auto csv = churn_csv(*study_);
  const auto lines = rows(csv);
  EXPECT_EQ(lines[0], "provider,date,added,removed,change_fraction,is_outlier");
  bool any_outlier = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto fields = rs::util::split(lines[i], ',');
    ASSERT_EQ(fields.size(), 6u);
    if (fields[5] == "1") any_outlier = true;
  }
  EXPECT_TRUE(any_outlier);  // the scenario has batch-change outliers
}

TEST_F(ExportTest, CsvIsDeterministic) {
  EXPECT_EQ(figure3_csv(*study_), figure3_csv(*study_));
}

/// Splits one RFC 4180 record: quoted cells, quotes doubled inside them.
std::vector<std::string> csv_fields(std::string_view line) {
  std::vector<std::string> fields(1);
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted && c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
      fields.back() += '"';
      ++i;
    } else if (c == '"') {
      quoted = !quoted;
    } else if (c == ',' && !quoted) {
      fields.emplace_back();
    } else {
      fields.back() += c;
    }
  }
  return fields;
}

// A version label may hold a comma or a quote (write_dataset refuses only
// control bytes), so a CSV cell holding one must be quoted: every row
// still parses to the header's seven fields, the version intact.
TEST(ExportQuoting, Figure1RowsKeepVersionsHoldingCommasAndQuotes) {
  const std::string suffix = ",\"patched\"";
  auto scenario = rs::synth::build_paper_scenario();
  rs::store::StoreDatabase db;
  for (const auto& [name, history] : scenario.database().histories()) {
    rs::store::ProviderHistory copy(name);
    for (auto snapshot : history.snapshots()) {
      if (name == "NSS") snapshot.version += suffix;
      copy.add(std::move(snapshot));
    }
    db.add(std::move(copy));
  }
  scenario.replace_database(std::move(db));
  const EcosystemStudy study(std::move(scenario));

  const std::string csv = figure1_csv(study);
  const auto lines = rs::util::split_lines(csv);
  ASSERT_GT(lines.size(), 1u);
  EXPECT_EQ(lines[0], "provider,family,date,version,x,y,cluster");
  std::size_t nss_rows = 0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto fields = csv_fields(lines[i]);
    ASSERT_EQ(fields.size(), 7u) << lines[i];
    if (fields[0] != "NSS") continue;
    ++nss_rows;
    const std::string& version = fields[3];
    ASSERT_GE(version.size(), suffix.size()) << lines[i];
    EXPECT_EQ(version.substr(version.size() - suffix.size()), suffix)
        << lines[i];
  }
  EXPECT_GT(nss_rows, 0u);
}

}  // namespace
}  // namespace rs::core
