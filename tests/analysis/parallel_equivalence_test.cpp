// Serial-equivalence golden tests (the determinism contract of src/exec):
// on the curated paper scenario, the Jaccard matrix, SMACOF embedding, and
// every EcosystemStudy report must be byte-identical for any worker count.
// num_threads = 0 is the inline serial baseline; 1, 3, and 8 cover
// single-worker, non-power-of-two, and oversubscribed (8 > typical core
// count) configurations.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/analysis/diffs.h"
#include "src/analysis/jaccard.h"
#include "src/analysis/mds.h"
#include "src/analysis/staleness.h"
#include "src/core/study.h"
#include "src/exec/thread_pool.h"
#include "src/synth/paper_scenario.h"

namespace rs::analysis {
namespace {

const std::size_t kWorkerCounts[] = {1, 3, 8};

const rs::synth::PaperScenario& scenario() {
  static const rs::synth::PaperScenario s = rs::synth::build_paper_scenario();
  return s;
}

const rs::store::MembershipTable& table() {
  static const auto t =
      rs::store::MembershipTable::build(scenario().database());
  return t;
}

JaccardOptions figure1_options() {
  JaccardOptions opts;
  opts.min_date = rs::util::Date::ymd(2011, 1, 1);
  opts.max_per_provider = 20;
  return opts;
}

TEST(ParallelEquivalence, JaccardMatrixBitwiseIdentical) {
  const auto opts = figure1_options();
  const auto serial = jaccard_matrix(scenario().database(), table(), opts);
  ASSERT_GT(serial.size(), 0u);
  for (std::size_t workers : kWorkerCounts) {
    rs::exec::ThreadPool pool(workers);
    const auto parallel =
        jaccard_matrix(scenario().database(), table(), opts, &pool);
    ASSERT_EQ(parallel.size(), serial.size()) << workers << " workers";
    EXPECT_TRUE(parallel.values == serial.values) << workers << " workers";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel.labels[i].provider, serial.labels[i].provider);
      EXPECT_EQ(parallel.labels[i].provider_index,
                serial.labels[i].provider_index);
    }
  }
}

TEST(ParallelEquivalence, SmacofMdsBitwiseIdentical) {
  const auto dist =
      jaccard_matrix(scenario().database(), table(), figure1_options());
  const auto serial = smacof_mds(dist);
  for (std::size_t workers : kWorkerCounts) {
    rs::exec::ThreadPool pool(workers);
    const auto parallel = smacof_mds(dist, {}, &pool);
    EXPECT_EQ(parallel.iterations, serial.iterations) << workers << " workers";
    EXPECT_EQ(parallel.stress, serial.stress) << workers << " workers";
    EXPECT_EQ(parallel.normalized_stress, serial.normalized_stress)
        << workers << " workers";
    ASSERT_EQ(parallel.points.size(), serial.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
      EXPECT_EQ(parallel.points[i].x, serial.points[i].x) << "point " << i;
      EXPECT_EQ(parallel.points[i].y, serial.points[i].y) << "point " << i;
    }
  }
}

TEST(ParallelEquivalence, EmbeddingStressIdenticalForAnyPool) {
  const auto dist =
      jaccard_matrix(scenario().database(), table(), figure1_options());
  const auto mds = smacof_mds(dist);
  const double serial = embedding_stress(dist, mds.points);
  for (std::size_t workers : kWorkerCounts) {
    rs::exec::ThreadPool pool(workers);
    EXPECT_EQ(embedding_stress(dist, mds.points, &pool), serial)
        << workers << " workers";
  }
}

TEST(ParallelEquivalence, StalenessAndDiffSeriesIdentical) {
  const auto& db = scenario().database();
  const auto* nss = db.find("NSS");
  ASSERT_NE(nss, nullptr);
  const auto index = build_version_index(*nss, table());
  for (const char* name : {"Alpine", "AmazonLinux", "Android", "NodeJS",
                           "Debian", "Ubuntu"}) {
    const auto* deriv = db.find(name);
    ASSERT_NE(deriv, nullptr) << name;
    const auto stale_serial = derivative_staleness(*deriv, table(), index);
    const auto diffs_serial = derivative_diffs(*deriv, *nss, table(), index);
    for (std::size_t workers : kWorkerCounts) {
      rs::exec::ThreadPool pool(workers);

      EXPECT_EQ(derivative_staleness(*deriv, table(), index, &pool),
                stale_serial)
          << name << " @ " << workers;
      EXPECT_EQ(derivative_diffs(*deriv, *nss, table(), index, &pool),
                diffs_serial)
          << name << " @ " << workers;
    }
  }
}

// Every report rendered by the façade, as one blob per thread count.
std::string all_reports(rs::core::EcosystemStudy& study) {
  std::string out;
  out += study.report_table1();
  out += study.report_table2();
  out += study.report_table3();
  out += study.report_table4();
  out += study.report_table5();
  out += study.report_table6();
  out += study.report_table7();
  out += study.report_figure1(/*max_per_provider=*/12);
  out += study.report_figure2();
  out += study.report_figure3();
  out += study.report_figure4();
  return out;
}

TEST(ParallelEquivalence, AllStudyReportsByteIdentical) {
  rs::core::EcosystemStudy serial_study =
      rs::core::EcosystemStudy::from_paper_scenario();
  ASSERT_EQ(serial_study.pool(), nullptr);  // num_threads=0 => inline serial
  const std::string serial = all_reports(serial_study);

  for (std::size_t workers : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    rs::core::StudyOptions options;
    options.num_threads = workers;
    rs::core::EcosystemStudy study = rs::core::EcosystemStudy::from_paper_scenario(
        rs::synth::kPaperSeed, options);
    ASSERT_NE(study.pool(), nullptr);
    EXPECT_EQ(study.pool()->worker_count(), workers);
    const std::string parallel = all_reports(study);
    EXPECT_EQ(parallel, serial) << workers << " workers";
  }
}

}  // namespace
}  // namespace rs::analysis
