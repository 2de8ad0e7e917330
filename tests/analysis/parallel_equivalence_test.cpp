// Serial-equivalence golden test (the determinism contract of src/exec):
// on the curated paper scenario, every EcosystemStudy report must be
// byte-identical for any worker count.  The pool builds the membership
// table's per-provider lanes; every analysis reads those rows inline.
// num_threads = 0 is the inline serial baseline; 1, 3, and 8 cover
// single-worker, non-power-of-two, and oversubscribed (8 > typical core
// count) configurations.
#include <gtest/gtest.h>

#include <string>

#include "src/core/study.h"
#include "src/synth/paper_scenario.h"

namespace rs::analysis {
namespace {

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
