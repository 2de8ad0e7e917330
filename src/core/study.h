// EcosystemStudy: the top-level façade reproducing the paper end to end.
//
// Wraps a materialized scenario (or any StoreDatabase) and renders every
// table and figure of the evaluation as printable text, pairing measured
// values with the paper's published ones.  The bench harnesses are thin
// wrappers over these report functions; library users can call the
// underlying analysis modules directly for structured results.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/exec/thread_pool.h"
#include "src/store/membership.h"
#include "src/synth/paper_scenario.h"

namespace rs::query {
class TrustIndex;
}

namespace rs::core {

/// Execution knobs for a study instance.
struct StudyOptions {
  /// Worker threads for the analysis hot paths (Jaccard matrix, SMACOF,
  /// staleness/diff series).  0 = inline serial execution.  Any value
  /// produces bitwise-identical reports (see docs/PARALLELISM.md).
  std::size_t num_threads = 0;
};

/// One study instance over a scenario database.
class EcosystemStudy {
 public:
  /// Builds the curated paper scenario and wraps it.
  static EcosystemStudy from_paper_scenario(
      std::uint64_t seed = rs::synth::kPaperSeed,
      const StudyOptions& options = {});

  explicit EcosystemStudy(rs::synth::PaperScenario scenario,
                          const StudyOptions& options = {});

  const rs::store::StoreDatabase& database() const {
    return scenario_.database();
  }
  rs::synth::PaperScenario& scenario() { return scenario_; }
  const StudyOptions& options() const noexcept { return options_; }
  /// The study's pool (nullptr when num_threads == 0): analyses run
  /// serially inline in that case.
  rs::exec::ThreadPool* pool() const noexcept { return pool_.get(); }
  /// The database's membership table over its complete interner, built
  /// once at construction: every set reader (Jaccard matrix, NSS version
  /// index, staleness, diffs, exclusive roots, the TrustIndex) takes its
  /// rows.  See docs/INTERNING.md.
  const rs::store::MembershipTable& membership() const noexcept {
    return *membership_;
  }

  /// Table 1: top-200 user agents and root-store coverage.
  std::string report_table1() const;
  /// Table 2: dataset summary (snapshots per provider), paper vs measured.
  std::string report_table2() const;
  /// Table 3: root store hygiene, paper vs measured.
  std::string report_table3() const;
  /// Table 4: responses to high-severity NSS removals, paper vs measured.
  std::string report_table4();
  /// Table 5 (Appendix A): OS / TLS software root store survey.
  std::string report_table5() const;
  /// Table 6 (Appendix B): program-exclusive roots, paper vs measured.
  std::string report_table6();
  /// Table 7 (Appendix C): NSS removals since 2010, plus the
  /// removal-report completeness audit.
  std::string report_table7();
  /// Figure 1: MDS of pairwise Jaccard distances + cluster summary.
  std::string report_figure1(std::size_t max_per_provider = 40) const;
  /// Figure 2: the inverted pyramid (program shares of top UAs).
  std::string report_figure2() const;
  /// Figure 3: derivative staleness, paper vs measured.
  std::string report_figure3() const;
  /// Figure 4: derivative diff categories over time.
  std::string report_figure4() const;
  /// Landscape: cross-store agreement matrix at the latest common date,
  /// global union/intersection stats, and the yearly agreement series
  /// (docs/LANDSCAPE.md).
  std::string report_agreement();
  /// Landscape: per-provider at-date exclusive roots over a yearly grid,
  /// the at-date companion to Table 6's latest-vs-ever exclusives.
  std::string report_exclusivity();
  /// Landscape: synthetic CT-log accepted-roots landscape — per-log
  /// browser/store coverage, adoption lag, and log-exclusive roots.
  std::string report_ct_landscape();

 private:
  /// Lazily compiles (and caches) the TrustIndex over the scenario
  /// database from the study's membership table, on the study pool.  The
  /// landscape reports resolve presence views through it; the classic
  /// reports never touch it.
  const rs::query::TrustIndex& trust_index();

  rs::synth::PaperScenario scenario_;
  StudyOptions options_;
  // shared_ptr keeps the study copyable; the pool is stateless between
  // calls, so sharing it across copies is safe.  The table is immutable
  // after construction, so copies can share it too.
  std::shared_ptr<rs::exec::ThreadPool> pool_;
  std::shared_ptr<const rs::store::MembershipTable> membership_;
  std::shared_ptr<const rs::query::TrustIndex> trust_index_;
};

}  // namespace rs::core
