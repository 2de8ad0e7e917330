// Table-vs-referee equivalence: the membership-table engine must reproduce
// the sorted-merge referee (tests/analysis/merge_referee.h) bit for bit —
// Jaccard matrices, closest-version matches, staleness series, diff series,
// exclusive roots, Table 2's store-state counts, churn and update cadence
// — serially and on a 3-worker pool, on the paper scenario, on simulated
// ecosystems, and on a database whose providers ship same-date
// re-releases.  See docs/INTERNING.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/analysis/cadence.h"
#include "src/analysis/churn.h"
#include "src/analysis/diffs.h"
#include "src/analysis/exclusive.h"
#include "src/analysis/jaccard.h"
#include "src/analysis/staleness.h"
#include "src/exec/thread_pool.h"
#include "src/store/membership.h"
#include "src/synth/paper_scenario.h"
#include "src/synth/simulator.h"
#include "tests/analysis/merge_referee.h"

namespace rs::analysis {

// Readable gtest output for mismatched staleness and diff points.
void PrintTo(const StalenessPoint& p, std::ostream* os) {
  *os << p.date.to_string() << " v" << p.matched_version << "/v"
      << p.current_version;
}
void PrintTo(const SnapshotDiff& d, std::ostream* os) {
  *os << d.date.to_string() << " v" << d.matched_version << " adds";
  for (const auto n : d.adds) *os << ' ' << n;
  *os << " removes";
  for (const auto n : d.removes) *os << ' ' << n;
}

namespace {

using rs::store::MembershipTable;
using rs::store::ProviderHistory;
using rs::store::StoreDatabase;

constexpr std::size_t kWorkerCounts[] = {0, 3};

/// One database and the roles its providers play in the analyses.
struct Input {
  const StoreDatabase* db = nullptr;
  std::string nss;
  std::vector<std::string> derivatives;
  std::vector<std::string> programs;
  JaccardOptions jaccard;
};

/// Runs `check(table, pool)` with a table built on a pool of each worker
/// count (0 = inline serial, no pool).
template <typename Check>
void for_each_pool(const Input& in, const Check& check) {
  for (const std::size_t workers : kWorkerCounts) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    std::unique_ptr<rs::exec::ThreadPool> pool;
    if (workers > 0) pool = std::make_unique<rs::exec::ThreadPool>(workers);
    const auto table = MembershipTable::build(*in.db, pool.get());
    check(table, pool.get());
  }
}

void check_jaccard(const Input& in, SetKind kind) {
  JaccardOptions opts = in.jaccard;
  opts.set_kind = kind;
  for_each_pool(in, [&](const MembershipTable& table,
                        rs::exec::ThreadPool* pool) {
    const auto matrix = jaccard_matrix(*in.db, table, opts, pool);
    ASSERT_GT(matrix.size(), 1u);
    EXPECT_TRUE(matrix.values ==
                referee::jaccard_values(*in.db, matrix.labels, kind));
  });
}

void check_closest_match(const Input& in) {
  const ProviderHistory& nss = *in.db->find(in.nss);
  const auto versions = referee::substantial_versions(nss);
  for_each_pool(in, [&](const MembershipTable& table, rs::exec::ThreadPool*) {
    const auto index = build_version_index(nss, table);
    ASSERT_EQ(index.size(), versions.size());
    for (const auto& name : in.derivatives) {
      const ProviderHistory& h = *in.db->find(name);
      const auto& lane = table.lane(h);
      for (std::size_t k = 0; k < h.size(); ++k) {
        const auto* want =
            referee::closest_match(versions,
                                   referee::tls_anchors(h.snapshots()[k]));
        const auto* got = index.closest_match(
            rs::store::in_scope(lane[k], rs::store::Scope::kTls));
        ASSERT_NE(want, nullptr);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->index, want->index) << name << " snapshot " << k;
      }
    }
  });
}

void check_staleness(const Input& in) {
  const ProviderHistory& nss = *in.db->find(in.nss);
  const auto versions = referee::substantial_versions(nss);
  for_each_pool(in, [&](const MembershipTable& table,
                        rs::exec::ThreadPool* pool) {
    const auto index = build_version_index(nss, table);
    for (const auto& name : in.derivatives) {
      const ProviderHistory& h = *in.db->find(name);
      EXPECT_EQ(derivative_staleness(h, table, index, pool).points,
                referee::staleness_points(h, versions))
          << name;
    }
  });
}

void check_diffs(const Input& in) {
  const ProviderHistory& nss = *in.db->find(in.nss);
  const auto versions = referee::substantial_versions(nss);
  for_each_pool(in, [&](const MembershipTable& table,
                        rs::exec::ThreadPool* pool) {
    const auto index = build_version_index(nss, table);
    for (const auto& name : in.derivatives) {
      const ProviderHistory& h = *in.db->find(name);
      const auto got = derivative_diffs(h, nss, table, index, pool);
      const auto want = referee::diffs(h, nss, versions);
      EXPECT_EQ(got.points, want.points) << name;
      EXPECT_EQ(got.ever_deviates, want.ever_deviates) << name;
    }
  });
}

void check_exclusive(const Input& in) {
  const auto want = referee::exclusive_roots(*in.db, in.programs);
  for_each_pool(in, [&](const MembershipTable& table, rs::exec::ThreadPool*) {
    EXPECT_EQ(exclusive_roots(*in.db, table, in.programs), want);
  });
}

// Table 2's "# Uniq" is update_cadence's substantial-update count.
void check_store_states(const Input& in) {
  for_each_pool(in, [&](const MembershipTable& table, rs::exec::ThreadPool*) {
    for (const auto& [name, history] : in.db->histories()) {
      EXPECT_EQ(update_cadence(history, table).substantial_updates,
                referee::store_states(history))
          << name;
    }
  });
}

void check_churn(const Input& in) {
  for_each_pool(in, [&](const MembershipTable& table, rs::exec::ThreadPool*) {
    for (const auto& [name, history] : in.db->histories()) {
      EXPECT_TRUE(churn_series(history, table) ==
                  referee::churn_series(history))
          << name;
    }
  });
}

void check_cadence(const Input& in) {
  for_each_pool(in, [&](const MembershipTable& table, rs::exec::ThreadPool*) {
    for (const auto& [name, history] : in.db->histories()) {
      EXPECT_TRUE(update_cadence(history, table) ==
                  referee::update_cadence(history))
          << name;
    }
  });
}

void check_all(const Input& in) {
  check_jaccard(in, SetKind::kAllCertificates);
  check_jaccard(in, SetKind::kTlsAnchors);
  check_closest_match(in);
  check_staleness(in);
  check_diffs(in);
  check_exclusive(in);
  check_store_states(in);
  check_churn(in);
  check_cadence(in);
}

// --- the paper scenario ----------------------------------------------------

const Input& paper() {
  static const rs::synth::PaperScenario scenario =
      rs::synth::build_paper_scenario();
  static const Input input = [] {
    Input in;
    in.db = &scenario.database();
    in.nss = "NSS";
    in.derivatives = {"Alpine", "AmazonLinux", "Android",
                      "NodeJS", "Debian",      "Ubuntu"};
    in.programs = {"NSS", "Java", "Apple", "Microsoft"};
    in.jaccard.min_date = rs::util::Date::ymd(2011, 1, 1);
    in.jaccard.max_per_provider = 20;
    return in;
  }();
  return input;
}

TEST(InternEquivalence, JaccardMatrixBitwiseIdentical) {
  check_jaccard(paper(), SetKind::kAllCertificates);
}

TEST(InternEquivalence, JaccardTlsAnchorsKind) {
  check_jaccard(paper(), SetKind::kTlsAnchors);
}

TEST(InternEquivalence, ClosestMatchAgreesForEveryDerivativeSnapshot) {
  check_closest_match(paper());
}

TEST(InternEquivalence, StalenessSeriesIdentical) { check_staleness(paper()); }

TEST(InternEquivalence, DiffSeriesIdentical) { check_diffs(paper()); }

TEST(InternEquivalence, ExclusiveRootsIdentical) { check_exclusive(paper()); }

TEST(InternEquivalence, Table2StoreStatesIdentical) {
  check_store_states(paper());
}

TEST(InternEquivalence, ChurnSeriesIdentical) { check_churn(paper()); }

TEST(InternEquivalence, UpdateCadenceIdentical) { check_cadence(paper()); }

// --- simulated ecosystems ---------------------------------------------------

rs::synth::SimulatedEcosystem simulate(std::uint64_t seed) {
  rs::synth::SimulatorConfig cfg;
  cfg.seed = seed;
  cfg.ca_count = 60;
  cfg.program_count = 3;
  cfg.derivative_count = 3;
  cfg.snapshot_interval_days = 120;
  return rs::synth::simulate_ecosystem(cfg);
}

Input simulated_input(const rs::synth::SimulatedEcosystem& eco,
                      const StoreDatabase& db) {
  Input in;
  in.db = &db;
  in.nss = eco.base_program;
  in.derivatives = eco.derivative_names;
  in.programs = db.providers();
  in.jaccard.max_per_provider = 25;
  return in;
}

class SimulatedEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatedEquivalence, AllAnalysesMatchReferee) {
  const auto eco = simulate(GetParam());
  check_all(simulated_input(eco, eco.database));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatedEquivalence,
                         ::testing::Values(7, 21, 1337));

// Every provider of a simulated ecosystem re-releases every third snapshot
// on its own date with the next snapshot's roots.  In the base program's
// re-releases the first TLS anchor carries a partial-distrust cutoff, and
// the derivatives drop those roots (as Debian dropped the Symantec roots
// NSS partially distrusted).  Versions, matches and diff categories must
// follow each row's own snapshot, not another one of the same date.
TEST(InternEquivalence, EqualDatedSnapshotsMatchReferee) {
  const auto eco = simulate(21);
  std::vector<rs::crypto::Sha256Digest> cut;
  const auto rerelease = [&](const ProviderHistory& history, bool base) {
    ProviderHistory out(history.provider());
    const auto& snaps = history.snapshots();
    for (std::size_t k = 0; k < snaps.size(); ++k) {
      out.add(snaps[k]);
      if (k % 3 != 0 || k + 1 == snaps.size()) continue;
      rs::store::Snapshot again = snaps[k + 1];
      again.date = snaps[k].date;
      for (auto& entry : again.entries) {
        if (!base || !entry.is_tls_anchor()) continue;
        entry.trust_for(rs::store::TrustPurpose::kServerAuth).distrust_after =
            again.date;
        cut.push_back(entry.certificate->sha256());
        break;
      }
      out.add(std::move(again));
    }
    return out;
  };
  StoreDatabase db;
  db.add(rerelease(*eco.database.find(eco.base_program), true));
  ASSERT_FALSE(cut.empty());
  for (const auto& [name, history] : eco.database.histories()) {
    if (name == eco.base_program) continue;
    ProviderHistory trimmed(name);
    for (auto snap : history.snapshots()) {
      std::erase_if(snap.entries, [&](const rs::store::TrustEntry& e) {
        return std::find(cut.begin(), cut.end(), e.certificate->sha256()) !=
               cut.end();
      });
      trimmed.add(std::move(snap));
    }
    db.add(rerelease(trimmed, false));
  }
  check_all(simulated_input(eco, db));
}

}  // namespace
}  // namespace rs::analysis
