// Synthetic CT-log accepted-roots histories.
//
// Korzhitskii & Carlsson show CT logs maintain their own root-acceptance
// lists: broadly tracking the browser stores, but lagging adoptions,
// rarely removing anything, and accepting roots browsers never TLS-trust.
// This module generates such a provider from an existing ecosystem: given
// the browser/store database, a log accepts each TLS root some lag after
// its first browser adoption, keeps most roots even after browsers drop
// them, and picks up a fraction of the present-but-never-TLS roots
// (email-only and the like) — the log-exclusive population.
//
// Deterministic in (seed, name): each log draws from its own labeled Prng
// stream and walks certificates in sorted-fingerprint order, so a log's
// history does not depend on which other logs are generated beside it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/store/database.h"
#include "src/store/snapshot.h"
#include "src/util/date.h"

namespace rs::synth {

/// Acceptance policy for one synthetic CT log.
struct CtLogPolicy {
  std::string name = "CtLog0";
  std::uint64_t seed = 1;
  /// Base acceptance lag after a root's first browser TLS adoption, plus a
  /// uniform jitter in [0, lag_jitter_days).
  int accept_lag_days = 90;
  int lag_jitter_days = 90;
  /// Chance the log ever accepts a browser-adopted TLS root.
  double accept_prob = 0.95;
  /// Chance the log accepts a root that is present in some store but never
  /// a TLS anchor anywhere (these become log-exclusive under TLS scope).
  double extra_accept_prob = 0.25;
  /// Chance the log retires a root after every store has dropped it
  /// (realistic churn: logs mostly only grow).
  double retire_prob = 0.1;
  /// Accepted-roots snapshot cadence.
  int snapshot_interval_days = 90;
  rs::util::Date start = rs::util::Date::ymd(2000, 1, 1);
  rs::util::Date end = rs::util::Date::ymd(2021, 1, 1);
};

/// Generates one accepted-roots history per policy, in policy order, from
/// the stores in `db`: one sweep over `db` collects every certificate's
/// sightings, then each log draws its acceptances from them.  Accepted
/// roots are modeled as TLS anchors (a log's accepted list has a single
/// purpose).  Log i is deterministic in (policies[i].seed,
/// policies[i].name).
std::vector<rs::store::ProviderHistory> generate_ct_logs(
    const std::vector<CtLogPolicy>& policies,
    const rs::store::StoreDatabase& db);

}  // namespace rs::synth
