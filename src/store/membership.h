// The membership table: one IdSet per (provider, snapshot, scope).
//
// Figure 1's Jaccard matrix, Figure 3's version matching, Figure 4's diffs,
// Table 6's exclusive roots and the TrustIndex all read the same
// per-snapshot certificate sets.  The table computes them once per
// database over one complete CertInterner; readers take it beside the
// database or history it was built from.  See docs/INTERNING.md.
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/store/database.h"
#include "src/store/id_set.h"
#include "src/store/interner.h"
#include "src/store/trust.h"

namespace rs::exec {
class ThreadPool;
}

namespace rs::store {

/// One snapshot's membership sets, indexed by Scope.
using ScopeSets = std::array<IdSet, kScopeCount>;

class MembershipTable {
 public:
  /// Builds one lane per history of `db`, per provider on `pool` (any
  /// worker count gives the same table), over the complete universe
  /// CertInterner::from_database(db).
  static MembershipTable build(const StoreDatabase& db,
                               rs::exec::ThreadPool* pool = nullptr);
  /// The same over a given universe, which must cover every certificate
  /// of `db` (TrustIndex::build passes its caller's interner).
  static MembershipTable build(const StoreDatabase& db, CertInterner interner,
                               rs::exec::ThreadPool* pool = nullptr);

  /// The row builder: `snapshot`'s membership under every scope.  Throws
  /// std::logic_error when a certificate is outside the universe.
  static ScopeSets rows_of(const Snapshot& snapshot,
                           const CertInterner& interner);

  /// Adds one lane per history (replacing a lane of the same provider),
  /// built per history on `pool`.  Their certificates must already be in
  /// the universe.
  void add(const std::vector<const ProviderHistory*>& histories,
           rs::exec::ThreadPool* pool = nullptr);

  const CertInterner& interner() const noexcept { return interner_; }

  /// The rows of `history`'s snapshots, in history order.  Throws
  /// std::logic_error unless the table holds a lane for the provider with
  /// one row per snapshot (a table built over another database).
  const std::vector<ScopeSets>& lane(const ProviderHistory& history) const;

 private:
  CertInterner interner_;
  std::map<std::string, std::vector<ScopeSets>, std::less<>> lanes_;
};

/// The set of `scope` in one row.
inline const IdSet& in_scope(const ScopeSets& row, Scope scope) noexcept {
  return row[static_cast<std::size_t>(scope)];
}

}  // namespace rs::store
