// The temporal trust index: point-in-time queries over snapshot history.
//
// The batch pipeline answers "who trusts root R on date D" by rerunning
// whole-table analyses.  TrustIndex compiles the StoreDatabase once into
// one read-only structure: per provider, the distinct snapshot dates plus
// the membership-table IdSet per scope per date.  A query date resolves to
// the latest snapshot on or before it (ProviderHistory::at semantics) in
// O(log dates), and a point lookup is then one bit of that date's set.
//
// Presence intervals are derived from the sets when asked, never stored:
// per (provider, scope, certificate), a date-ordered list of half-open
// runs [added, removed) over consecutive sets.  A root removed and later
// re-added yields two disjoint intervals — never one merged span.
//
// Coverage is explicit: a provider only answers for dates inside
// [first snapshot, last snapshot]; anything earlier or later is a typed
// kNotCovered, never a silent `false` (the dataset simply doesn't know).
//
// The index is immutable after build() and safe for concurrent readers —
// the serving layer fans queries across a thread pool with no locking.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/query/request.h"
#include "src/store/database.h"
#include "src/store/id_set.h"
#include "src/store/interner.h"
#include "src/store/membership.h"
#include "src/util/date.h"

namespace rs::exec {
class ThreadPool;
}

namespace rs::query {

/// A point query's three-valued answer.
enum class TrustAnswer : std::uint8_t { kTrusted, kUntrusted, kNotCovered };

const char* to_string(TrustAnswer a) noexcept;

/// One maximal presence run.  `removed` is the date of the first snapshot
/// without the certificate (exclusive bound); nullopt means it was still
/// present in the provider's newest snapshot.
struct TrustInterval {
  rs::util::Date added;
  std::optional<rs::util::Date> removed;

  friend bool operator==(const TrustInterval&, const TrustInterval&) = default;
};

/// One lineage entry: an interval in one provider's history.
struct LineageSpan {
  std::string provider;
  TrustInterval interval;
};

/// A provider's date coverage window (inclusive on both ends).
struct ProviderCoverage {
  rs::util::Date first;
  rs::util::Date last;
};

/// The resolved store for (provider, date, scope).  Views borrow from the
/// index and stay valid for its lifetime.
struct StoreView {
  std::string_view provider;
  std::string_view version;       // provider-native version label
  rs::util::Date snapshot_date;   // the snapshot the date resolved to
  const rs::store::IdSet* roots = nullptr;
};

/// Membership delta between two resolved snapshots of one provider.
struct StoreDiff {
  StoreView from;
  StoreView to;
  rs::store::IdSet added;    // in `to` but not `from`
  rs::store::IdSet removed;  // in `from` but not `to`
};

class TrustIndex {
 public:
  TrustIndex() = default;

  /// Compiles the index from `table`'s rows (built over `db`): the last
  /// row per snapshot date becomes that date's set.  O(history) work.
  static TrustIndex build(const rs::store::StoreDatabase& db,
                          const rs::store::MembershipTable& table);
  /// The same, over a membership table built here from `interner`, which
  /// must cover the database universe (CertInterner::from_database does).
  /// `pool` builds the table's rows per provider (any worker count gives
  /// the same index).
  static TrustIndex build(const rs::store::StoreDatabase& db,
                          const rs::store::CertInterner& interner,
                          rs::exec::ThreadPool* pool = nullptr);

  const rs::store::CertInterner& interner() const noexcept {
    return interner_;
  }

  std::vector<std::string> providers() const;
  std::size_t provider_count() const noexcept { return providers_.size(); }
  /// Distinct resolution dates summed over providers.
  std::size_t resolution_point_count() const noexcept { return resolutions_; }
  bool has_provider(std::string_view provider) const;
  std::optional<ProviderCoverage> coverage(std::string_view provider) const;
  /// The provider's distinct snapshot dates, ascending; empty for unknown
  /// providers.  The temporal verify path (first_rejected_at) sweeps these
  /// as verdict breakpoints — between consecutive snapshots the resolved
  /// store, and thus the anchor set, cannot change.
  std::vector<rs::util::Date> snapshot_dates(std::string_view provider) const;
  /// The provider's per-date sets under `scope`, parallel to
  /// snapshot_dates(); empty for unknown providers.  Views borrow from the
  /// index.  Sets may differ in word count (a loaded set is trimmed).
  std::span<const rs::store::IdSet> history_sets(std::string_view provider,
                                                 Scope scope) const;

  /// Point lookup, O(log dates).  Unknown providers answer kNotCovered
  /// (the engine layer distinguishes them via has_provider for a typed
  /// error); unknown certificates inside coverage answer kUntrusted.
  TrustAnswer is_trusted(const rs::crypto::Sha256Digest& fp,
                         std::string_view provider, rs::util::Date date,
                         Scope scope) const;

  /// Providers answering kTrusted at `date` (name order).  Providers whose
  /// coverage excludes `date` are reported in `not_covered` when non-null.
  std::vector<std::string> providers_trusting(
      const rs::crypto::Sha256Digest& fp, rs::util::Date date, Scope scope,
      std::vector<std::string>* not_covered = nullptr) const;

  /// Resolved store view; nullopt when the provider is unknown or the date
  /// is outside its coverage.
  std::optional<StoreView> store_at(std::string_view provider,
                                    rs::util::Date date, Scope scope) const;

  /// Delta between the stores resolved at `date_a` and `date_b`; nullopt
  /// when either date is uncovered or the provider is unknown.
  std::optional<StoreDiff> diff(std::string_view provider,
                                rs::util::Date date_a, rs::util::Date date_b,
                                Scope scope) const;

  /// Every presence interval of `fp` across all providers, provider-name
  /// order then ascending `added`.  Unknown certificates yield no spans.
  /// Derived from each provider's sets: O(dates) over all providers.
  std::vector<LineageSpan> lineage(const rs::crypto::Sha256Digest& fp,
                                   Scope scope) const;

  /// Presence runs of certificate `id` over one (provider, scope)'s
  /// date-ordered sets: a run opens at the first set that holds the ID and
  /// closes at the first later set that lacks it; a run still open after
  /// the last set has no `removed`.  Sets may differ in word count.
  /// lineage() derives its spans with this; the referee in
  /// tests/referee/intervals_reference.h checks it.
  static std::vector<TrustInterval> intervals_of(
      std::span<const rs::util::Date> dates,
      std::span<const rs::store::IdSet> sets, std::uint32_t id);

 private:
  // The persistence layer (serialize/load/append, docs/PERSISTENCE.md)
  // reads and reconstructs the private representation directly.
  friend class TrustIndexIO;

  struct ProviderData {
    std::string name;
    // Distinct snapshot dates, ascending.  When a history carries several
    // snapshots on one date, the last one wins (matching
    // ProviderHistory::at resolution).
    std::vector<rs::util::Date> dates;
    std::vector<std::string> versions;  // parallel to `dates`
    // Per scope, per distinct date: interned membership set.
    std::array<std::vector<rs::store::IdSet>, kScopeCount> sets;
  };

  const ProviderData* find(std::string_view provider) const;
  /// Index into `dates` resolving `date`, or nullopt outside coverage.
  static std::optional<std::size_t> resolve(const ProviderData& p,
                                            rs::util::Date date);
  static void build_provider(const rs::store::ProviderHistory& history,
                             const std::vector<rs::store::ScopeSets>& rows,
                             ProviderData& out);
  std::vector<ProviderData> providers_;  // name order
  std::map<std::string, std::size_t, std::less<>> by_name_;
  rs::store::CertInterner interner_;
  std::size_t resolutions_ = 0;
};

}  // namespace rs::query
