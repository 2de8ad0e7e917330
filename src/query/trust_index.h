// The temporal trust index: point-in-time queries over snapshot history.
//
// The batch pipeline answers "who trusts root R on date D" by rerunning
// whole-table analyses.  TrustIndex compiles the StoreDatabase once into
// two read-only structures and then answers each query in O(log n):
//
//   * Per (provider, scope, certificate): a date-ordered list of half-open
//     presence intervals [added, removed) derived from consecutive
//     snapshots.  A root removed and later re-added yields two disjoint
//     intervals — never one merged span.
//   * Per provider: the distinct snapshot dates plus the membership-table
//     IdSet per scope per date, resolving any query date to the latest
//     snapshot on or before it (ProviderHistory::at semantics).
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
  /// row per snapshot date becomes that date's set, and intervals are
  /// derived from consecutive sets.  O(history) work, parallelized per
  /// provider on `pool` when given (results are identical for any worker
  /// count — each provider's lane is independent and deterministic).
  static TrustIndex build(const rs::store::StoreDatabase& db,
                          const rs::store::MembershipTable& table,
                          rs::exec::ThreadPool* pool = nullptr);
  /// The same, over a membership table built here from `interner`, which
  /// must cover the database universe (CertInterner::from_database does).
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

  /// Point lookup, O(log intervals).  Unknown providers answer kNotCovered
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
  std::vector<LineageSpan> lineage(const rs::crypto::Sha256Digest& fp,
                                   Scope scope) const;

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
    // Per scope, per certificate ID: date-ordered presence intervals.
    // May be shorter than the universe (indexes past the end mean "no
    // runs"): the loader sizes each table to the highest ID that actually
    // has runs, so a file's memory cost is bounded by its contents.
    std::array<std::vector<std::vector<TrustInterval>>, kScopeCount>
        intervals;
  };

  const ProviderData* find(std::string_view provider) const;
  /// Index into `dates` resolving `date`, or nullopt outside coverage.
  static std::optional<std::size_t> resolve(const ProviderData& p,
                                            rs::util::Date date);
  static void build_provider(const rs::store::ProviderHistory& history,
                             const std::vector<rs::store::ScopeSets>& rows,
                             std::size_t universe, ProviderData& out);
  /// Presence runs per certificate ID over one (provider, scope)'s
  /// date-ordered sets: a run opens where a set gains the ID and closes
  /// where the next set lacks it.  build() and TrustIndexIO::verify share
  /// this one derivation.
  static std::vector<std::vector<TrustInterval>> derive_intervals(
      const std::vector<rs::util::Date>& dates,
      const std::vector<rs::store::IdSet>& sets, std::size_t universe);

  std::vector<ProviderData> providers_;  // name order
  std::map<std::string, std::size_t, std::less<>> by_name_;
  rs::store::CertInterner interner_;
  std::size_t resolutions_ = 0;
};

}  // namespace rs::query
