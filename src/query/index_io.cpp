#include "src/query/index_io.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/store/database.h"
#include "src/store/snapshot.h"

namespace rs::query {
namespace {

namespace persist = rs::store::persist;
using persist::ByteReader;
using persist::ByteWriter;
using persist::Loaded;
using persist::LoadError;
using rs::store::IdSet;
using rs::util::Date;

/// Sentinel for an open interval's `removed` date in interval records.
constexpr std::int64_t kOpenSentinel = std::numeric_limits<std::int64_t>::min();
/// Cap on interval records per (provider, scope); the byte-availability
/// check in ByteReader::count is always the binding one, this just keeps
/// the arithmetic obviously safe.
constexpr std::uint64_t kMaxIntervalRecords = std::uint64_t{1} << 36;
/// Fixed-width size of one interval record: id + pad + added + removed.
constexpr std::size_t kIntervalRecordBytes = 4 + 4 + 8 + 8;

using IntervalTable = std::vector<std::vector<TrustInterval>>;

/// Runs for `id`, growing the (possibly trimmed) table as needed.
std::vector<TrustInterval>& runs_grow(IntervalTable& table, std::uint32_t id) {
  if (id >= table.size()) table.resize(static_cast<std::size_t>(id) + 1);
  return table[id];
}

/// Runs for `id` without growing; nullptr when the trimmed table has none.
std::vector<TrustInterval>* runs_at(IntervalTable& table, std::uint32_t id) {
  if (id >= table.size()) return nullptr;
  return &table[id];
}

}  // namespace

void TrustIndexIO::grow_interner(
    TrustIndex& index, const std::vector<rs::crypto::Sha256Digest>& fresh) {
  const auto& old = index.interner_.digests();
  std::vector<rs::crypto::Sha256Digest> merged;
  merged.reserve(old.size() + fresh.size());
  std::merge(old.begin(), old.end(), fresh.begin(), fresh.end(),
             std::back_inserter(merged));
  rs::store::CertInterner next(std::move(merged));

  std::vector<std::uint32_t> remap(old.size());
  for (std::size_t i = 0; i < old.size(); ++i) {
    remap[i] = *next.id_of(old[i]);
  }

  for (auto& p : index.providers_) {
    for (std::size_t s = 0; s < kScopeCount; ++s) {
      for (auto& set : p.sets[s]) {
        IdSet mapped(next.size());
        for (const std::uint32_t id : set.ids()) mapped.insert(remap[id]);
        set = std::move(mapped);
      }
      auto& table = p.intervals[s];
      std::size_t new_size = 0;
      for (std::size_t id = 0; id < table.size(); ++id) {
        if (!table[id].empty()) new_size = remap[id] + std::size_t{1};
      }
      IntervalTable mapped_table(new_size);
      for (std::size_t id = 0; id < table.size(); ++id) {
        if (!table[id].empty()) {
          mapped_table[remap[id]] = std::move(table[id]);
        }
      }
      table = std::move(mapped_table);
    }
  }
  index.interner_ = std::move(next);
}

// --- serialize --------------------------------------------------------------

std::string TrustIndexIO::serialize(const TrustIndex& index) {
  rs::obs::Span span("persist/serialize");

  ByteWriter interner;
  persist::write_digests(interner, index.interner_.digests());

  ByteWriter providers;
  providers.u64(index.providers_.size());
  for (const auto& p : index.providers_) {
    providers.str(p.name);
    providers.u64(p.dates.size());
    for (const Date d : p.dates) providers.i64(d.days_since_epoch());
    for (const auto& v : p.versions) providers.str(v);
  }

  ByteWriter sets;
  for (const auto& p : index.providers_) {
    for (std::size_t s = 0; s < kScopeCount; ++s) {
      for (const auto& set : p.sets[s]) persist::write_id_set(sets, set);
    }
  }

  ByteWriter intervals;
  std::uint64_t total_runs = 0;
  for (const auto& p : index.providers_) {
    for (std::size_t s = 0; s < kScopeCount; ++s) {
      const auto& table = p.intervals[s];
      std::uint64_t runs = 0;
      for (const auto& per_cert : table) runs += per_cert.size();
      intervals.u64(runs);
      total_runs += runs;
      for (std::uint32_t id = 0; id < table.size(); ++id) {
        for (const TrustInterval& run : table[id]) {
          intervals.u32(id);
          intervals.u32(0);
          intervals.i64(run.added.days_since_epoch());
          intervals.i64(run.removed ? run.removed->days_since_epoch()
                                    : kOpenSentinel);
        }
      }
    }
  }

  persist::FileBuilder builder;
  builder.add_section(kSectionInterner, std::move(interner).take());
  builder.add_section(kSectionProviders, std::move(providers).take());
  builder.add_section(kSectionSets, std::move(sets).take());
  builder.add_section(kSectionIntervals, std::move(intervals).take());
  std::string image = builder.finish();
  span.set_items(total_runs);
  return image;
}

// --- deserialize ------------------------------------------------------------

persist::Loaded<TrustIndex> TrustIndexIO::deserialize(
    std::span<const std::uint8_t> bytes) {
  using L = Loaded<TrustIndex>;
  rs::obs::Span span("persist/load");

  auto parsed = persist::FileView::parse(bytes);
  if (!parsed.ok()) return parsed.propagate<TrustIndex>();
  const persist::FileView& file = parsed.value();
  if (file.sections().size() != 4 ||
      !file.section(kSectionInterner) || !file.section(kSectionProviders) ||
      !file.section(kSectionSets) || !file.section(kSectionIntervals)) {
    return L::fail(LoadError::kBadSectionTable,
                   "index file must carry exactly sections 1..4");
  }

  TrustIndex index;

  // Section 1: the interner's sorted digest universe.
  ByteReader r1(*file.section(kSectionInterner));
  auto digests = persist::read_digests(r1);
  if (!r1.ok()) return L::fail(r1.failure());
  if (!r1.finished()) {
    return L::fail(LoadError::kTrailingBytes, "interner section");
  }
  const std::size_t universe = digests.size();
  index.interner_ = rs::store::CertInterner(std::move(digests));

  // Section 2: provider names, snapshot dates, version labels.
  ByteReader r2(*file.section(kSectionProviders));
  const std::uint64_t provider_count =
      r2.count(persist::kMaxProviders, 16, "provider");
  index.providers_.reserve(provider_count);
  for (std::uint64_t i = 0; i < provider_count && r2.ok(); ++i) {
    TrustIndex::ProviderData p;
    p.name = r2.str(persist::kMaxNameBytes, "provider name");
    if (r2.ok() && p.name.empty()) {
      r2.fail(LoadError::kBadValue, "empty provider name");
    }
    if (r2.ok() && !index.providers_.empty() &&
        !(index.providers_.back().name < p.name)) {
      r2.fail(LoadError::kBadValue, "provider names not strictly ascending");
    }
    const std::uint64_t date_count =
        r2.count(persist::kMaxDatesPerProvider, 8, "snapshot date");
    if (r2.ok() && date_count == 0) {
      r2.fail(LoadError::kBadValue, "provider with no snapshots");
    }
    p.dates.reserve(date_count);
    for (std::uint64_t k = 0; k < date_count && r2.ok(); ++k) {
      const Date d = Date::from_days(r2.i64());
      if (r2.ok() && !p.dates.empty() && !(p.dates.back() < d)) {
        r2.fail(LoadError::kBadValue,
                "snapshot dates not strictly ascending");
      }
      p.dates.push_back(d);
    }
    p.versions.reserve(date_count);
    for (std::uint64_t k = 0; k < date_count && r2.ok(); ++k) {
      p.versions.push_back(r2.str(persist::kMaxVersionBytes, "version label"));
    }
    index.providers_.push_back(std::move(p));
  }
  if (!r2.ok()) return L::fail(r2.failure());
  if (!r2.finished()) {
    return L::fail(LoadError::kTrailingBytes, "provider section");
  }

  // Section 3: per provider, per scope, per date membership sets.
  ByteReader r3(*file.section(kSectionSets));
  for (auto& p : index.providers_) {
    for (std::size_t s = 0; s < kScopeCount && r3.ok(); ++s) {
      p.sets[s].reserve(p.dates.size());
      for (std::size_t k = 0; k < p.dates.size() && r3.ok(); ++k) {
        p.sets[s].push_back(persist::read_id_set(r3, universe));
      }
    }
  }
  if (!r3.ok()) return L::fail(r3.failure());
  if (!r3.finished()) {
    return L::fail(LoadError::kTrailingBytes, "membership section");
  }

  // Section 4: flattened interval records, grouped by (provider, scope),
  // sorted by (cert id, added date).
  ByteReader r4(*file.section(kSectionIntervals));
  std::uint64_t total_runs = 0;
  for (auto& p : index.providers_) {
    for (std::size_t s = 0; s < kScopeCount && r4.ok(); ++s) {
      const std::uint64_t run_count =
          r4.count(kMaxIntervalRecords, kIntervalRecordBytes, "interval");
      auto& table = p.intervals[s];
      bool have_prev = false;
      std::uint32_t prev_id = 0;
      std::optional<Date> prev_removed;
      bool prev_open = false;
      for (std::uint64_t k = 0; k < run_count && r4.ok(); ++k) {
        const std::uint32_t id = r4.u32();
        const std::uint32_t reserved = r4.u32();
        const std::int64_t added_days = r4.i64();
        const std::int64_t removed_days = r4.i64();
        if (!r4.ok()) break;
        if (reserved != 0) {
          r4.fail(LoadError::kBadValue, "reserved interval field not zero");
          break;
        }
        if (id >= universe) {
          r4.fail(LoadError::kBadValue,
                  "interval certificate id beyond the universe");
          break;
        }
        TrustInterval run;
        run.added = Date::from_days(added_days);
        if (removed_days != kOpenSentinel) {
          if (removed_days <= added_days) {
            r4.fail(LoadError::kBadValue, "interval removed before added");
            break;
          }
          run.removed = Date::from_days(removed_days);
        }
        if (have_prev) {
          if (id < prev_id) {
            r4.fail(LoadError::kBadValue,
                    "interval records not sorted by certificate id");
            break;
          }
          if (id == prev_id) {
            // Same certificate: runs must be disjoint and date-ordered,
            // and only the last run of a certificate may be open.
            if (prev_open || !prev_removed || !(*prev_removed < run.added)) {
              r4.fail(LoadError::kBadValue,
                      "overlapping or unordered intervals for one "
                      "certificate");
              break;
            }
          }
        }
        have_prev = true;
        prev_id = id;
        prev_removed = run.removed;
        prev_open = !run.removed.has_value();
        runs_grow(table, id).push_back(run);
        ++total_runs;
      }
    }
  }
  if (!r4.ok()) return L::fail(r4.failure());
  if (!r4.finished()) {
    return L::fail(LoadError::kTrailingBytes, "interval section");
  }

  for (std::size_t i = 0; i < index.providers_.size(); ++i) {
    index.by_name_.emplace(index.providers_[i].name, i);
    index.resolutions_ += index.providers_[i].dates.size();
  }
  span.set_items(total_runs);
  auto& reg = rs::obs::Registry::global();
  if (reg.enabled()) {
    reg.counter("persist.bytes_loaded").add(bytes.size());
    reg.counter("persist.indexes_loaded").increment();
  }
  return index;
}

// --- file round trips -------------------------------------------------------

rs::util::Result<std::uint64_t> TrustIndexIO::write_file(
    const TrustIndex& index, const std::string& path) {
  const std::string image = serialize(index);
  auto written = persist::atomic_write_file(path, image);
  if (written.ok()) {
    auto& reg = rs::obs::Registry::global();
    if (reg.enabled()) {
      reg.counter("persist.bytes_written").add(written.value());
    }
  }
  return written;
}

persist::Loaded<TrustIndex> TrustIndexIO::load_file(const std::string& path) {
  // The mapping lives only for the duration of the parse; deserialize
  // copies into owned flat arrays, so the returned index outlives it.
  auto mapped = persist::MappedFile::open(path);
  if (!mapped.ok()) return mapped.propagate<TrustIndex>();
  return deserialize(mapped.value().bytes());
}

// --- deep verification ------------------------------------------------------

persist::Loaded<IndexFileStats> TrustIndexIO::verify(
    std::span<const std::uint8_t> bytes) {
  using L = Loaded<IndexFileStats>;
  auto loaded = deserialize(bytes);
  if (!loaded.ok()) return loaded.propagate<IndexFileStats>();
  const TrustIndex& index = loaded.value();
  const std::size_t universe = index.interner_.size();

  IndexFileStats stats;
  stats.bytes = bytes.size();
  stats.certificates = universe;
  stats.providers = index.providers_.size();
  stats.resolution_points = index.resolutions_;

  static const std::vector<TrustInterval> kNoRuns;
  for (const auto& p : index.providers_) {
    for (std::size_t s = 0; s < kScopeCount; ++s) {
      const IntervalTable expected =
          TrustIndex::derive_intervals(p.dates, p.sets[s], universe);
      const auto& table = p.intervals[s];
      for (std::size_t id = 0; id < universe; ++id) {
        const auto& got = id < table.size() ? table[id] : kNoRuns;
        if (got != expected[id]) {
          return L::fail(LoadError::kBadValue,
                         "interval table for provider '" + p.name +
                             "' disagrees with its membership sets "
                             "(internally inconsistent file)");
        }
        stats.intervals += got.size();
      }
    }
  }
  return stats;
}

persist::Loaded<IndexFileStats> TrustIndexIO::verify_file(
    const std::string& path) {
  auto mapped = persist::MappedFile::open(path);
  if (!mapped.ok()) return mapped.propagate<IndexFileStats>();
  return verify(mapped.value().bytes());
}

// --- incremental append -----------------------------------------------------

rs::util::Result<bool> TrustIndexIO::append_snapshot(
    TrustIndex& index, const rs::store::Snapshot& snapshot) {
  using R = rs::util::Result<bool>;
  rs::obs::Span span("persist/append_snapshot");
  if (snapshot.provider.empty()) {
    return R::err("snapshot carries no provider name");
  }

  // Grow the universe first so every entry interns.  The dense-ID remap
  // is monotonic, so existing sets and intervals stay canonically ordered.
  std::vector<rs::crypto::Sha256Digest> fresh;
  for (const auto& entry : snapshot.entries) {
    const auto fp = entry.certificate->sha256();
    if (!index.interner_.id_of(fp)) fresh.push_back(fp);
  }
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  if (!fresh.empty()) grow_interner(index, fresh);

  // Locate (or create, keeping name order) the provider's lane.
  std::size_t pi;
  const auto it = index.by_name_.find(snapshot.provider);
  if (it == index.by_name_.end()) {
    pi = 0;
    while (pi < index.providers_.size() &&
           index.providers_[pi].name < snapshot.provider) {
      ++pi;
    }
    index.providers_.insert(
        index.providers_.begin() + static_cast<std::ptrdiff_t>(pi),
        TrustIndex::ProviderData{});
    index.providers_[pi].name = snapshot.provider;
    index.by_name_.clear();
    for (std::size_t i = 0; i < index.providers_.size(); ++i) {
      index.by_name_.emplace(index.providers_[i].name, i);
    }
  } else {
    pi = it->second;
  }
  auto& p = index.providers_[pi];

  if (!p.dates.empty() && snapshot.date < p.dates.back()) {
    return R::err("snapshot for " + snapshot.provider + " dated " +
                  snapshot.date.to_string() +
                  " precedes the indexed coverage ending " +
                  p.dates.back().to_string() +
                  "; incremental append must be chronological");
  }
  const bool replace = !p.dates.empty() && snapshot.date == p.dates.back();

  const auto inconsistent = [&]() {
    return R::err("index intervals disagree with membership sets for " +
                  snapshot.provider +
                  " (corrupt index; run `rootstore index verify`)");
  };

  if (replace) {
    // Equal-dated snapshots collapse to the later one (the full build's
    // ProviderHistory::at semantics): un-apply the provider's newest
    // snapshot before appending the replacement.
    const Date d = p.dates.back();
    for (std::size_t s = 0; s < kScopeCount; ++s) {
      auto& sets = p.sets[s];
      auto& table = p.intervals[s];
      const IdSet prev =
          sets.size() >= 2 ? sets[sets.size() - 2] : IdSet();
      const IdSet& cur = sets.back();
      for (const std::uint32_t id : cur.difference(prev).ids()) {
        auto* runs = runs_at(table, id);
        if (runs == nullptr || runs->empty() || runs->back().added != d ||
            runs->back().removed.has_value()) {
          return inconsistent();
        }
        runs->pop_back();
      }
      for (const std::uint32_t id : prev.difference(cur).ids()) {
        auto* runs = runs_at(table, id);
        if (runs == nullptr || runs->empty() ||
            runs->back().removed != std::optional<Date>(d)) {
          return inconsistent();
        }
        runs->back().removed.reset();
      }
      sets.pop_back();
    }
    p.dates.pop_back();
    p.versions.pop_back();
    index.resolutions_ -= 1;
  }

  auto rows = rs::store::MembershipTable::rows_of(snapshot, index.interner_);
  for (std::size_t s = 0; s < kScopeCount; ++s) {
    IdSet& members = rows[s];
    auto& sets = p.sets[s];
    auto& table = p.intervals[s];
    const IdSet prev = sets.empty() ? IdSet() : sets.back();
    for (const std::uint32_t id : members.difference(prev).ids()) {
      runs_grow(table, id).push_back({snapshot.date, std::nullopt});
    }
    for (const std::uint32_t id : prev.difference(members).ids()) {
      auto* runs = runs_at(table, id);
      if (runs == nullptr || runs->empty() ||
          runs->back().removed.has_value()) {
        return inconsistent();
      }
      runs->back().removed = snapshot.date;
    }
    sets.push_back(std::move(members));
  }
  p.dates.push_back(snapshot.date);
  p.versions.push_back(snapshot.version);
  index.resolutions_ += 1;

  auto& reg = rs::obs::Registry::global();
  if (reg.enabled()) reg.counter("persist.snapshots_appended").increment();
  return true;
}

rs::util::Result<std::size_t> TrustIndexIO::append_from_database(
    TrustIndex& index, const rs::store::StoreDatabase& db) {
  std::size_t appended = 0;
  for (const auto& [name, history] : db.histories()) {
    if (history.empty()) continue;
    std::optional<Date> covered;
    const auto it = index.by_name_.find(name);
    if (it != index.by_name_.end()) {
      covered = index.providers_[it->second].dates.back();
    }
    for (const auto& snapshot : history.snapshots()) {
      // Only strictly newer snapshots: anything on or before the indexed
      // coverage is already represented (equal dates collapsed at build).
      if (covered && !(*covered < snapshot.date)) continue;
      auto ok = append_snapshot(index, snapshot);
      if (!ok.ok()) return ok.propagate<std::size_t>();
      ++appended;
    }
  }
  return appended;
}

}  // namespace rs::query
