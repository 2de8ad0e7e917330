#include "src/query/index_io.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <string>
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

/// Presence runs over one (provider, scope)'s date-ordered sets: the IDs
/// each set gains over the previous one (the first set gains all of its
/// own).  Sets may differ in word count; a missing tail word reads as zero.
std::uint64_t run_count(const std::vector<IdSet>& sets) {
  static const std::vector<std::uint64_t> kNoWords;
  std::uint64_t runs = 0;
  for (std::size_t k = 0; k < sets.size(); ++k) {
    const auto& cur = sets[k].words();
    const auto& prev = k == 0 ? kNoWords : sets[k - 1].words();
    for (std::size_t w = 0; w < cur.size(); ++w) {
      const std::uint64_t before = w < prev.size() ? prev[w] : 0;
      runs += static_cast<std::uint64_t>(std::popcount(cur[w] & ~before));
    }
  }
  return runs;
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

  persist::FileBuilder builder;
  builder.add_section(kSectionInterner, std::move(interner).take());
  builder.add_section(kSectionProviders, std::move(providers).take());
  builder.add_section(kSectionSets, std::move(sets).take());
  span.set_items(index.resolutions_);
  return builder.finish();
}

// --- deserialize ------------------------------------------------------------

persist::Loaded<TrustIndex> TrustIndexIO::deserialize(
    std::span<const std::uint8_t> bytes) {
  using L = Loaded<TrustIndex>;
  rs::obs::Span span("persist/load");

  auto parsed = persist::FileView::parse(bytes);
  if (!parsed.ok()) return parsed.propagate<TrustIndex>();
  const persist::FileView& file = parsed.value();
  if (file.sections().size() != 3 ||
      !file.section(kSectionInterner) || !file.section(kSectionProviders) ||
      !file.section(kSectionSets)) {
    return L::fail(LoadError::kBadSectionTable,
                   "index file must carry exactly sections 1..3");
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
      if (r2.ok() && !d.has_iso_year()) {
        r2.fail(LoadError::kBadValue,
                "snapshot date outside 0000-01-01..9999-12-31");
      }
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

  for (std::size_t i = 0; i < index.providers_.size(); ++i) {
    index.by_name_.emplace(index.providers_[i].name, i);
    index.resolutions_ += index.providers_[i].dates.size();
  }
  span.set_items(index.resolutions_);
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
  using R = rs::util::Result<std::uint64_t>;
  // A file deserialize() rejects is no index: refuse a string past the
  // loader's caps before anything is written.
  for (const auto& p : index.providers_) {
    if (p.name.size() > persist::kMaxNameBytes) {
      return R::err("provider name '" + p.name + "' is " +
                    std::to_string(p.name.size()) +
                    " bytes; the index loader takes at most " +
                    std::to_string(persist::kMaxNameBytes));
    }
    for (const auto& version : p.versions) {
      if (version.size() > persist::kMaxVersionBytes) {
        return R::err("provider '" + p.name + "': version label '" +
                      version + "' is " + std::to_string(version.size()) +
                      " bytes; the index loader takes at most " +
                      std::to_string(persist::kMaxVersionBytes));
      }
    }
  }
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

// --- verification -----------------------------------------------------------

persist::Loaded<IndexFileStats> TrustIndexIO::verify(
    std::span<const std::uint8_t> bytes) {
  auto loaded = deserialize(bytes);
  if (!loaded.ok()) return loaded.propagate<IndexFileStats>();
  const TrustIndex& index = loaded.value();

  IndexFileStats stats;
  stats.bytes = bytes.size();
  stats.certificates = index.interner_.size();
  stats.providers = index.providers_.size();
  stats.resolution_points = index.resolutions_;
  for (const auto& p : index.providers_) {
    for (const auto& sets : p.sets) stats.intervals += run_count(sets);
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
  // is monotonic, so existing sets stay canonically ordered.
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
  index.push_point(
      p, snapshot,
      rs::store::MembershipTable::rows_of(snapshot, index.interner_));

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
