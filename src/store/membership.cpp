#include "src/store/membership.h"

#include <stdexcept>

#include "src/exec/thread_pool.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/store/object_ids.h"

namespace rs::store {

MembershipTable MembershipTable::build(const StoreDatabase& db,
                                       rs::exec::ThreadPool* pool) {
  return build(db, CertInterner::from_database(db), pool);
}

MembershipTable MembershipTable::build(const StoreDatabase& db,
                                       CertInterner interner,
                                       rs::exec::ThreadPool* pool) {
  MembershipTable table;
  table.interner_ = std::move(interner);
  std::vector<const ProviderHistory*> histories;
  for (const auto& entry : db.histories()) histories.push_back(&entry.second);
  table.add(histories, pool);
  return table;
}

namespace {

// `snapshot`'s membership under every scope, with `id_for(entry)` giving
// each entry's dense ID.
template <typename IdFor>
ScopeSets fill_rows(const Snapshot& snapshot, std::size_t universe,
                    IdFor&& id_for) {
  ScopeSets rows;
  for (auto& set : rows) set = IdSet(universe);
  for (const auto& entry : snapshot.entries) {
    const std::uint32_t id = id_for(entry);
    for (std::size_t s = 0; s < kScopeCount; ++s) {
      if (scope_matches(entry, static_cast<Scope>(s))) rows[s].insert(id);
    }
  }
  return rows;
}

std::uint32_t id_in(const CertInterner& interner, const TrustEntry& entry,
                    const Snapshot& snapshot) {
  const auto id = interner.id_of(entry.certificate->sha256());
  if (!id) {
    throw std::logic_error("certificate outside the universe in " +
                           snapshot.provider + " " + snapshot.version);
  }
  return *id;
}

}  // namespace

ScopeSets MembershipTable::rows_of(const Snapshot& snapshot,
                                   const CertInterner& interner) {
  return fill_rows(snapshot, interner.size(), [&](const TrustEntry& entry) {
    return id_in(interner, entry, snapshot);
  });
}

void MembershipTable::add(const std::vector<const ProviderHistory*>& histories,
                          rs::exec::ThreadPool* pool) {
  rs::obs::Span span("store/membership_build");
  // Each history fills its own lane; the map is touched serially after.
  std::vector<std::vector<ScopeSets>> lanes(histories.size());
  rs::exec::parallel_for(pool, histories.size(), [&](std::size_t i) {
    // One id_of per distinct certificate object of the lane.  The
    // histories are borrowed const for the whole build, so every entry's
    // object keeps its address.
    ObjectIds ids;
    const auto& snapshots = histories[i]->snapshots();
    lanes[i].reserve(snapshots.size());
    for (const auto& snapshot : snapshots) {
      lanes[i].push_back(fill_rows(
          snapshot, interner_.size(), [&](const TrustEntry& entry) {
            const auto [id, fresh] = ids.insert(entry.certificate.get());
            if (fresh) *id = id_in(interner_, entry, snapshot);
            return *id;
          }));
    }
  });
  std::size_t rows = 0;
  for (std::size_t i = 0; i < histories.size(); ++i) {
    rows += kScopeCount * lanes[i].size();
    lanes_.insert_or_assign(histories[i]->provider(), std::move(lanes[i]));
  }
  span.set_items(rows);
  rs::obs::Registry::global().counter("store.membership_rows").add(rows);
}

const std::vector<ScopeSets>& MembershipTable::lane(
    const ProviderHistory& history) const {
  const auto it = lanes_.find(history.provider());
  if (it == lanes_.end() || it->second.size() != history.size()) {
    throw std::logic_error("membership table holds no lane matching " +
                           history.provider());
  }
  return it->second;
}

}  // namespace rs::store
