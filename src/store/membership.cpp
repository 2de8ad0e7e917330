#include "src/store/membership.h"

#include <stdexcept>

#include "src/exec/thread_pool.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"

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

ScopeSets MembershipTable::rows_of(const Snapshot& snapshot,
                                   const CertInterner& interner) {
  ScopeSets rows;
  for (auto& set : rows) set = IdSet(interner.size());
  for (const auto& entry : snapshot.entries) {
    const auto id = interner.id_of(entry.certificate->sha256());
    if (!id) {
      throw std::logic_error("certificate outside the universe in " +
                             snapshot.provider + " " + snapshot.version);
    }
    for (std::size_t s = 0; s < kScopeCount; ++s) {
      if (scope_matches(entry, static_cast<Scope>(s))) rows[s].insert(*id);
    }
  }
  return rows;
}

void MembershipTable::add(const std::vector<const ProviderHistory*>& histories,
                          rs::exec::ThreadPool* pool) {
  rs::obs::Span span("store/membership_build");
  // Each history fills its own lane; the map is touched serially after.
  std::vector<std::vector<ScopeSets>> lanes(histories.size());
  rs::exec::parallel_for(pool, histories.size(), [&](std::size_t i) {
    const auto& snapshots = histories[i]->snapshots();
    lanes[i].reserve(snapshots.size());
    for (const auto& snapshot : snapshots) {
      lanes[i].push_back(rows_of(snapshot, interner_));
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
