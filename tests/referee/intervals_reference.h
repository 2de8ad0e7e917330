// The reference interval derivation: every certificate's presence runs at
// once, as the library derived and stored them before it kept the sets
// alone.  For every consecutive pair of sets it materializes the two
// differences as IdSets, walks their ids() vectors, opens a run where a set
// gains an ID and closes it where the next set lacks it; runs still open
// after the last set stay open.  TrustIndex::intervals_of, the one-id
// derivation lineage() uses, must agree with it for every ID on every
// (dates, sets) sequence, trimmed or not (tests/query/trust_index_test.cpp,
// DeriveIntervals.*; fuzz/fuzz_persist_load.cpp).  Header-only, included
// from the repo root.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/query/trust_index.h"
#include "src/store/id_set.h"
#include "src/util/date.h"

namespace rs::referee::intervals {

inline std::vector<std::vector<rs::query::TrustInterval>> derive(
    const std::vector<rs::util::Date>& dates,
    const std::vector<rs::store::IdSet>& sets, std::size_t universe) {
  std::vector<std::vector<rs::query::TrustInterval>> intervals(universe);
  // `open[id]` holds the start of the run the certificate is currently
  // in, if any; closing a run appends one interval.
  std::vector<std::optional<rs::util::Date>> open(universe);
  for (std::size_t k = 0; k < sets.size(); ++k) {
    const rs::store::IdSet& members = sets[k];
    if (k == 0) {
      for (const std::uint32_t id : members.ids()) open[id] = dates[k];
    } else {
      const rs::store::IdSet& prev = sets[k - 1];
      for (const std::uint32_t id : members.difference(prev).ids()) {
        open[id] = dates[k];
      }
      for (const std::uint32_t id : prev.difference(members).ids()) {
        intervals[id].push_back({*open[id], dates[k]});
        open[id].reset();
      }
    }
  }
  for (std::uint32_t id = 0; id < universe; ++id) {
    if (open[id]) intervals[id].push_back({*open[id], std::nullopt});
  }
  return intervals;
}

}  // namespace rs::referee::intervals
