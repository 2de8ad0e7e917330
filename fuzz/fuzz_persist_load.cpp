// Fuzz target: rs::query::TrustIndexIO::deserialize, the hardened loader
// for persisted RSIX index files (see docs/PERSISTENCE.md).  The loader is
// the only code that ever maps untrusted bytes straight into the query
// engine's tables, so it must fail closed — typed LoadError, no crash, no
// hostile allocation — for ANY byte string.
//
// Invariants checked on every accepted input:
//   * every digest of the loaded universe looks up to its own ID (the
//     interner's radix index agrees with its sorted array, whatever
//     prefixes the digests share),
//   * re-serializing the loaded index yields an image the loader accepts
//     again (a load never produces an unserializable index), and
//   * that second round trip is a byte-level fixed point (canonical
//     encoding: the bytes do not drift across load/store cycles), and
//   * verify() judges the input and its re-serialized image alike, with
//     equal stats when both pass.
// And, while universe x resolution points stays at most 2^20 so that one
// input stays cheap:
//   * each ID's lineage, in every scope, equals the referee's derivation
//     (tests/referee/intervals_reference.h) over each provider's sets, read
//     through snapshot_dates() and store_at(), and
//   * first_seen_tables() holds each ID's earliest `added` per provider.
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fuzz/fuzz_harness.h"
#include "src/landscape/index_view.h"
#include "src/query/index_io.h"
#include "tests/referee/intervals_reference.h"

namespace {

using rs::query::TrustIndex;
using rs::query::TrustInterval;

void check_derived_runs(const TrustIndex& index, rs::query::Scope scope) {
  const auto names = index.providers();
  const auto& interner = index.interner();
  const std::size_t universe = interner.size();
  // expected[p][id]: the referee's runs of `id` in provider p.
  std::vector<std::vector<std::vector<TrustInterval>>> expected;
  for (const auto& name : names) {
    const auto dates = index.snapshot_dates(name);
    std::vector<rs::store::IdSet> sets;
    for (const auto date : dates) {
      const auto view = index.store_at(name, date, scope);
      RS_FUZZ_ASSERT(view.has_value(), "a snapshot date does not resolve");
      sets.push_back(*view->roots);
    }
    expected.push_back(rs::referee::intervals::derive(dates, sets, universe));
  }
  const auto first_seen = rs::landscape::first_seen_tables(index, scope);
  RS_FUZZ_ASSERT(first_seen.size() == names.size(),
                 "one first-seen table per provider");
  for (std::uint32_t id = 0; id < universe; ++id) {
    const auto spans = index.lineage(interner.digest_of(id), scope);
    std::size_t next = 0;
    for (std::size_t p = 0; p < names.size(); ++p) {
      for (const TrustInterval& run : expected[p][id]) {
        RS_FUZZ_ASSERT(next < spans.size() &&
                           spans[next].provider == names[p] &&
                           spans[next].interval == run,
                       "lineage disagrees with the referee's runs");
        ++next;
      }
      const auto& runs = expected[p][id];
      const auto& seen = first_seen[p];
      RS_FUZZ_ASSERT(seen.size() == universe &&
                         (runs.empty() ? !seen[id].has_value()
                                       : seen[id] == runs.front().added),
                     "first-seen table disagrees with the earliest run");
    }
    RS_FUZZ_ASSERT(next == spans.size(), "lineage has runs the referee lacks");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // The container declares its own total size, so anything the mutator can
  // realistically explore fits well under this; the cap just keeps a
  // hostile declared-length from turning the fuzzer into an allocator
  // benchmark.
  constexpr std::size_t kMaxInput = 1 << 20;
  if (size > kMaxInput) return 0;

  auto loaded = rs::query::TrustIndexIO::deserialize({data, size});
  if (!loaded.ok()) return 0;

  const auto& interner = loaded.value().interner();
  for (std::uint32_t id = 0; id < interner.size(); ++id) {
    RS_FUZZ_ASSERT(interner.id_of(interner.digest_of(id)) == id,
                   "a universe digest does not look up to its own id");
  }

  const std::string first =
      rs::query::TrustIndexIO::serialize(loaded.value());
  const std::span<const std::uint8_t> first_bytes(
      reinterpret_cast<const std::uint8_t*>(first.data()), first.size());
  auto again = rs::query::TrustIndexIO::deserialize(first_bytes);
  RS_FUZZ_ASSERT(again.ok(), "re-serialized index rejected by the loader");
  RS_FUZZ_ASSERT(rs::query::TrustIndexIO::serialize(again.value()) == first,
                 "serialization is not a fixed point");

  const auto verified = rs::query::TrustIndexIO::verify({data, size});
  const auto reverified = rs::query::TrustIndexIO::verify(first_bytes);
  RS_FUZZ_ASSERT(verified.ok() == reverified.ok(),
                 "verify judges the input and its re-serialization "
                 "differently");
  RS_FUZZ_ASSERT(!verified.ok() || verified.value() == reverified.value(),
                 "verify stats differ across a round trip");

  constexpr std::uint64_t kMaxDerivedWork = std::uint64_t{1} << 20;
  const std::uint64_t work =
      static_cast<std::uint64_t>(interner.size()) *
      loaded.value().resolution_point_count();
  if (work <= kMaxDerivedWork) {
    for (std::size_t s = 0; s < rs::query::kScopeCount; ++s) {
      check_derived_runs(loaded.value(), static_cast<rs::query::Scope>(s));
    }
  }
  return 0;
}
