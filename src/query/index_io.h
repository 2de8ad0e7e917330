// Binary persistence and incremental append for the TrustIndex.
//
// `rootstore serve` answers queries from an immutable TrustIndex that is
// expensive to compile: decode snapshots, intern the certificate universe,
// build per-(provider,scope,date) membership sets.  TrustIndexIO
// round-trips the compiled index through the RSIX container defined in
// src/store/persist.h so a serve process cold-starts by loading flat
// arrays instead of rebuilding, and a new weekly snapshot is absorbed by
// touching only that provider's membership sets — O(delta), not
// O(history).
//
// Guarantees (enforced by tests/query/index_io_test.cpp and
// index_append_test.cpp):
//   * serialize() is canonical: a pure function of the logical index, so
//     serialize(deserialize(serialize(x))) == serialize(x) byte-for-byte,
//     and an incrementally appended index serializes byte-identically to
//     a full rebuild over the same snapshots.
//   * deserialize() is hardened like the PR-1 parsers: bounds-checked by
//     construction, caps on every count field, per-section checksums, and
//     a typed persist::LoadError for every way a file can lie (the
//     `persist_fault` ctest label sweeps truncations, bit flips, version
//     skew, and oversized counts).
//   * The file holds each piece of data once: presence intervals are not
//     stored but derived from the sets, so no two structures can disagree.
//
// File layout (docs/PERSISTENCE.md has the diagram): format version 2,
// three sections — interner digests, provider timelines, per-date
// membership IdSets — all fixed-width little-endian flat arrays.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/query/trust_index.h"
#include "src/store/persist.h"

namespace rs::store {
struct Snapshot;
class StoreDatabase;
}  // namespace rs::store

namespace rs::query {

/// RSIX section ids used by the index container.
inline constexpr std::uint32_t kSectionInterner = 1;
inline constexpr std::uint32_t kSectionProviders = 2;
inline constexpr std::uint32_t kSectionSets = 3;

/// Summary returned by verify(): what a structurally valid index file
/// contains.
struct IndexFileStats {
  std::uint64_t providers = 0;
  std::uint64_t certificates = 0;
  std::uint64_t resolution_points = 0;  // distinct dates over all providers
  // Presence runs over every (provider, scope): the sum over k of
  // |S_k \ S_{k-1}|, with S_{-1} empty.
  std::uint64_t intervals = 0;
  std::uint64_t bytes = 0;

  friend bool operator==(const IndexFileStats&,
                         const IndexFileStats&) = default;
};

class TrustIndexIO {
 public:
  /// Canonical byte image of the index (deterministic; see above).
  static std::string serialize(const TrustIndex& index);

  /// Parses and structurally validates an index image.  Never throws on
  /// any input; every malformation maps to a typed LoadError.
  static rs::store::persist::Loaded<TrustIndex> deserialize(
      std::span<const std::uint8_t> bytes);

  /// serialize() + persist::atomic_write_file.  Returns bytes written.
  /// Refuses, writing nothing, an index whose provider names or version
  /// labels exceed the loader's caps (persist::kMaxNameBytes,
  /// kMaxVersionBytes), so every file written here loads back.
  static rs::util::Result<std::uint64_t> write_file(const TrustIndex& index,
                                                    const std::string& path);

  /// mmaps `path` and deserializes it.  The mapping lives only for the
  /// duration of the load; the returned index owns all of its memory.
  static rs::store::persist::Loaded<TrustIndex> load_file(
      const std::string& path);

  /// A full deserialize plus the file's stats.  Fails exactly when
  /// deserialize() does.
  static rs::store::persist::Loaded<IndexFileStats> verify(
      std::span<const std::uint8_t> bytes);
  static rs::store::persist::Loaded<IndexFileStats> verify_file(
      const std::string& path);

  /// Absorbs one snapshot into the index incrementally: grows the interner
  /// if the snapshot carries unseen certificates (a monotonic dense-ID
  /// remap), then touches only `snapshot.provider`'s membership sets.
  /// Snapshots must arrive in date order per provider; a snapshot dated
  /// equal to the provider's newest replaces it (the equal-dated-snapshot
  /// collapse the full build applies).  The result is
  /// indistinguishable — byte-for-byte under serialize() — from a full
  /// rebuild over the same snapshots.
  static rs::util::Result<bool> append_snapshot(
      TrustIndex& index, const rs::store::Snapshot& snapshot);

  /// Appends every database snapshot strictly newer than the provider's
  /// indexed coverage (all snapshots for providers the index has never
  /// seen), one at a time in date order.  Returns the number absorbed.
  static rs::util::Result<std::size_t> append_from_database(
      TrustIndex& index, const rs::store::StoreDatabase& db);

 private:
  /// Grows the interner universe by `fresh` (sorted, unique, disjoint from
  /// the current universe) and remaps every dense ID in the index.  The
  /// remap is monotonic, so canonical serialization order is preserved.
  static void grow_interner(TrustIndex& index,
                            const std::vector<rs::crypto::Sha256Digest>& fresh);
};

}  // namespace rs::query
