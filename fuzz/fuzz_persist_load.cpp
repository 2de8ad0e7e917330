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
//   * deep verification judges the input and its re-serialized image
//     alike, with equal stats when both pass: a load keeps every set and
//     interval the deep check compares, including intervals that disagree
//     with their sets.
#include <cstdint>
#include <span>
#include <string>

#include "fuzz/fuzz_harness.h"
#include "src/query/index_io.h"

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
                 "deep verify judges the input and its re-serialization "
                 "differently");
  RS_FUZZ_ASSERT(!verified.ok() || verified.value() == reverified.value(),
                 "deep verify stats differ across a round trip");
  return 0;
}
