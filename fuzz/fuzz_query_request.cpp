// Fuzz target: rs::query::parse_request and the batch-envelope splitter
// parse_batch_request — the strict bounded NDJSON parsers behind
// `rootstore serve` and `rootstore query` (the only code that ever touches
// untrusted bytes on the serving path).
//
// Invariants checked on every single request:
//   * the parser agrees with the reference parser of
//     tests/referee/request_reference.h: the same accept or reject, the
//     same error text, the same Request, and the same canonical bytes;
// and on every accepted one:
//   * canonical_request() of a parsed request reparses successfully
//     (canonicalization never produces a line the parser rejects), and
//   * canonicalizing the reparse is a fixed point (cache keys are stable).
//
// Invariants checked on every accepted batch envelope:
//   * the splitter honors its caps (item count, per-item bytes) and every
//     returned view aliases the input line,
//   * items the request parser accepts satisfy the same canonical
//     fixed point as singletons, and
//   * re-wrapping the split items into a fresh envelope reparses to the
//     same item bytes (framing round-trips).
#include <cstring>
#include <string>
#include <string_view>

#include "fuzz/fuzz_harness.h"
#include "src/query/request.h"
#include "tests/referee/request_reference.h"

namespace {

void check_canonical_fixed_point(std::string_view line) {
  auto parsed = rs::query::parse_request(line);
  const auto reference = rs::referee::request::parse_request(line);
  RS_FUZZ_ASSERT(rs::referee::request::same_parse(parsed, reference),
                 "parser disagrees with the reference parser");
  if (!parsed.ok()) return;
  const std::string canonical = rs::query::canonical_request(parsed.value());
  RS_FUZZ_ASSERT(
      canonical == rs::referee::request::canonical_request(reference.value()),
      "canonical form differs from the reference canonicalizer");
  RS_FUZZ_ASSERT(
      canonical.size() <= rs::query::max_request_bytes(parsed.value().op),
      "canonical form exceeds the per-op request size cap");
  auto again = rs::query::parse_request(canonical);
  RS_FUZZ_ASSERT(again.ok(), "canonical form rejected by the parser");
  RS_FUZZ_ASSERT(rs::query::canonical_request(again.value()) == canonical,
                 "canonicalization is not a fixed point");
}

void check_batch(std::string_view line) {
  auto split = rs::query::parse_batch_request(line);
  if (!split.ok()) return;
  const auto& items = split.value();
  RS_FUZZ_ASSERT(items.size() <= rs::query::kMaxBatchRequests,
                 "batch splitter exceeded the item-count cap");
  std::string rewrapped = "{\"op\":\"batch\",\"requests\":[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::string_view item = items[i];
    RS_FUZZ_ASSERT(item.size() <= rs::query::kMaxVerifyRequestBytes,
                   "batch item exceeds the per-item size cap");
    RS_FUZZ_ASSERT(item.data() >= line.data() &&
                       item.data() + item.size() <= line.data() + line.size(),
                   "batch item does not alias the input line");
    check_canonical_fixed_point(item);
    if (i > 0) rewrapped += ',';
    rewrapped.append(item.data(), item.size());
  }
  rewrapped += "]}";
  if (rewrapped.size() > rs::query::kMaxBatchBytes) return;
  auto again = rs::query::parse_batch_request(rewrapped);
  RS_FUZZ_ASSERT(again.ok(), "re-wrapped batch rejected by the splitter");
  RS_FUZZ_ASSERT(again.value().size() == items.size(),
                 "re-wrapped batch changed the item count");
  for (std::size_t i = 0; i < items.size(); ++i) {
    RS_FUZZ_ASSERT(again.value()[i] == items[i],
                   "re-wrapped batch changed an item's bytes");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view line(reinterpret_cast<const char*>(data), size);
  if (rs::query::looks_like_batch(line)) {
    check_batch(line);
    return 0;
  }
  check_canonical_fixed_point(line);
  return 0;
}
