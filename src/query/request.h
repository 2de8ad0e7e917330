// The trust-query request model and its strict wire parser.
//
// Requests arrive as one JSON object per line — from `rootstore query`
// argv, from a `rootstore serve` socket, or from a fuzzer.  The parser is
// deliberately narrow: a single flat object of string-valued fields, hard
// byte/field/length caps, no duplicate keys, and unknown-field rejection
// per operation.  Anything outside that envelope is a typed parse error,
// never a crash (fuzz/fuzz_query_request.cpp holds that line).
//
// canonical_request() re-serializes a parsed request into one canonical
// byte string (fixed field order, defaults materialized, lowercase hex,
// ISO dates).  Two requests that mean the same thing canonicalize to the
// same bytes, which is what the serve-layer response cache keys on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/crypto/digest.h"
#include "src/store/trust.h"
#include "src/util/date.h"
#include "src/util/result.h"

namespace rs::query {

/// Hard caps enforced before any allocation scales with input.
inline constexpr std::size_t kMaxRequestBytes = 4096;
inline constexpr std::size_t kMaxFields = 12;
inline constexpr std::size_t kMaxKeyBytes = 32;
inline constexpr std::size_t kMaxValueBytes = 512;

/// Chain-verification caps.  verify_chain/first_rejected_at requests carry
/// Base64 DER certificates ("leaf" plus a "pool" array), so they get wider
/// per-value and per-request budgets: each certificate at most
/// kMaxCertB64Bytes of Base64 (~2.3 KiB DER), at most kMaxPoolCerts pool
/// entries, and a total line budget of kMaxVerifyRequestBytes (which still
/// fits inside a batch envelope).  max_request_bytes(op) selects the
/// per-op total cap; every other op keeps kMaxRequestBytes.
inline constexpr std::size_t kMaxCertB64Bytes = 3072;
inline constexpr std::size_t kMaxPoolCerts = 8;
inline constexpr std::size_t kMaxVerifyRequestBytes = 32768;

/// Batch-envelope caps: one line may carry up to kMaxBatchRequests
/// sub-requests (each individually bounded by kMaxRequestBytes) inside a
/// total line budget of kMaxBatchBytes.  The serve layer sizes its
/// transport line cap from kMaxBatchBytes.
inline constexpr std::size_t kMaxBatchRequests = 64;
inline constexpr std::size_t kMaxBatchBytes = 65536;

/// The query operations the engine answers (docs/SERVING.md).
enum class Op : std::uint8_t {
  kIsTrusted,          // is fp a trust anchor for provider at date?
  kProvidersTrusting,  // which providers trust fp at date?
  kStoreAt,            // provider's resolved store at date
  kDiff,               // added/removed between two resolved dates
  kAgentStore,         // store a user agent consults at date (Table 1)
  kLineage,            // full add/remove timeline of fp across providers
  kStats,              // engine-level dataset summary
  kServerStats,        // serve-layer counters; answered by the server only
  kReloadIndex,        // hot-swap the serve engine; server only
  kVerifyChain,        // would provider accept this chain at date? (VERIFY.md)
  kFirstRejectedAt,    // first date an accepted chain flips to rejected
  kAgreementAt,        // cross-store agreement metrics at date (LANDSCAPE.md)
  kCtCoverage,         // one provider as "the log" vs every other store
};

/// Trust scope of a query (defined beside the trust model it reads).
using Scope = rs::store::Scope;
using rs::store::kScopeCount;

const char* to_string(Op op) noexcept;

/// One parsed, validated request.  Optional fields are populated exactly
/// when the operation uses them (parse_request enforces the per-op shape).
struct Request {
  Op op = Op::kStats;
  std::optional<rs::crypto::Sha256Digest> fp;
  std::optional<std::string> provider;
  std::optional<rs::util::Date> date;
  std::optional<rs::util::Date> date_a;
  std::optional<rs::util::Date> date_b;
  std::optional<std::string> user_agent;
  std::optional<std::string> os;
  Scope scope = Scope::kTls;
  /// verify_chain / first_rejected_at payload: the leaf certificate DER
  /// (decoded from Base64 at parse time) and the intermediate/root pool.
  /// The pool is sorted by DER bytes and deduplicated at parse time so two
  /// requests naming the same pool in any order share one canonical form
  /// (and thus one serve-cache slot).
  std::optional<std::vector<std::uint8_t>> leaf;
  std::vector<std::vector<std::uint8_t>> pool;
};

/// Per-op total request byte cap: kMaxVerifyRequestBytes for the
/// certificate-carrying verify ops, kMaxRequestBytes otherwise.
[[nodiscard]] std::size_t max_request_bytes(Op op) noexcept;

/// Parses one request line.  Errors are human-readable and safe to echo
/// back to the (untrusted) client.
[[nodiscard]] rs::util::Result<Request> parse_request(std::string_view text);

/// Canonical single-line serialization: `op` first, remaining fields in a
/// fixed order, `scope` always explicit for ops that take one.  Parsing
/// the result yields an equal Request (pinned by the fuzz harness).
[[nodiscard]] std::string canonical_request(const Request& request);

/// Appends canonical_request(request) to `out` — the one canonicalizer
/// (canonical_request wraps it).  Dates, fingerprints and certificates
/// are written in place; the serve layer appends the form straight after
/// its epoch prefix to build a cache key in one buffer.
void append_canonical_request(std::string& out, const Request& request);

/// Appends `s` as a JSON string literal (quotes + escapes) to `out`.
/// Shared by the canonicalizer and the response writers in engine.cpp.
void append_json_string(std::string& out, std::string_view s);

/// True when `text` opens a batch envelope: `{"op":"batch",...}` with `op`
/// as the first field (the batch grammar mandates field order, so this
/// cheap prefix test is exact).  Batch lines bypass parse_request and go
/// through parse_batch_request instead.
[[nodiscard]] bool looks_like_batch(std::string_view text) noexcept;

/// Parses one batch envelope line:
///
///   {"op":"batch","requests":[{...},{...},...]}
///
/// Grammar is strict: exactly the two fields above in that order, each
/// element of `requests` a JSON object.  Returned views alias `text` and
/// are the raw sub-request objects, NOT yet validated — feed each through
/// parse_request (or QueryEngine::handle_json) so per-item errors stay
/// isolated to their response slot.  Envelope-level violations (size over
/// kMaxBatchBytes, more than kMaxBatchRequests items, an item over
/// kMaxVerifyRequestBytes — the widest per-op cap; parse_request then
/// enforces the tighter per-op budget — malformed framing) fail the whole
/// line.
[[nodiscard]] rs::util::Result<std::vector<std::string_view>>
parse_batch_request(std::string_view text);

}  // namespace rs::query
