// The query engine: one handler shared by every access path.
//
// QueryEngine owns an immutable TrustIndex plus the user-agent attribution
// table (paper Table 1) and turns parsed requests into deterministic
// single-line JSON responses.  The one-shot CLI (`rootstore query`), the
// in-process API, and the socket server (`rootstore serve`) all call the
// same handle()/handle_json(), which is what makes the serve-layer test
// able to prove byte-identical answers across paths.
//
// Response grammar (docs/SERVING.md): every response is a flat JSON object
// on one line.  Success and typed not-covered answers lead with "op" then
// "status"; malformed or unanswerable requests produce
//   {"status":"error","code":"<machine readable>","message":"<human>"}.
// All construction is deterministic: fixed field order, sorted collections
// (root lists ride on the interner's sorted-digest ID order).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/query/request.h"
#include "src/query/trust_index.h"
#include "src/synth/user_agents.h"

namespace rs::exec {
class ThreadPool;
}

namespace rs::store {
class StoreDatabase;
}

namespace rs::query {

class QueryEngine {
 public:
  /// Compiles the index from `db` (interned via CertInterner::from_database)
  /// and captures the attribution rows.  `build_pool` builds the index's
  /// membership lanes only; queries never touch a pool.  `db` is not
  /// retained.
  QueryEngine(const rs::store::StoreDatabase& db,
              std::vector<rs::synth::UserAgentGroup> agents,
              rs::exec::ThreadPool* build_pool = nullptr);

  /// Wraps an already-compiled index — e.g. one loaded from a persisted
  /// RSIX file by TrustIndexIO::load_file — so a serve process cold-starts
  /// without a database or build pool.
  QueryEngine(TrustIndex index, std::vector<rs::synth::UserAgentGroup> agents);

  /// Parses one request line and answers it.  Parse failures become
  /// {"status":"error","code":"bad_request",...}; this function never
  /// throws on any input.  Batch envelopes ({"op":"batch","requests":[...]})
  /// answer every sub-request in order inside one batch_response() line;
  /// per-item failures are isolated to their slot.
  [[nodiscard]] std::string handle_json(std::string_view line) const;

  /// Answers an already-parsed request.
  [[nodiscard]] std::string handle(const Request& request) const;

  /// True for responses produced by the error path ("status" first).
  [[nodiscard]] static bool is_error_response(
      std::string_view response) noexcept;

  const TrustIndex& index() const noexcept { return index_; }

 private:
  std::string handle_is_trusted(const Request& r) const;
  std::string handle_providers_trusting(const Request& r) const;
  std::string handle_store_at(const Request& r) const;
  std::string handle_diff(const Request& r) const;
  std::string handle_agent_store(const Request& r) const;
  std::string handle_lineage(const Request& r) const;
  std::string handle_stats() const;
  std::string handle_verify_chain(const Request& r) const;
  std::string handle_first_rejected_at(const Request& r) const;
  std::string handle_agreement_at(const Request& r) const;
  std::string handle_ct_coverage(const Request& r) const;

  TrustIndex index_;
  std::vector<rs::synth::UserAgentGroup> agents_;
};

/// Builds the canonical error response (also used by the serve layer for
/// transport-level failures such as oversized request lines).
std::string error_response(std::string_view code, std::string_view message);

/// Assembles the batch envelope response from already-rendered per-item
/// response lines:
///   {"op":"batch","status":"ok","count":N,"responses":[...]}
/// Shared by QueryEngine::handle_json and the serve layer (which answers
/// items through its response cache but must emit identical bytes).
std::string batch_response(const std::vector<std::string>& responses);

}  // namespace rs::query
