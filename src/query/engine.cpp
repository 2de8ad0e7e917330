#include "src/query/engine.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <functional>
#include <utility>

#include "src/landscape/index_view.h"
#include "src/store/database.h"
#include "src/store/interner.h"
#include "src/util/hex.h"
#include "src/verify/temporal.h"
#include "src/verify/verify.h"
#include "src/x509/certificate.h"

namespace rs::query {
namespace {

/// Appends `value` in decimal.
void append_uint(std::string& out, std::uint64_t value) {
  char buf[24];
  const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
  out.append(buf, end);
}

/// Appends a fingerprint as a quoted string of 64 lowercase hex digits,
/// written in place (hex digits never need escaping).
void append_fp(std::string& out, const rs::crypto::Sha256Digest& fp) {
  out.push_back('"');
  rs::util::append_hex(out, fp);
  out.push_back('"');
}

/// Appends a date as a quoted "YYYY-MM-DD", written in place.
void append_date(std::string& out, const rs::util::Date& d) {
  out.push_back('"');
  d.append_to(out);
  out.push_back('"');
}

/// Incremental writer for the flat response objects.  Field order is the
/// call order, so every response shape is fixed at its call site.  Keys
/// are literals of this file and are written as they are; free-text
/// values go through append_json_string, dates and fingerprints are
/// written in place.
class ResponseWriter {
 public:
  /// Room for the common responses in one allocation; finish() hands the
  /// buffer on, and the response cache stores an exact-size copy.
  ResponseWriter() {
    out_.reserve(256);
    out_.push_back('{');
  }

  void field(std::string_view key, std::string_view value) {
    key_only(key);
    append_json_string(out_, value);
  }
  void field_date(std::string_view key, const rs::util::Date& value) {
    key_only(key);
    append_date(out_, value);
  }
  void field_fp(std::string_view key, const rs::crypto::Sha256Digest& value) {
    key_only(key);
    append_fp(out_, value);
  }
  void field_uint(std::string_view key, std::uint64_t value) {
    key_only(key);
    append_uint(out_, value);
  }
  void field_bool(std::string_view key, bool value) {
    key_only(key);
    out_ += value ? "true" : "false";
  }
  void field_null(std::string_view key) {
    key_only(key);
    out_ += "null";
  }
  void field_strings(std::string_view key,
                     const std::vector<std::string>& values) {
    key_only(key);
    out_.push_back('[');
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out_.push_back(',');
      append_json_string(out_, values[i]);
    }
    out_.push_back(']');
  }
  /// Opens a raw value position; the caller appends JSON via raw().
  void key_only(std::string_view key) {
    if (out_.size() > 1) out_.push_back(',');
    out_.push_back('"');
    out_ += key;
    out_ += "\":";
  }
  std::string& raw() { return out_; }

  std::string finish() {
    out_.push_back('}');
    return std::move(out_);
  }

 private:
  std::string out_;
};

/// Serializes an IdSet as a sorted array of hex fingerprints.  The array
/// is sized once, 66 bytes per quoted fingerprint plus the commas and
/// brackets, and every fingerprint's digits are written into it.
void append_roots(ResponseWriter& w, std::string_view key,
                  const rs::store::IdSet& ids,
                  const rs::store::CertInterner& interner) {
  w.key_only(key);
  std::string& out = w.raw();
  const std::vector<std::uint32_t> members = ids.ids();
  const std::size_t at = out.size();
  out.resize(at + 2 + (members.empty() ? 0 : members.size() * 67 - 1));
  char* p = out.data() + at;
  *p++ = '[';
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i > 0) *p++ = ',';
    *p++ = '"';
    p = rs::util::write_hex(p, interner.digest_of(members[i]));
    *p++ = '"';
  }
  *p = ']';
}

/// Common echo prefix: op + status.
ResponseWriter begin(const Request& r, std::string_view status) {
  ResponseWriter w;
  w.field("op", to_string(r.op));
  w.field("status", status);
  return w;
}

std::string not_covered(const Request& r, std::string_view provider,
                        const std::optional<ProviderCoverage>& coverage,
                        const std::function<void(ResponseWriter&)>& echo) {
  ResponseWriter w = begin(r, "not_covered");
  echo(w);
  w.field("provider", provider);
  if (coverage) {
    w.field_date("coverage_begin", coverage->first);
    w.field_date("coverage_end", coverage->last);
  }
  return w.finish();
}

}  // namespace

std::string error_response(std::string_view code, std::string_view message) {
  ResponseWriter w;
  w.field("status", "error");
  w.field("code", code);
  w.field("message", message);
  return w.finish();
}

bool QueryEngine::is_error_response(std::string_view response) noexcept {
  constexpr std::string_view kPrefix = "{\"status\":\"error\"";
  return response.substr(0, kPrefix.size()) == kPrefix;
}

QueryEngine::QueryEngine(const rs::store::StoreDatabase& db,
                         std::vector<rs::synth::UserAgentGroup> agents,
                         rs::exec::ThreadPool* build_pool)
    : index_(TrustIndex::build(db, rs::store::CertInterner::from_database(db),
                               build_pool)),
      agents_(std::move(agents)) {}

QueryEngine::QueryEngine(TrustIndex index,
                         std::vector<rs::synth::UserAgentGroup> agents)
    : index_(std::move(index)), agents_(std::move(agents)) {}

std::string batch_response(const std::vector<std::string>& responses) {
  std::size_t total = 64;
  for (const auto& response : responses) total += response.size() + 1;
  std::string out;
  out.reserve(total);
  out += "{\"op\":\"batch\",\"status\":\"ok\",\"count\":";
  append_uint(out, responses.size());
  out += ",\"responses\":[";
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += responses[i];
  }
  out += "]}";
  return out;
}

std::string QueryEngine::handle_json(std::string_view line) const {
  if (looks_like_batch(line)) {
    auto items = parse_batch_request(line);
    if (!items.ok()) return error_response("bad_request", items.error());
    std::vector<std::string> responses;
    responses.reserve(items.value().size());
    for (const std::string_view item : items.value()) {
      // One level only: a batch inside a batch errors in its own slot.
      responses.push_back(
          looks_like_batch(item)
              ? error_response("bad_request", "batch requests may not nest")
              : handle_json(item));
    }
    return batch_response(responses);
  }
  auto parsed = parse_request(line);
  if (!parsed.ok()) return error_response("bad_request", parsed.error());
  return handle(parsed.value());
}

std::string QueryEngine::handle(const Request& request) const {
  switch (request.op) {
    case Op::kIsTrusted: return handle_is_trusted(request);
    case Op::kProvidersTrusting: return handle_providers_trusting(request);
    case Op::kStoreAt: return handle_store_at(request);
    case Op::kDiff: return handle_diff(request);
    case Op::kAgentStore: return handle_agent_store(request);
    case Op::kLineage: return handle_lineage(request);
    case Op::kStats: return handle_stats();
    case Op::kVerifyChain: return handle_verify_chain(request);
    case Op::kFirstRejectedAt: return handle_first_rejected_at(request);
    case Op::kAgreementAt: return handle_agreement_at(request);
    case Op::kCtCoverage: return handle_ct_coverage(request);
    case Op::kServerStats:
      return error_response(
          "not_serving",
          "server_stats is answered by `rootstore serve`, not the engine");
    case Op::kReloadIndex:
      return error_response(
          "not_serving",
          "reload_index is answered by `rootstore serve`, not the engine");
  }
  return error_response("bad_request", "unhandled op");
}

std::string QueryEngine::handle_is_trusted(const Request& r) const {
  if (!index_.has_provider(*r.provider)) {
    return error_response("unknown_provider",
                          "no history for provider '" + *r.provider + "'");
  }
  const auto echo = [&](ResponseWriter& w) {
    w.field_fp("fp", *r.fp);
    w.field_date("date", *r.date);
    w.field("scope", to_string(r.scope));
  };
  const TrustAnswer answer =
      index_.is_trusted(*r.fp, *r.provider, *r.date, r.scope);
  if (answer == TrustAnswer::kNotCovered) {
    return not_covered(r, *r.provider, index_.coverage(*r.provider), echo);
  }
  ResponseWriter w = begin(r, "ok");
  echo(w);
  w.field("provider", *r.provider);
  w.field_bool("trusted", answer == TrustAnswer::kTrusted);
  return w.finish();
}

std::string QueryEngine::handle_providers_trusting(const Request& r) const {
  std::vector<std::string> skipped;
  const auto trusting =
      index_.providers_trusting(*r.fp, *r.date, r.scope, &skipped);
  ResponseWriter w = begin(r, "ok");
  w.field_fp("fp", *r.fp);
  w.field_date("date", *r.date);
  w.field("scope", to_string(r.scope));
  w.field_strings("providers", trusting);
  w.field_strings("not_covered", skipped);
  return w.finish();
}

std::string QueryEngine::handle_store_at(const Request& r) const {
  if (!index_.has_provider(*r.provider)) {
    return error_response("unknown_provider",
                          "no history for provider '" + *r.provider + "'");
  }
  const auto echo = [&](ResponseWriter& w) {
    w.field_date("date", *r.date);
    w.field("scope", to_string(r.scope));
  };
  const auto view = index_.store_at(*r.provider, *r.date, r.scope);
  if (!view) {
    return not_covered(r, *r.provider, index_.coverage(*r.provider), echo);
  }
  ResponseWriter w = begin(r, "ok");
  echo(w);
  w.field("provider", view->provider);
  w.field_date("snapshot_date", view->snapshot_date);
  w.field("version", view->version);
  w.field_uint("count", view->roots->size());
  append_roots(w, "roots", *view->roots, index_.interner());
  return w.finish();
}

std::string QueryEngine::handle_diff(const Request& r) const {
  if (!index_.has_provider(*r.provider)) {
    return error_response("unknown_provider",
                          "no history for provider '" + *r.provider + "'");
  }
  const auto echo = [&](ResponseWriter& w) {
    w.field_date("date_a", *r.date_a);
    w.field_date("date_b", *r.date_b);
    w.field("scope", to_string(r.scope));
  };
  const auto delta = index_.diff(*r.provider, *r.date_a, *r.date_b, r.scope);
  if (!delta) {
    return not_covered(r, *r.provider, index_.coverage(*r.provider), echo);
  }
  ResponseWriter w = begin(r, "ok");
  echo(w);
  w.field("provider", delta->from.provider);
  w.field_date("snapshot_a", delta->from.snapshot_date);
  w.field_date("snapshot_b", delta->to.snapshot_date);
  append_roots(w, "added", delta->added, index_.interner());
  append_roots(w, "removed", delta->removed, index_.interner());
  return w.finish();
}

std::string QueryEngine::handle_agent_store(const Request& r) const {
  // Attribution (Table 1): match rows by agent name, narrowed by OS when
  // given; the answer must resolve to exactly one collected provider.
  std::vector<const rs::synth::UserAgentGroup*> matches;
  for (const auto& row : agents_) {
    if (row.agent != *r.user_agent) continue;
    if (r.os && row.os != *r.os) continue;
    matches.push_back(&row);
  }
  if (matches.empty()) {
    return error_response("unknown_agent",
                          "no Table 1 row for user agent '" + *r.user_agent +
                              (r.os ? "' on OS '" + *r.os + "'" : "'"));
  }
  std::vector<std::string> providers;
  for (const auto* row : matches) {
    if (!row->included || row->provider.empty()) continue;
    if (std::find(providers.begin(), providers.end(), row->provider) ==
        providers.end()) {
      providers.push_back(row->provider);
    }
  }
  if (providers.empty()) {
    return error_response("agent_not_covered",
                          "no root store history collected for user agent '" +
                              *r.user_agent + "'");
  }
  if (providers.size() > 1) {
    std::sort(providers.begin(), providers.end());
    std::string list;
    for (const auto& p : providers) {
      if (!list.empty()) list += ", ";
      list += p;
    }
    return error_response("ambiguous_agent",
                          "user agent '" + *r.user_agent +
                              "' maps to several providers (" + list +
                              "); disambiguate with the 'os' field");
  }
  const std::string& provider = providers.front();

  const auto echo = [&](ResponseWriter& w) {
    w.field("user_agent", *r.user_agent);
    if (r.os) w.field("os", *r.os);
    w.field_date("date", *r.date);
    w.field("scope", to_string(r.scope));
  };
  if (!index_.has_provider(provider)) {
    return error_response("unknown_provider",
                          "attributed provider '" + provider +
                              "' has no history in the dataset");
  }
  const auto view = index_.store_at(provider, *r.date, r.scope);
  if (!view) {
    return not_covered(r, provider, index_.coverage(provider), echo);
  }
  ResponseWriter w = begin(r, "ok");
  echo(w);
  w.field("provider", view->provider);
  w.field_date("snapshot_date", view->snapshot_date);
  w.field("version", view->version);
  w.field_uint("count", view->roots->size());
  append_roots(w, "roots", *view->roots, index_.interner());
  return w.finish();
}

std::string QueryEngine::handle_lineage(const Request& r) const {
  const auto spans = index_.lineage(*r.fp, r.scope);
  ResponseWriter w = begin(r, "ok");
  w.field_fp("fp", *r.fp);
  w.field("scope", to_string(r.scope));
  w.key_only("spans");
  std::string& out = w.raw();
  out.push_back('[');
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "{\"provider\":";
    append_json_string(out, spans[i].provider);
    out += ",\"added\":";
    append_date(out, spans[i].interval.added);
    out += ",\"removed\":";
    if (spans[i].interval.removed) {
      append_date(out, *spans[i].interval.removed);
    } else {
      out += "null";
    }
    out.push_back('}');
  }
  out.push_back(']');
  return w.finish();
}

namespace {

/// The leaf plus the pool certificates that parsed; unparseable pool
/// entries are skipped (and counted), a broken leaf fails the request.
struct ParsedChain {
  rs::x509::Certificate leaf;
  std::vector<rs::x509::Certificate> pool;
  std::size_t pool_unparsed = 0;
};

rs::util::Result<ParsedChain> parse_chain(const Request& r) {
  using R = rs::util::Result<ParsedChain>;
  auto leaf = rs::x509::Certificate::parse(*r.leaf);
  if (!leaf.ok()) {
    return R::err("field 'leaf' is not a DER certificate: " + leaf.error());
  }
  ParsedChain chain{std::move(leaf).take(), {}, 0};
  chain.pool.reserve(r.pool.size());
  for (const auto& der : r.pool) {
    auto cert = rs::x509::Certificate::parse(der);
    if (!cert.ok()) {
      ++chain.pool_unparsed;
      continue;
    }
    chain.pool.push_back(std::move(cert).take());
  }
  return chain;
}

rs::verify::OracleAnswer to_oracle(TrustAnswer a) noexcept {
  switch (a) {
    case TrustAnswer::kTrusted: return rs::verify::OracleAnswer::kYes;
    case TrustAnswer::kUntrusted: return rs::verify::OracleAnswer::kNo;
    case TrustAnswer::kNotCovered: return rs::verify::OracleAnswer::kNotCovered;
  }
  return rs::verify::OracleAnswer::kNo;
}

/// Adapts the temporal index to the verifier's two questions.  `index` and
/// `provider` must outlive the oracle (both live for the handler call).
rs::verify::TrustOracle make_oracle(const TrustIndex& index,
                                    const std::string& provider, Scope scope) {
  rs::verify::TrustOracle oracle;
  oracle.present = [&index, &provider](const rs::crypto::Sha256Digest& fp,
                                       rs::util::Date d) {
    return to_oracle(index.is_trusted(fp, provider, d, Scope::kPresent));
  };
  oracle.anchor = [&index, &provider, scope](
                      const rs::crypto::Sha256Digest& fp, rs::util::Date d) {
    return to_oracle(index.is_trusted(fp, provider, d, scope));
  };
  return oracle;
}

/// The EKU a scope demands of the non-anchor chain certificates; kPresent
/// asks only for membership, so it imposes none.
std::optional<rs::asn1::Oid> eku_for_scope(Scope scope) {
  switch (scope) {
    case Scope::kTls: return rs::asn1::oids::eku_server_auth();
    case Scope::kEmail: return rs::asn1::oids::eku_email_protection();
    case Scope::kCode: return rs::asn1::oids::eku_code_signing();
    case Scope::kPresent: return std::nullopt;
  }
  return std::nullopt;
}

void append_cert_path(std::string& out,
                      const std::vector<const rs::x509::Certificate*>& certs) {
  out.push_back('[');
  for (std::size_t i = 0; i < certs.size(); ++i) {
    if (i > 0) out.push_back(',');
    append_fp(out, certs[i]->sha256());
  }
  out.push_back(']');
}

}  // namespace

std::string QueryEngine::handle_verify_chain(const Request& r) const {
  if (!index_.has_provider(*r.provider)) {
    return error_response("unknown_provider",
                          "no history for provider '" + *r.provider + "'");
  }
  auto chain = parse_chain(r);
  if (!chain.ok()) return error_response("bad_certificate", chain.error());
  const auto echo = [&](ResponseWriter& w) {
    w.field_fp("fp", chain.value().leaf.sha256());
    w.field_date("date", *r.date);
    w.field("scope", to_string(r.scope));
  };
  const auto cov = index_.coverage(*r.provider);
  if (!cov || *r.date < cov->first || *r.date > cov->last) {
    return not_covered(r, *r.provider, cov, echo);
  }

  std::vector<const rs::x509::Certificate*> pool;
  pool.reserve(chain.value().pool.size());
  for (const auto& cert : chain.value().pool) pool.push_back(&cert);
  const auto oracle = make_oracle(index_, *r.provider, r.scope);
  const rs::verify::VerifyResult result = rs::verify::verify_chain(
      chain.value().leaf, pool, *r.date, oracle, eku_for_scope(r.scope));

  ResponseWriter w = begin(r, "ok");
  echo(w);
  w.field("provider", *r.provider);
  w.field("verdict", result.accepted ? "accepted" : "rejected");
  w.field("reason", rs::verify::to_string(result.reason));
  w.key_only("path");
  if (const auto* path = result.accepted_path()) {
    append_cert_path(w.raw(), path->certs);
  } else {
    w.raw() += "[]";
  }
  w.key_only("candidates");
  std::string& out = w.raw();
  out.push_back('[');
  for (std::size_t i = 0; i < result.candidates.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "{\"path\":";
    append_cert_path(out, result.candidates[i].certs);
    out += ",\"status\":";
    append_json_string(out, rs::verify::to_string(result.candidates[i].status));
    out += ",\"fail_index\":";
    append_uint(out, result.candidates[i].fail_index);
    out.push_back('}');
  }
  out.push_back(']');
  w.field_uint("pool_size", chain.value().pool.size());
  w.field_uint("pool_unparsed", chain.value().pool_unparsed);
  return w.finish();
}

std::string QueryEngine::handle_first_rejected_at(const Request& r) const {
  if (!index_.has_provider(*r.provider)) {
    return error_response("unknown_provider",
                          "no history for provider '" + *r.provider + "'");
  }
  auto chain = parse_chain(r);
  if (!chain.ok()) return error_response("bad_certificate", chain.error());
  const auto echo = [&](ResponseWriter& w) {
    w.field_fp("fp", chain.value().leaf.sha256());
    w.field("scope", to_string(r.scope));
  };
  const auto cov = index_.coverage(*r.provider);
  if (!cov) return not_covered(r, *r.provider, cov, echo);

  std::vector<const rs::x509::Certificate*> all;
  all.reserve(chain.value().pool.size() + 1);
  all.push_back(&chain.value().leaf);
  for (const auto& cert : chain.value().pool) all.push_back(&cert);
  const auto snapshots = index_.snapshot_dates(*r.provider);
  const auto breakpoints =
      rs::verify::flip_breakpoints(snapshots, all, cov->first, cov->last);

  std::vector<const rs::x509::Certificate*> pool(all.begin() + 1, all.end());
  const auto oracle = make_oracle(index_, *r.provider, r.scope);
  const auto eku = eku_for_scope(r.scope);
  const rs::verify::FlipScan scan = rs::verify::scan_first_rejected(
      breakpoints, [&](rs::util::Date d) {
        return rs::verify::verify_chain(chain.value().leaf, pool, d, oracle,
                                        eku);
      });

  ResponseWriter w = begin(r, "ok");
  echo(w);
  w.field("provider", *r.provider);
  if (scan.accepted_from) {
    w.field_date("accepted_from", *scan.accepted_from);
  } else {
    w.field_null("accepted_from");
  }
  if (scan.first_rejected) {
    w.field_date("first_rejected", *scan.first_rejected);
    w.field("reason", rs::verify::to_string(scan.flip_reason));
  } else {
    w.field_null("first_rejected");
    w.field_null("reason");
  }
  w.field_uint("evaluated", scan.evaluated);
  w.field_date("coverage_begin", cov->first);
  w.field_date("coverage_end", cov->last);
  return w.finish();
}

std::string QueryEngine::handle_agreement_at(const Request& r) const {
  // Total over every input: providers whose coverage excludes the date are
  // listed in not_covered, and zero covered providers is still "ok" with
  // empty arrays (the empty-universe agreement convention scores 1.0).
  const auto view = rs::landscape::presence_at(index_, *r.date, r.scope);
  const auto summary = rs::landscape::agreement_summary(view.sets);
  ResponseWriter w = begin(r, "ok");
  w.field_date("date", *r.date);
  w.field("scope", to_string(r.scope));
  w.field_strings("providers", view.providers);
  w.key_only("sizes");
  {
    std::string& out = w.raw();
    out.push_back('[');
    for (std::size_t i = 0; i < summary.sizes.size(); ++i) {
      if (i > 0) out.push_back(',');
      append_uint(out, summary.sizes[i]);
    }
    out.push_back(']');
  }
  w.key_only("exclusive");
  {
    std::string& out = w.raw();
    out.push_back('[');
    for (std::size_t i = 0; i < summary.exclusive_counts.size(); ++i) {
      if (i > 0) out.push_back(',');
      append_uint(out, summary.exclusive_counts[i]);
    }
    out.push_back(']');
  }
  w.field_uint("union_size", summary.union_size);
  w.field_uint("intersection_size", summary.intersection_size);
  w.field("global_agreement",
          rs::landscape::format_agreement(summary.intersection_size,
                                          summary.union_size));
  w.key_only("pairs");
  {
    std::string& out = w.raw();
    out.push_back('[');
    for (std::size_t i = 0; i < summary.pairs.size(); ++i) {
      const auto& p = summary.pairs[i];
      if (i > 0) out.push_back(',');
      out += "{\"a\":";
      append_json_string(out, view.providers[p.a]);
      out += ",\"b\":";
      append_json_string(out, view.providers[p.b]);
      out += ",\"intersection\":";
      append_uint(out, p.intersection);
      out += ",\"union\":";
      append_uint(out, p.union_size);
      out += ",\"agreement\":";
      append_json_string(
          out, rs::landscape::format_agreement(p.intersection, p.union_size));
      out.push_back('}');
    }
    out.push_back(']');
  }
  w.field_strings("not_covered", view.not_covered);
  return w.finish();
}

std::string QueryEngine::handle_ct_coverage(const Request& r) const {
  // Treats `provider` as "the log": how much of every OTHER store does it
  // cover at the date, how many roots does only the log carry, and how far
  // does its adoption of each store's roots lag (history-wide, per root
  // present in both)?  Any provider works as the log — the CT-specific
  // semantics come from the dataset (synth ct_log providers), not the op.
  if (!index_.has_provider(*r.provider)) {
    return error_response("unknown_provider",
                          "no history for provider '" + *r.provider + "'");
  }
  const auto echo = [&](ResponseWriter& w) {
    w.field_date("date", *r.date);
    w.field("scope", to_string(r.scope));
  };
  const auto log_view = index_.store_at(*r.provider, *r.date, r.scope);
  if (!log_view) {
    return not_covered(r, *r.provider, index_.coverage(*r.provider), echo);
  }

  // Presence of every other provider at the date (name order).
  std::vector<std::string> covered_names;
  std::vector<const rs::store::IdSet*> covered_sets;
  std::vector<std::string> skipped;
  for (const auto& name : index_.providers()) {
    if (name == *r.provider) continue;
    const auto resolved = index_.store_at(name, *r.date, r.scope);
    if (resolved) {
      covered_names.push_back(name);
      covered_sets.push_back(resolved->roots);
    } else {
      skipped.push_back(name);
    }
  }
  const auto rows = rs::landscape::coverage_rows(*log_view->roots,
                                                 covered_sets);
  const std::size_t exclusive =
      rs::landscape::log_exclusive_count(*log_view->roots, covered_sets);

  // History-wide adoption lag: first-seen date in the log minus first-seen
  // date in the store, over roots both ever carry.
  const auto first_seen = rs::landscape::first_seen_tables(index_, r.scope);
  const auto all_names = index_.providers();
  std::size_t log_idx = 0;
  for (std::size_t i = 0; i < all_names.size(); ++i) {
    if (all_names[i] == *r.provider) log_idx = i;
  }

  ResponseWriter w = begin(r, "ok");
  echo(w);
  w.field("provider", log_view->provider);
  w.field_date("snapshot_date", log_view->snapshot_date);
  w.field_uint("log_size", log_view->roots->size());
  w.field_uint("log_exclusive", exclusive);
  w.key_only("coverage");
  {
    std::string& out = w.raw();
    out.push_back('[');
    for (std::size_t i = 0; i < covered_names.size(); ++i) {
      std::size_t store_idx = 0;
      for (std::size_t j = 0; j < all_names.size(); ++j) {
        if (all_names[j] == covered_names[i]) store_idx = j;
      }
      const auto lag = rs::landscape::adoption_lag(first_seen[log_idx],
                                                   first_seen[store_idx]);
      if (i > 0) out.push_back(',');
      out += "{\"provider\":";
      append_json_string(out, covered_names[i]);
      out += ",\"size\":";
      append_uint(out, rows[i].store_size);
      out += ",\"covered\":";
      append_uint(out, rows[i].covered);
      out += ",\"fraction\":";
      append_json_string(
          out, rs::landscape::format_ratio(
                   static_cast<double>(rows[i].covered),
                   static_cast<double>(rows[i].store_size), 4));
      out += ",\"matched\":";
      append_uint(out, lag.matched);
      out += ",\"mean_lag_days\":";
      if (lag.matched == 0) {
        out += "null";
      } else {
        append_json_string(
            out, rs::landscape::format_ratio(
                     static_cast<double>(lag.total_lag_days),
                     static_cast<double>(lag.matched), 1));
      }
      out.push_back('}');
    }
    out.push_back(']');
  }
  w.field_strings("not_covered", skipped);
  return w.finish();
}

std::string QueryEngine::handle_stats() const {
  ResponseWriter w;
  w.field("op", "stats");
  w.field("status", "ok");
  w.field_uint("providers", index_.provider_count());
  w.field_uint("resolution_points", index_.resolution_point_count());
  w.field_uint("certificates", index_.interner().size());
  w.key_only("coverage");
  std::string& out = w.raw();
  out.push_back('{');
  bool first = true;
  for (const auto& name : index_.providers()) {
    const auto cov = index_.coverage(name);
    if (!cov) continue;
    if (!first) out.push_back(',');
    first = false;
    append_json_string(out, name);
    out += ":[";
    append_date(out, cov->first);
    out.push_back(',');
    append_date(out, cov->last);
    out.push_back(']');
  }
  out.push_back('}');
  return w.finish();
}

}  // namespace rs::query
