#include "src/query/engine.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/landscape/index_view.h"
#include "src/query/response_writer.h"
#include "src/store/database.h"
#include "src/store/interner.h"
#include "src/verify/temporal.h"
#include "src/verify/verify.h"
#include "src/x509/certificate.h"

namespace rs::query {
namespace {

/// Writes a handler's echo of its request fields.
using Echo = std::function<void(ResponseWriter&)>;

/// Common echo prefix: op + status.
ResponseWriter begin(const Request& r, std::string_view status) {
  ResponseWriter w;
  w.key("op").text(to_string(r.op));
  w.key("status").text(status);
  return w;
}

std::string unknown_provider(const std::string& provider) {
  return error_response("unknown_provider",
                        "no history for provider '" + provider + "'");
}

/// True when `date` lies inside the coverage window, i.e. the provider's
/// snapshots resolve it.
bool covers(const std::optional<ProviderCoverage>& coverage,
            rs::util::Date date) {
  return coverage && coverage->first <= date && date <= coverage->last;
}

std::string not_covered(const Request& r, std::string_view provider,
                        const std::optional<ProviderCoverage>& coverage,
                        const Echo& echo) {
  ResponseWriter w = begin(r, "not_covered");
  echo(w);
  w.key("provider").text(provider);
  if (coverage) {
    w.key("coverage_begin").date(coverage->first);
    w.key("coverage_end").date(coverage->last);
  }
  return w.finish();
}

/// The ok answer of store_at and agent_store: the resolved store and its
/// roots.
std::string store_response(const Request& r, const Echo& echo,
                           const StoreView& view,
                           const rs::store::CertInterner& interner) {
  ResponseWriter w = begin(r, "ok");
  echo(w);
  w.key("provider").text(view.provider);
  w.key("snapshot_date").date(view.snapshot_date);
  w.key("version").text(view.version);
  w.key("count").number(view.roots->size());
  w.key("roots").roots(*view.roots, interner);
  return w.finish();
}

}  // namespace

std::string error_response(std::string_view code, std::string_view message) {
  ResponseWriter w;
  w.key("status").text("error");
  w.key("code").text(code);
  w.key("message").text(message);
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
  // One reservation for the envelope and every item.
  std::size_t total = 64;
  for (const auto& response : responses) total += response.size() + 1;
  ResponseWriter w(total);
  w.key("op").text("batch");
  w.key("status").text("ok");
  w.key("count").number(responses.size());
  w.key("responses").begin_array();
  for (const auto& response : responses) w.raw(response);
  w.end_array();
  return w.finish();
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
  if (!index_.has_provider(*r.provider)) return unknown_provider(*r.provider);
  const auto echo = [&](ResponseWriter& w) {
    w.key("fp").fp(*r.fp);
    w.key("date").date(*r.date);
    w.key("scope").text(to_string(r.scope));
  };
  const TrustAnswer answer =
      index_.is_trusted(*r.fp, *r.provider, *r.date, r.scope);
  if (answer == TrustAnswer::kNotCovered) {
    return not_covered(r, *r.provider, index_.coverage(*r.provider), echo);
  }
  ResponseWriter w = begin(r, "ok");
  echo(w);
  w.key("provider").text(*r.provider);
  w.key("trusted").boolean(answer == TrustAnswer::kTrusted);
  return w.finish();
}

std::string QueryEngine::handle_providers_trusting(const Request& r) const {
  std::vector<std::string> skipped;
  const auto trusting =
      index_.providers_trusting(*r.fp, *r.date, r.scope, &skipped);
  ResponseWriter w = begin(r, "ok");
  w.key("fp").fp(*r.fp);
  w.key("date").date(*r.date);
  w.key("scope").text(to_string(r.scope));
  w.key("providers").texts(trusting);
  w.key("not_covered").texts(skipped);
  return w.finish();
}

std::string QueryEngine::handle_store_at(const Request& r) const {
  if (!index_.has_provider(*r.provider)) return unknown_provider(*r.provider);
  const auto echo = [&](ResponseWriter& w) {
    w.key("date").date(*r.date);
    w.key("scope").text(to_string(r.scope));
  };
  const auto view = index_.store_at(*r.provider, *r.date, r.scope);
  if (!view) {
    return not_covered(r, *r.provider, index_.coverage(*r.provider), echo);
  }
  return store_response(r, echo, *view, index_.interner());
}

std::string QueryEngine::handle_diff(const Request& r) const {
  if (!index_.has_provider(*r.provider)) return unknown_provider(*r.provider);
  const auto echo = [&](ResponseWriter& w) {
    w.key("date_a").date(*r.date_a);
    w.key("date_b").date(*r.date_b);
    w.key("scope").text(to_string(r.scope));
  };
  const auto delta = index_.diff(*r.provider, *r.date_a, *r.date_b, r.scope);
  if (!delta) {
    return not_covered(r, *r.provider, index_.coverage(*r.provider), echo);
  }
  ResponseWriter w = begin(r, "ok");
  echo(w);
  w.key("provider").text(delta->from.provider);
  w.key("snapshot_a").date(delta->from.snapshot_date);
  w.key("snapshot_b").date(delta->to.snapshot_date);
  w.key("added").roots(delta->added, index_.interner());
  w.key("removed").roots(delta->removed, index_.interner());
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
    w.key("user_agent").text(*r.user_agent);
    if (r.os) w.key("os").text(*r.os);
    w.key("date").date(*r.date);
    w.key("scope").text(to_string(r.scope));
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
  return store_response(r, echo, *view, index_.interner());
}

std::string QueryEngine::handle_lineage(const Request& r) const {
  const auto spans = index_.lineage(*r.fp, r.scope);
  ResponseWriter w = begin(r, "ok");
  w.key("fp").fp(*r.fp);
  w.key("scope").text(to_string(r.scope));
  w.key("spans").begin_array();
  for (const auto& span : spans) {
    w.begin_object();
    w.key("provider").text(span.provider);
    w.key("added").date(span.interval.added);
    w.key("removed").date_or_null(span.interval.removed);
    w.end_object();
  }
  w.end_array();
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

}  // namespace

std::string QueryEngine::handle_verify_chain(const Request& r) const {
  if (!index_.has_provider(*r.provider)) return unknown_provider(*r.provider);
  auto chain = parse_chain(r);
  if (!chain.ok()) return error_response("bad_certificate", chain.error());
  const auto echo = [&](ResponseWriter& w) {
    w.key("fp").fp(chain.value().leaf.sha256());
    w.key("date").date(*r.date);
    w.key("scope").text(to_string(r.scope));
  };
  const auto cov = index_.coverage(*r.provider);
  if (!covers(cov, *r.date)) return not_covered(r, *r.provider, cov, echo);

  std::vector<const rs::x509::Certificate*> pool;
  pool.reserve(chain.value().pool.size());
  for (const auto& cert : chain.value().pool) pool.push_back(&cert);
  const auto oracle = make_oracle(index_, *r.provider, r.scope);
  const rs::verify::VerifyResult result = rs::verify::verify_chain(
      chain.value().leaf, pool, *r.date, oracle, eku_for_scope(r.scope));

  ResponseWriter w = begin(r, "ok");
  echo(w);
  w.key("provider").text(*r.provider);
  w.key("verdict").text(result.accepted ? "accepted" : "rejected");
  w.key("reason").text(rs::verify::to_string(result.reason));
  w.key("path").begin_array();
  if (const auto* path = result.accepted_path()) {
    for (const auto* cert : path->certs) w.fp(cert->sha256());
  }
  w.end_array();
  w.key("candidates").begin_array();
  for (const auto& candidate : result.candidates) {
    w.begin_object();
    w.key("path").begin_array();
    for (const auto* cert : candidate.certs) w.fp(cert->sha256());
    w.end_array();
    w.key("status").text(rs::verify::to_string(candidate.status));
    w.key("fail_index").number(candidate.fail_index);
    w.end_object();
  }
  w.end_array();
  w.key("pool_size").number(chain.value().pool.size());
  w.key("pool_unparsed").number(chain.value().pool_unparsed);
  return w.finish();
}

std::string QueryEngine::handle_first_rejected_at(const Request& r) const {
  if (!index_.has_provider(*r.provider)) return unknown_provider(*r.provider);
  auto chain = parse_chain(r);
  if (!chain.ok()) return error_response("bad_certificate", chain.error());
  const auto echo = [&](ResponseWriter& w) {
    w.key("fp").fp(chain.value().leaf.sha256());
    w.key("scope").text(to_string(r.scope));
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
  w.key("provider").text(*r.provider);
  w.key("accepted_from").date_or_null(scan.accepted_from);
  w.key("first_rejected").date_or_null(scan.first_rejected);
  if (scan.first_rejected) {
    w.key("reason").text(rs::verify::to_string(scan.flip_reason));
  } else {
    w.key("reason").null();
  }
  w.key("evaluated").number(scan.evaluated);
  w.key("coverage_begin").date(cov->first);
  w.key("coverage_end").date(cov->last);
  return w.finish();
}

std::string QueryEngine::handle_agreement_at(const Request& r) const {
  // Total over every input: providers whose coverage excludes the date are
  // listed in not_covered, and zero covered providers is still "ok" with
  // empty arrays (the empty-universe agreement convention scores 1.0).
  const auto view = rs::landscape::presence_at(index_, *r.date, r.scope);
  const auto summary = rs::landscape::agreement_summary(view.sets);
  ResponseWriter w = begin(r, "ok");
  w.key("date").date(*r.date);
  w.key("scope").text(to_string(r.scope));
  w.key("providers").texts(view.providers);
  w.key("sizes").numbers(summary.sizes);
  w.key("exclusive").numbers(summary.exclusive_counts);
  w.key("union_size").number(summary.union_size);
  w.key("intersection_size").number(summary.intersection_size);
  w.key("global_agreement")
      .text(rs::landscape::format_agreement(summary.intersection_size,
                                            summary.union_size));
  w.key("pairs").begin_array();
  for (const auto& p : summary.pairs) {
    w.begin_object();
    w.key("a").text(view.providers[p.a]);
    w.key("b").text(view.providers[p.b]);
    w.key("intersection").number(p.intersection);
    w.key("union").number(p.union_size);
    w.key("agreement")
        .text(rs::landscape::format_agreement(p.intersection, p.union_size));
    w.end_object();
  }
  w.end_array();
  w.key("not_covered").texts(view.not_covered);
  return w.finish();
}

std::string QueryEngine::handle_ct_coverage(const Request& r) const {
  // Treats `provider` as "the log": how much of every OTHER store does it
  // cover at the date, how many roots does only the log carry, and how far
  // does its adoption of each store's roots lag (history-wide, per root
  // present in both)?  Any provider works as the log — the CT-specific
  // semantics come from the dataset (synth ct_log providers), not the op.
  if (!index_.has_provider(*r.provider)) return unknown_provider(*r.provider);
  const auto echo = [&](ResponseWriter& w) {
    w.key("date").date(*r.date);
    w.key("scope").text(to_string(r.scope));
  };
  // The first-seen tables span every provider's history: build them only
  // when the date resolves the log.
  const auto cov = index_.coverage(*r.provider);
  std::optional<rs::landscape::CtCoverage> ct;
  if (covers(cov, *r.date)) {
    std::vector<std::string> stores = index_.providers();
    std::erase(stores, *r.provider);
    ct = rs::landscape::ct_coverage_at(
        index_, *r.provider, *r.date, r.scope, stores,
        rs::landscape::first_seen_tables(index_, r.scope));
  }
  if (!ct) return not_covered(r, *r.provider, cov, echo);

  ResponseWriter w = begin(r, "ok");
  echo(w);
  w.key("provider").text(ct->log.provider);
  w.key("snapshot_date").date(ct->log.snapshot_date);
  w.key("log_size").number(ct->log.roots->size());
  w.key("log_exclusive").number(ct->log_exclusive);
  w.key("coverage").begin_array();
  for (const auto& row : ct->stores) {
    w.begin_object();
    w.key("provider").text(row.name);
    w.key("size").number(row.coverage.store_size);
    w.key("covered").number(row.coverage.covered);
    w.key("fraction").text(rs::landscape::format_ratio(
        static_cast<double>(row.coverage.covered),
        static_cast<double>(row.coverage.store_size), 4));
    w.key("matched").number(row.lag.matched);
    w.key("mean_lag_days");
    if (row.lag.matched == 0) {
      w.null();
    } else {
      w.text(rs::landscape::format_ratio(
          static_cast<double>(row.lag.total_lag_days),
          static_cast<double>(row.lag.matched), 1));
    }
    w.end_object();
  }
  w.end_array();
  w.key("not_covered").texts(ct->not_covered);
  return w.finish();
}

std::string QueryEngine::handle_stats() const {
  ResponseWriter w;
  w.key("op").text("stats");
  w.key("status").text("ok");
  w.key("providers").number(index_.provider_count());
  w.key("resolution_points").number(index_.resolution_point_count());
  w.key("certificates").number(index_.interner().size());
  w.key("coverage").begin_object();
  for (const auto& name : index_.providers()) {
    const auto cov = index_.coverage(name);
    if (!cov) continue;
    w.escaped_key(name).begin_array();
    w.date(cov->first);
    w.date(cov->last);
    w.end_array();
  }
  w.end_object();
  return w.finish();
}

}  // namespace rs::query
