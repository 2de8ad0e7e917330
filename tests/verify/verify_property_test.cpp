// Differential battery for the chain-verification workload (docs/VERIFY.md).
//
// The verify stack under test is the whole serving slice: request model →
// QueryEngine::handle → rs::verify::verify_chain over the TrustIndex
// oracle.  The referee is a from-scratch validator in this file that never
// touches rs_verify or TrustIndex: it resolves snapshots with
// ProviderHistory::at and applies the RFC 5280 checks with the raw x509
// predicates.  The sweep crosses the chain-case catalog (pool-dropout
// variants included) with every provider, every snapshot boundary date
// (±1), the chains' validity edges, and all four scopes — at least 100k
// comparisons with zero tolerated disagreement, one test instance per
// provider (NSS, the largest grid, in three chain-case slices) so ctest
// runs the sweep in parallel.
//
// Also pinned here: the DigiNotar-style flip dates (first_rejected_at must
// equal a literal day-by-day scan and the provider's purge date), the
// email-only-anchor trust-bit case, and byte-identical engine responses
// for serial vs pooled index builds (LABELS tsan runs this under TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "src/asn1/oid.h"
#include "src/exec/thread_pool.h"
#include "src/query/engine.h"
#include "src/query/request.h"
#include "src/store/database.h"
#include "src/synth/chain_gen.h"
#include "src/synth/incidents.h"
#include "src/synth/paper_scenario.h"
#include "src/x509/certificate.h"
#include "src/x509/extensions.h"

namespace rs::verify {
namespace {

using rs::query::Op;
using rs::query::QueryEngine;
using rs::query::Request;
using rs::query::Scope;
using rs::store::ProviderHistory;
using rs::store::Snapshot;
using rs::store::StoreDatabase;
using rs::store::TrustPurpose;
using rs::synth::ChainCase;
using rs::util::Date;
using rs::x509::Certificate;

// --- the independent referee ----------------------------------------------

std::optional<TrustPurpose> purpose_of(Scope scope) {
  switch (scope) {
    case Scope::kTls: return TrustPurpose::kServerAuth;
    case Scope::kEmail: return TrustPurpose::kEmailProtection;
    case Scope::kCode: return TrustPurpose::kCodeSigning;
    case Scope::kPresent: return std::nullopt;
  }
  return std::nullopt;
}

rs::asn1::Oid eku_of(Scope scope) {
  switch (scope) {
    case Scope::kEmail: return rs::asn1::oids::eku_email_protection();
    case Scope::kCode: return rs::asn1::oids::eku_code_signing();
    default: return rs::asn1::oids::eku_server_auth();
  }
}

/// All RFC 5280 checks on one complete path (leaf first, in-store cert
/// last), straight off the x509 objects and the resolved snapshot.
bool referee_path_ok(const std::vector<const Certificate*>& path,
                     const Snapshot& snap, Date date, Scope scope) {
  for (const Certificate* cert : path) {
    if (!cert->is_valid_at(date)) return false;
  }
  for (std::size_t i = 1; i < path.size(); ++i) {
    if (!path[i]->is_ca()) return false;
    const auto* ku_ext = rs::x509::find_extension(
        path[i]->extensions(), rs::asn1::oids::key_usage());
    if (ku_ext != nullptr) {
      auto ku = rs::x509::KeyUsage::parse(ku_ext->value);
      if (!ku.ok() || !ku.value().key_cert_sign) return false;
    }
    const auto* bc_ext = rs::x509::find_extension(
        path[i]->extensions(), rs::asn1::oids::basic_constraints());
    if (bc_ext != nullptr) {
      auto bc = rs::x509::BasicConstraints::parse(bc_ext->value);
      if (bc.ok() && bc.value().ca && bc.value().path_len) {
        std::int64_t below = 0;
        for (std::size_t j = 1; j < i; ++j) {
          if (!path[j]->issuer().equivalent(path[j]->subject())) ++below;
        }
        if (below > *bc.value().path_len) return false;
      }
    }
  }
  if (scope != Scope::kPresent) {
    const rs::asn1::Oid purpose = eku_of(scope);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const auto* eku_ext = rs::x509::find_extension(
          path[i]->extensions(), rs::asn1::oids::ext_key_usage());
      if (eku_ext == nullptr) continue;
      auto eku = rs::x509::ExtendedKeyUsage::parse(eku_ext->value);
      if (!eku.ok() || !eku.value().permits(purpose)) return false;
    }
  }
  const rs::store::TrustEntry* entry = snap.find(path.back()->sha256());
  if (entry == nullptr) return false;
  const auto purpose = purpose_of(scope);
  return !purpose || entry->trust_for(*purpose).is_anchor();
}

/// Enumerates every simple path by issuer/subject chaining, terminating
/// (like a real client) at the first in-store certificate, and accepts if
/// any path passes referee_path_ok.
bool referee_extend(std::vector<const Certificate*>& path,
                    std::set<const Certificate*>& visited,
                    const std::vector<const Certificate*>& pool,
                    const Snapshot& snap, Date date, Scope scope) {
  const Certificate* top = path.back();
  if (snap.find(top->sha256()) != nullptr) {
    return referee_path_ok(path, snap, date, scope);
  }
  for (const Certificate* parent : pool) {
    if (visited.contains(parent)) continue;
    if (!top->issuer().equivalent(parent->subject())) continue;
    path.push_back(parent);
    visited.insert(parent);
    const bool ok = referee_extend(path, visited, pool, snap, date, scope);
    visited.erase(parent);
    path.pop_back();
    if (ok) return true;
  }
  return false;
}

enum class RefereeVerdict { kAccepted, kRejected, kNotCovered };

RefereeVerdict referee(const StoreDatabase& db, const std::string& provider,
                       const Certificate& leaf,
                       const std::vector<const Certificate*>& pool, Date date,
                       Scope scope) {
  const ProviderHistory* history = db.find(provider);
  if (history == nullptr || history->empty() ||
      date < history->first_date() || history->last_date() < date) {
    return RefereeVerdict::kNotCovered;
  }
  const Snapshot* snap = history->at(date);
  if (snap == nullptr) return RefereeVerdict::kNotCovered;
  std::vector<const Certificate*> path{&leaf};
  std::set<const Certificate*> visited{&leaf};
  return referee_extend(path, visited, pool, *snap, date, scope)
             ? RefereeVerdict::kAccepted
             : RefereeVerdict::kRejected;
}

// --- shared fixture ---------------------------------------------------------

struct Fixture {
  rs::synth::PaperScenario scenario = rs::synth::build_paper_scenario();
  std::vector<ChainCase> cases;
  QueryEngine engine;
  QueryEngine pooled_engine;

  static QueryEngine make_engine(const StoreDatabase& db, int threads) {
    if (threads <= 0) return QueryEngine(db, {});
    rs::exec::ThreadPool pool(static_cast<std::size_t>(threads));
    return QueryEngine(db, {}, &pool);
  }

  Fixture()
      : cases(make_cases(scenario)),
        engine(make_engine(scenario.database(), 0)),
        pooled_engine(make_engine(scenario.database(), 3)) {}

  static std::vector<ChainCase> make_cases(rs::synth::PaperScenario& s) {
    auto config = rs::synth::default_chain_config(s.database());
    for (const auto& incident : rs::synth::high_severity_incidents()) {
      for (const auto& root_id : incident.root_ids) {
        if (auto cert = s.factory().find(root_id)) {
          config.incident_anchors.emplace_back(
              incident.name + "/" + root_id, std::move(cert));
        }
      }
    }
    return build_chain_cases(config);
  }
};

Fixture& fixture() {
  static Fixture* f = new Fixture();  // leaked: shared across all tests
  return *f;
}

Request make_request(Op op, const std::string& provider,
                     const ChainCase& c,
                     const std::vector<const Certificate*>& pool,
                     std::optional<Date> date, Scope scope) {
  Request r;
  r.op = op;
  r.provider = provider;
  r.date = date;
  r.scope = scope;
  r.leaf = c.leaf->der();
  for (const auto* cert : pool) r.pool.push_back(cert->der());
  std::sort(r.pool.begin(), r.pool.end());
  r.pool.erase(std::unique(r.pool.begin(), r.pool.end()), r.pool.end());
  return r;
}

bool response_has(const std::string& response, std::string_view needle) {
  return response.find(needle) != std::string::npos;
}

/// The pool-dropout variants of a case: the full pool plus, for each pool
/// certificate, the pool without it (chains must degrade predictably when
/// an intermediate goes missing).
std::vector<std::vector<const Certificate*>> pool_variants(
    const ChainCase& c) {
  std::vector<const Certificate*> full;
  for (const auto& cert : c.pool) full.push_back(cert.get());
  std::vector<std::vector<const Certificate*>> variants{full};
  for (std::size_t drop = 0; drop < full.size(); ++drop) {
    std::vector<const Certificate*> v;
    for (std::size_t i = 0; i < full.size(); ++i) {
      if (i != drop) v.push_back(full[i]);
    }
    variants.push_back(std::move(v));
  }
  return variants;
}

// --- the 100k+ differential sweep ------------------------------------------

constexpr Scope kScopes[] = {Scope::kTls, Scope::kEmail, Scope::kCode,
                             Scope::kPresent};

/// The paper scenario's providers, one sweep instance each (the
/// GridCoversEveryProviderAndAtLeast100kProbes test pins this list to the
/// database's).
const char* const kProviders[] = {"Alpine",    "AmazonLinux", "Android",
                                  "Apple",     "Debian",      "Java",
                                  "Microsoft", "NSS",         "NodeJS",
                                  "Ubuntu"};

/// The probe dates of one (provider, case): snapshot boundaries ±1 probe
/// every date where the resolved store can change, and the chain's
/// validity edges every date where its certificates can; together they
/// cover every date where any verdict can flip.
std::vector<Date> probe_dates(const ProviderHistory& history,
                              const ChainCase& c) {
  std::vector<Date> dates;
  for (const Snapshot& snap : history.snapshots()) {
    dates.push_back(snap.date - 1);
    dates.push_back(snap.date);
    dates.push_back(snap.date + 1);
  }
  const auto& lv = c.leaf->validity();
  for (const Date d : {lv.not_before.date - 1, lv.not_before.date,
                       lv.not_after.date, lv.not_after.date + 1}) {
    dates.push_back(d);
  }
  for (const auto& cert : c.pool) {
    dates.push_back(cert->validity().not_after.date);
    dates.push_back(cert->validity().not_after.date + 1);
  }
  std::sort(dates.begin(), dates.end());
  dates.erase(std::unique(dates.begin(), dates.end()), dates.end());
  return dates;
}

/// Probes of one chain case in one provider's grid: every (pool variant,
/// date, scope).
std::size_t case_size(const ProviderHistory& history, const ChainCase& c) {
  return (1 + c.pool.size()) * probe_dates(history, c).size() *
         std::size(kScopes);
}

/// Probes in one provider's grid: every (case, pool variant, date, scope).
std::size_t grid_size(const Fixture& f, const std::string& provider) {
  const ProviderHistory& history = *f.scenario.database().find(provider);
  std::size_t n = 0;
  for (const ChainCase& c : f.cases) n += case_size(history, c);
  return n;
}

TEST(VerifyDifferentialGrid, CoversEveryProviderAndAtLeast100kProbes) {
  Fixture& f = fixture();
  const auto providers = f.scenario.database().providers();
  ASSERT_EQ(providers, std::vector<std::string>(std::begin(kProviders),
                                                std::end(kProviders)));
  std::size_t total = 0;
  for (const auto& provider : providers) total += grid_size(f, provider);
  RecordProperty("probes", std::to_string(total));
  // The floor: at least 100k differential comparisons over all instances.
  EXPECT_GE(total, 100000u) << "sweep shrank below the contract";
}

/// One sweep instance: a provider's whole grid, or one of `slices`
/// contiguous chain-case slices of it for a provider whose grid would
/// bound the suite's wall time.  Printed as the provider, or as
/// <provider>_<k>of<n>, so ctest names the instance
/// .../EngineAgreesWithRefereeOnEveryProbe/NSS_2of3.
struct ProviderParam {
  const char* name;
  std::size_t slice = 0;
  std::size_t slices = 1;
};
void PrintTo(const ProviderParam& p, std::ostream* os) {
  *os << p.name;
  if (p.slices > 1) *os << "_" << p.slice + 1 << "of" << p.slices;
}

/// NSS holds the largest grid (its history is the longest); three slices
/// keep each below the next-largest provider's whole grid.
constexpr std::size_t kNssSlices = 3;

/// The chain cases [first, last) of one instance: slice boundaries fall
/// where the running probe count first reaches k/slices of the grid.
std::pair<std::size_t, std::size_t> case_range(const Fixture& f,
                                               const ProviderHistory& history,
                                               const ProviderParam& p) {
  const std::size_t total = grid_size(f, history.provider());
  auto boundary = [&](std::size_t k) {
    std::size_t i = 0;
    for (std::size_t done = 0; i < f.cases.size() && done * p.slices <
                                                         total * k;
         ++i) {
      done += case_size(history, f.cases[i]);
    }
    return i;
  };
  return {boundary(p.slice), boundary(p.slice + 1)};
}

TEST(VerifyDifferentialGrid, NssSlicesPartitionItsCases) {
  // Every NSS probe runs in exactly one slice, and no slice is empty.
  Fixture& f = fixture();
  const ProviderHistory& nss = *f.scenario.database().find("NSS");
  std::size_t next = 0;
  for (std::size_t k = 0; k < kNssSlices; ++k) {
    const auto [first, last] = case_range(f, nss, {"NSS", k, kNssSlices});
    EXPECT_EQ(first, next);
    EXPECT_LT(first, last);
    next = last;
  }
  EXPECT_EQ(next, f.cases.size());
}

class VerifyDifferential : public ::testing::TestWithParam<ProviderParam> {};

TEST_P(VerifyDifferential, EngineAgreesWithRefereeOnEveryProbe) {
  Fixture& f = fixture();
  const StoreDatabase& db = f.scenario.database();
  const std::string provider = GetParam().name;
  const ProviderHistory* history = db.find(provider);
  ASSERT_NE(history, nullptr);
  const auto [first_case, last_case] = case_range(f, *history, GetParam());
  // Probe numbers continue across providers in database order, and across
  // slices in case order, so the pooled-engine sample below picks the same
  // probes as one whole sweep.
  std::size_t checks = 0;
  for (const auto& before : db.providers()) {
    if (before == provider) break;
    checks += grid_size(f, before);
  }
  std::size_t expected = 0;
  for (std::size_t i = 0; i < last_case; ++i) {
    (i < first_case ? checks : expected) += case_size(*history, f.cases[i]);
  }
  const std::size_t first_check = checks;
  std::size_t accepted = 0, rejected = 0, uncovered = 0;

  for (std::size_t case_idx = first_case; case_idx < last_case; ++case_idx) {
    const ChainCase& c = f.cases[case_idx];
    const std::vector<Date> dates = probe_dates(*history, c);
    std::size_t variant_idx = 0;
    for (const auto& pool : pool_variants(c)) {
      for (const Date date : dates) {
        for (const Scope scope : kScopes) {
          const Request req = make_request(Op::kVerifyChain, provider, c,
                                           pool, date, scope);
          const std::string response = f.engine.handle(req);
          const RefereeVerdict want =
              referee(db, provider, *c.leaf, pool, date, scope);
          ++checks;
          switch (want) {
            case RefereeVerdict::kNotCovered:
              ++uncovered;
              ASSERT_TRUE(
                  response_has(response, "\"status\":\"not_covered\""))
                  << c.name << " variant " << variant_idx << " " << provider
                  << " " << date.to_string() << " " << to_string(scope)
                  << "\n" << response;
              break;
            case RefereeVerdict::kAccepted:
              ++accepted;
              ASSERT_TRUE(
                  response_has(response, "\"verdict\":\"accepted\""))
                  << c.name << " variant " << variant_idx << " " << provider
                  << " " << date.to_string() << " " << to_string(scope)
                  << "\n" << response;
              break;
            case RefereeVerdict::kRejected:
              ++rejected;
              ASSERT_TRUE(
                  response_has(response, "\"verdict\":\"rejected\""))
                  << c.name << " variant " << variant_idx << " " << provider
                  << " " << date.to_string() << " " << to_string(scope)
                  << "\n" << response;
              break;
          }
          // Serial and pooled index builds must answer byte-identically;
          // sampled to keep the sweep fast (full comparison below).
          if (checks % 17 == 0) {
            ASSERT_EQ(f.pooled_engine.handle(req), response);
          }
        }
      }
      ++variant_idx;
    }
  }
  EXPECT_EQ(checks - first_check, expected);
  RecordProperty("probes", std::to_string(checks - first_check));
  RecordProperty("verdicts", std::to_string(accepted) + " accepted, " +
                                 std::to_string(rejected) + " rejected, " +
                                 std::to_string(uncovered) + " not covered");
  // All three verdict classes must actually occur; each slice of NSS's
  // grid holds each.
  if (provider == "NSS") {
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(uncovered, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Providers, VerifyDifferential, [] {
  std::vector<ProviderParam> params;
  for (const char* name : kProviders) {
    const std::size_t slices = std::string_view(name) == "NSS" ? kNssSlices : 1;
    for (std::size_t k = 0; k < slices; ++k) params.push_back({name, k, slices});
  }
  return ::testing::ValuesIn(params);
}());

// --- temporal flips ---------------------------------------------------------

/// Literal day-by-day scan over the provider's coverage: the first date
/// the chain is accepted and the first later date it is rejected.
struct LinearFlip {
  std::optional<Date> accepted_from;
  std::optional<Date> first_rejected;
};

LinearFlip linear_scan(const StoreDatabase& db, const std::string& provider,
                       const Certificate& leaf,
                       const std::vector<const Certificate*>& pool,
                       Scope scope) {
  const ProviderHistory* history = db.find(provider);
  LinearFlip flip;
  if (history == nullptr || history->empty()) return flip;
  for (Date d = history->first_date(); d <= history->last_date(); d = d + 1) {
    const bool ok =
        referee(db, provider, leaf, pool, d, scope) ==
        RefereeVerdict::kAccepted;
    if (!flip.accepted_from) {
      if (ok) flip.accepted_from = d;
      continue;
    }
    if (!ok) {
      flip.first_rejected = d;
      break;
    }
  }
  return flip;
}

TEST(VerifyTemporal, FirstRejectedAtMatchesLinearScanOnEveryIncidentChain) {
  Fixture& f = fixture();
  const StoreDatabase& db = f.scenario.database();
  std::size_t incident_chains = 0;
  for (const ChainCase& c : f.cases) {
    if (c.name.rfind("incident:", 0) != 0) continue;
    ++incident_chains;
    std::vector<const Certificate*> pool;
    for (const auto& cert : c.pool) pool.push_back(cert.get());
    for (const std::string& provider : db.providers()) {
      const Request req = make_request(Op::kFirstRejectedAt, provider, c,
                                       pool, std::nullopt, Scope::kTls);
      const std::string response = f.engine.handle(req);
      const LinearFlip want =
          linear_scan(db, provider, *c.leaf, pool, Scope::kTls);
      if (want.accepted_from) {
        ASSERT_TRUE(response_has(response, "\"accepted_from\":\"" +
                                               want.accepted_from->to_string() +
                                               "\""))
            << c.name << " " << provider << "\n" << response;
      } else {
        ASSERT_TRUE(response_has(response, "\"accepted_from\":null"))
            << c.name << " " << provider << "\n" << response;
      }
      if (want.first_rejected) {
        ASSERT_TRUE(response_has(response,
                                 "\"first_rejected\":\"" +
                                     want.first_rejected->to_string() + "\""))
            << c.name << " " << provider << "\n" << response;
      } else {
        ASSERT_TRUE(response_has(response, "\"first_rejected\":null"))
            << c.name << " " << provider << "\n" << response;
      }
      // The breakpoint sweep must beat the day-by-day scan by orders of
      // magnitude while agreeing with it — that is its whole point.
      ASSERT_TRUE(response_has(response, "\"evaluated\":"));
    }
  }
  ASSERT_GT(incident_chains, 0u) << "no incident chains in the catalog";
}

TEST(VerifyTemporal, DigiNotarChainFlipsOnTheNssPurgeDate) {
  Fixture& f = fixture();
  const StoreDatabase& db = f.scenario.database();
  const auto incidents = rs::synth::high_severity_incidents();
  const auto diginotar =
      std::find_if(incidents.begin(), incidents.end(), [](const auto& i) {
        return i.name == "DigiNotar";
      });
  ASSERT_NE(diginotar, incidents.end());
  const ChainCase* chain = nullptr;
  for (const ChainCase& c : f.cases) {
    if (c.name.rfind("incident:DigiNotar/", 0) == 0) chain = &c;
  }
  ASSERT_NE(chain, nullptr);
  ASSERT_TRUE(db.find("NSS") != nullptr);
  std::vector<const Certificate*> pool;
  for (const auto& cert : chain->pool) pool.push_back(cert.get());
  const Request req = make_request(Op::kFirstRejectedAt, "NSS", *chain, pool,
                                   std::nullopt, Scope::kTls);
  const std::string response = f.engine.handle(req);
  // The chain must die exactly on the catalog's NSS removal date.
  EXPECT_TRUE(response_has(response,
                           "\"first_rejected\":\"" +
                               diginotar->nss_removal.to_string() + "\""))
      << response;
  EXPECT_TRUE(response_has(response, "\"reason\":\"untrusted_root\"") ||
              response_has(response,
                           "\"reason\":\"anchor_not_trusted_for_scope\""))
      << response;
}

TEST(VerifyScopes, EmailOnlyAnchorNeverVerifiesForTls) {
  Fixture& f = fixture();
  const StoreDatabase& db = f.scenario.database();
  const ChainCase* chain = nullptr;
  for (const ChainCase& c : f.cases) {
    if (c.name == "email_only_anchor") chain = &c;
  }
  ASSERT_NE(chain, nullptr) << "dataset lost its email-only roots";
  std::vector<const Certificate*> pool;
  for (const auto& cert : chain->pool) pool.push_back(cert.get());

  // Find a provider+date where the email-only anchor is present; the email
  // verdict there is accepted while TLS must stay rejected.
  bool exercised = false;
  for (const std::string& provider : db.providers()) {
    const ProviderHistory* history = db.find(provider);
    for (const Snapshot& snap : history->snapshots()) {
      const auto* entry = snap.find(chain->root_fp);
      if (entry == nullptr) continue;
      if (!entry->trust_for(TrustPurpose::kEmailProtection).is_anchor()) {
        continue;
      }
      const Date d = snap.date;
      const std::string email = f.engine.handle(make_request(
          Op::kVerifyChain, provider, *chain, pool, d, Scope::kEmail));
      const std::string tls = f.engine.handle(make_request(
          Op::kVerifyChain, provider, *chain, pool, d, Scope::kTls));
      ASSERT_TRUE(response_has(email, "\"verdict\":\"accepted\"")) << email;
      ASSERT_TRUE(response_has(tls, "\"verdict\":\"rejected\"")) << tls;
      ASSERT_TRUE(
          response_has(tls, "\"reason\":\"anchor_not_trusted_for_scope\""))
          << tls;
      exercised = true;
      break;
    }
    if (exercised) break;
  }
  ASSERT_TRUE(exercised) << "no provider carries the email-only anchor";
}

TEST(VerifyDeterminism, SerialAndPooledEnginesAnswerIncidentChainsByteEqual) {
  Fixture& f = fixture();
  const StoreDatabase& db = f.scenario.database();
  std::size_t compared = 0;
  for (const ChainCase& c : f.cases) {
    std::vector<const Certificate*> pool;
    for (const auto& cert : c.pool) pool.push_back(cert.get());
    for (const std::string& provider : db.providers()) {
      const Request flip = make_request(Op::kFirstRejectedAt, provider, c,
                                        pool, std::nullopt, Scope::kTls);
      ASSERT_EQ(f.engine.handle(flip), f.pooled_engine.handle(flip));
      const auto cov = f.engine.index().coverage(provider);
      if (cov) {
        const Request point = make_request(Op::kVerifyChain, provider, c,
                                           pool, cov->last, Scope::kTls);
        ASSERT_EQ(f.engine.handle(point), f.pooled_engine.handle(point));
      }
      ++compared;
    }
  }
  ASSERT_GT(compared, 0u);
}

}  // namespace
}  // namespace rs::verify
