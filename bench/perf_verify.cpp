// Microbenchmarks for the chain-verification workload (docs/VERIFY.md).
//
//   * Point verdicts — BM_VerifyChainStraight / BM_VerifyChainDeep /
//     BM_VerifyChainCrossSign time rs::verify::verify_chain alone over a
//     TrustIndex-backed oracle; BM_EngineVerifyChain is the same verdict
//     through QueryEngine::handle, i.e. what one serve-cache miss costs.
//   * Temporal scans — BM_FirstRejectedAtBreakpoints is the shipped
//     flip_breakpoints + scan_first_rejected sweep through the engine;
//     BM_FirstRejectedAtLinearScan evaluates every day of coverage, which
//     is the naive alternative the breakpoint theorem replaces.
//
// tools/record_bench.sh runs these, writes BENCH_verify.json, and enforces
// the floor: the breakpoint sweep must beat the day-by-day scan by >= 5x
// (it visits ~30x fewer dates on the paper scenario).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/asn1/oid.h"
#include "src/query/engine.h"
#include "src/query/request.h"
#include "src/query/trust_index.h"
#include "src/synth/chain_gen.h"
#include "src/synth/incidents.h"
#include "src/synth/paper_scenario.h"
#include "src/verify/temporal.h"
#include "src/verify/verify.h"
#include "src/x509/certificate.h"

namespace {

using rs::query::Op;
using rs::query::QueryEngine;
using rs::query::Request;
using rs::query::Scope;
using rs::query::TrustAnswer;
using rs::synth::ChainCase;
using rs::util::Date;
using rs::x509::Certificate;

struct Bench {
  rs::synth::PaperScenario scenario = rs::synth::build_paper_scenario();
  std::vector<ChainCase> cases;
  QueryEngine engine;
  std::string provider;
  Date mid{};

  Bench()
      : cases(make_cases(scenario)), engine(scenario.database(), {}) {
    provider = engine.index().has_provider("NSS")
                   ? "NSS"
                   : engine.index().providers().front();
    const auto cov = engine.index().coverage(provider);
    mid = cov->first + (cov->last - cov->first) / 2;
  }

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

  const ChainCase& find(const std::string& prefix) const {
    for (const auto& c : cases) {
      if (c.name.rfind(prefix, 0) == 0) return c;
    }
    std::abort();  // the generator lost a named case
  }

  rs::verify::TrustOracle oracle(Scope scope) const {
    const rs::query::TrustIndex& index = engine.index();
    rs::verify::TrustOracle o;
    auto to_oracle = [](TrustAnswer a) {
      switch (a) {
        case TrustAnswer::kTrusted: return rs::verify::OracleAnswer::kYes;
        case TrustAnswer::kUntrusted: return rs::verify::OracleAnswer::kNo;
        case TrustAnswer::kNotCovered:
          return rs::verify::OracleAnswer::kNotCovered;
      }
      return rs::verify::OracleAnswer::kNo;
    };
    o.present = [&index, this, to_oracle](const rs::crypto::Sha256Digest& fp,
                                          Date d) {
      return to_oracle(index.is_trusted(fp, provider, d, Scope::kPresent));
    };
    o.anchor = [&index, this, to_oracle, scope](
                   const rs::crypto::Sha256Digest& fp, Date d) {
      return to_oracle(index.is_trusted(fp, provider, d, scope));
    };
    return o;
  }

  Request request(const ChainCase& c, Op op, std::optional<Date> date) const {
    Request r;
    r.op = op;
    r.provider = provider;
    r.date = date;
    r.scope = Scope::kTls;
    r.leaf = c.leaf->der();
    for (const auto& cert : c.pool) r.pool.push_back(cert->der());
    std::sort(r.pool.begin(), r.pool.end());
    r.pool.erase(std::unique(r.pool.begin(), r.pool.end()), r.pool.end());
    return r;
  }
};

const Bench& bench() {
  static const Bench* b = new Bench();
  return *b;
}

std::vector<const Certificate*> raw_pool(const ChainCase& c) {
  std::vector<const Certificate*> pool;
  for (const auto& cert : c.pool) pool.push_back(cert.get());
  return pool;
}

void verify_case(benchmark::State& state, const std::string& name) {
  const Bench& b = bench();
  const ChainCase& c = b.find(name);
  const auto pool = raw_pool(c);
  const auto oracle = b.oracle(Scope::kTls);
  const auto eku = rs::asn1::oids::eku_server_auth();
  for (auto _ : state) {
    auto result =
        rs::verify::verify_chain(*c.leaf, pool, b.mid, oracle, eku);
    benchmark::DoNotOptimize(result);
  }
}

void BM_VerifyChainStraight(benchmark::State& state) {
  verify_case(state, "straight");
}
BENCHMARK(BM_VerifyChainStraight);

void BM_VerifyChainDeep(benchmark::State& state) {
  verify_case(state, "deep");
}
BENCHMARK(BM_VerifyChainDeep);

void BM_VerifyChainCrossSign(benchmark::State& state) {
  verify_case(state, "cross_sign");
}
BENCHMARK(BM_VerifyChainCrossSign);

/// The full serve-path cost of one uncached verify_chain answer: request
/// already parsed, response rendered to its JSON line.
void BM_EngineVerifyChain(benchmark::State& state) {
  const Bench& b = bench();
  const Request req = b.request(b.find("straight"), Op::kVerifyChain, b.mid);
  for (auto _ : state) {
    std::string response = b.engine.handle(req);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_EngineVerifyChain);

/// The shipped temporal sweep: snapshot dates ∪ validity edges only.
void BM_FirstRejectedAtBreakpoints(benchmark::State& state) {
  const Bench& b = bench();
  const Request req =
      b.request(b.find("incident:"), Op::kFirstRejectedAt, std::nullopt);
  for (auto _ : state) {
    std::string response = b.engine.handle(req);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_FirstRejectedAtBreakpoints);

/// The naive alternative: evaluate the chain on every single day of the
/// provider's coverage.  Kept as the honest baseline the breakpoint
/// theorem is measured against.
void BM_FirstRejectedAtLinearScan(benchmark::State& state) {
  const Bench& b = bench();
  const ChainCase& c = b.find("incident:");
  const auto pool = raw_pool(c);
  const auto oracle = b.oracle(Scope::kTls);
  const auto eku = rs::asn1::oids::eku_server_auth();
  const auto cov = b.engine.index().coverage(b.provider);
  for (auto _ : state) {
    std::optional<Date> accepted_from, first_rejected;
    for (Date d = cov->first; d <= cov->last; d = d + 1) {
      const bool ok =
          rs::verify::verify_chain(*c.leaf, pool, d, oracle, eku).accepted;
      if (!accepted_from) {
        if (ok) accepted_from = d;
      } else if (!ok) {
        first_rejected = d;
        break;
      }
    }
    benchmark::DoNotOptimize(accepted_from);
    benchmark::DoNotOptimize(first_rejected);
  }
}
BENCHMARK(BM_FirstRejectedAtLinearScan);

}  // namespace
