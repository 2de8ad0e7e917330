// Differential battery for the landscape subsystem: an independent
// brute-force referee — FingerprintSet loops over raw ProviderHistory
// snapshots, no IdSet, no TrustIndex, its own snprintf — assembles the
// byte-exact expected JSON for agreement_at and ct_coverage over every
// (date, provider) grid point on the paper scenario AND a simulated CT
// ecosystem, and the engine must reproduce those bytes at 0 and 3 build
// workers, in-process and inside batch envelopes.  Labelled tsan: the
// pooled engine build and the pooled agreement pass race real workers.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/crypto/digest.h"
#include "src/exec/thread_pool.h"
#include "src/query/engine.h"
#include "src/query/request.h"
#include "src/store/database.h"
#include "src/store/snapshot.h"
#include "src/synth/paper_scenario.h"
#include "src/synth/simulator.h"
#include "src/util/date.h"
#include "tests/referee/fingerprint_set.h"

namespace {

using rs::crypto::Sha256Digest;
using rs::query::QueryEngine;
using rs::referee::FingerprintSet;
using rs::store::ProviderHistory;
using rs::store::StoreDatabase;
using rs::util::Date;

// ---------------------------------------------------------------------------
// The referee: FingerprintSet set algebra and its own formatting, sharing
// no code with rs_landscape beyond the wire grammar it predicts.

std::string ref_fmt(double num, double den, int digits) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", digits, den == 0.0 ? 0.0 : num / den);
  return buf;
}

std::string ref_agreement(std::size_t inter, std::size_t uni) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6f",
                uni == 0 ? 1.0
                         : static_cast<double>(inter) /
                               static_cast<double>(uni));
  return buf;
}

std::string q(const std::string& s) { return "\"" + s + "\""; }

rs::store::TrustPurpose ref_purpose(const std::string& scope) {
  if (scope == "email") return rs::store::TrustPurpose::kEmailProtection;
  if (scope == "code") return rs::store::TrustPurpose::kCodeSigning;
  return rs::store::TrustPurpose::kServerAuth;
}

struct RefStore {
  Date snapshot_date;
  FingerprintSet roots;
};

/// Mirror of TrustIndex::store_at over the raw history: nullopt outside
/// [first, last], else the latest snapshot dated on or before `date`.
std::optional<RefStore> ref_store_at(const ProviderHistory& h, Date date,
                                     const std::string& scope) {
  if (h.empty() || date < h.first_date() || date > h.last_date()) {
    return std::nullopt;
  }
  const auto* snap = h.at(date);
  if (snap == nullptr) return std::nullopt;
  RefStore out;
  out.snapshot_date = snap->date;
  out.roots = scope == "present"
                  ? rs::referee::all_fingerprints(*snap)
                  : rs::referee::anchors_for(*snap, ref_purpose(scope));
  return out;
}

std::string expected_agreement(const StoreDatabase& db, const Date& date,
                               const std::string& scope) {
  std::vector<std::string> covered, skipped;
  std::vector<FingerprintSet> sets;
  for (const auto& name : db.providers()) {
    const auto store = ref_store_at(*db.find(name), date, scope);
    if (store) {
      covered.push_back(name);
      sets.push_back(store->roots);
    } else {
      skipped.push_back(name);
    }
  }

  std::string out = R"({"op":"agreement_at","status":"ok","date":)" +
                    q(date.to_string()) + ",\"scope\":" + q(scope);
  out += ",\"providers\":[";
  for (std::size_t i = 0; i < covered.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += q(covered[i]);
  }
  out += "],\"sizes\":[";
  for (std::size_t i = 0; i < sets.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(sets[i].size());
  }
  out += "],\"exclusive\":[";
  for (std::size_t i = 0; i < sets.size(); ++i) {
    FingerprintSet others;
    for (std::size_t j = 0; j < sets.size(); ++j) {
      if (j != i) others = others.set_union(sets[j]);
    }
    if (i > 0) out.push_back(',');
    out += std::to_string(sets[i].difference(others).size());
  }
  FingerprintSet uni, inter;
  if (!sets.empty()) inter = sets[0];
  for (const auto& s : sets) {
    uni = uni.set_union(s);
    inter = inter.intersection(s);
  }
  out += "],\"union_size\":" + std::to_string(uni.size());
  out += ",\"intersection_size\":" + std::to_string(inter.size());
  out += ",\"global_agreement\":" + q(ref_agreement(inter.size(), uni.size()));
  out += ",\"pairs\":[";
  bool first = true;
  for (std::size_t a = 0; a < sets.size(); ++a) {
    for (std::size_t b = a + 1; b < sets.size(); ++b) {
      const std::size_t i = sets[a].intersection_size(sets[b]);
      const std::size_t u = sets[a].union_size(sets[b]);
      if (!first) out.push_back(',');
      first = false;
      out += "{\"a\":" + q(covered[a]) + ",\"b\":" + q(covered[b]) +
             ",\"intersection\":" + std::to_string(i) +
             ",\"union\":" + std::to_string(u) +
             ",\"agreement\":" + q(ref_agreement(i, u)) + "}";
    }
  }
  out += "],\"not_covered\":[";
  for (std::size_t i = 0; i < skipped.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += q(skipped[i]);
  }
  out += "]}";
  return out;
}

/// Per-provider first-seen dates under a scope: the first distinct
/// snapshot date whose RESOLVED store (last snapshot of that date) carries
/// the certificate — the raw-history mirror of the index lineage sweep.
using FirstSeenMap = std::map<Sha256Digest, Date>;

FirstSeenMap ref_first_seen(const ProviderHistory& h,
                            const std::string& scope) {
  FirstSeenMap out;
  std::set<Date> dates;
  for (const auto& snap : h.snapshots()) dates.insert(snap.date);
  for (const Date& d : dates) {
    const auto store = ref_store_at(h, d, scope);
    if (!store) continue;
    for (const auto& fp : store->roots.items()) {
      out.emplace(fp, d);  // emplace keeps the earliest date
    }
  }
  return out;
}

struct RefLag {
  std::size_t matched = 0;
  std::int64_t total_days = 0;
};

RefLag ref_lag(const FirstSeenMap& log, const FirstSeenMap& store) {
  RefLag out;
  for (const auto& [fp, log_date] : log) {
    const auto it = store.find(fp);
    if (it == store.end()) continue;
    ++out.matched;
    out.total_days += log_date - it->second;
  }
  return out;
}

std::string expected_ct_coverage(
    const StoreDatabase& db, const std::string& provider, const Date& date,
    const std::string& scope,
    const std::map<std::string, FirstSeenMap>& first_seen) {
  const auto* h = db.find(provider);
  if (h == nullptr) {
    return R"({"status":"error","code":"unknown_provider","message":)" +
           q("no history for provider '" + provider + "'") + "}";
  }
  const std::string echo =
      "\"date\":" + q(date.to_string()) + ",\"scope\":" + q(scope);
  const auto log = ref_store_at(*h, date, scope);
  if (!log) {
    return R"({"op":"ct_coverage","status":"not_covered",)" + echo +
           ",\"provider\":" + q(provider) +
           ",\"coverage_begin\":" + q(h->first_date().to_string()) +
           ",\"coverage_end\":" + q(h->last_date().to_string()) + "}";
  }

  std::vector<std::string> covered, skipped;
  std::vector<FingerprintSet> sets;
  for (const auto& name : db.providers()) {
    if (name == provider) continue;
    const auto store = ref_store_at(*db.find(name), date, scope);
    if (store) {
      covered.push_back(name);
      sets.push_back(store->roots);
    } else {
      skipped.push_back(name);
    }
  }
  FingerprintSet all_stores;
  for (const auto& s : sets) all_stores = all_stores.set_union(s);

  std::string out = R"({"op":"ct_coverage","status":"ok",)" + echo;
  out += ",\"provider\":" + q(provider);
  out += ",\"snapshot_date\":" + q(log->snapshot_date.to_string());
  out += ",\"log_size\":" + std::to_string(log->roots.size());
  out += ",\"log_exclusive\":" +
         std::to_string(log->roots.difference(all_stores).size());
  out += ",\"coverage\":[";
  for (std::size_t i = 0; i < covered.size(); ++i) {
    const auto lag = ref_lag(first_seen.at(provider), first_seen.at(covered[i]));
    if (i > 0) out.push_back(',');
    out += "{\"provider\":" + q(covered[i]);
    out += ",\"size\":" + std::to_string(sets[i].size());
    out += ",\"covered\":" +
           std::to_string(log->roots.intersection_size(sets[i]));
    out += ",\"fraction\":" +
           q(ref_fmt(static_cast<double>(log->roots.intersection_size(sets[i])),
                     static_cast<double>(sets[i].size()), 4));
    out += ",\"matched\":" + std::to_string(lag.matched);
    out += ",\"mean_lag_days\":";
    out += lag.matched == 0
               ? std::string("null")
               : q(ref_fmt(static_cast<double>(lag.total_days),
                           static_cast<double>(lag.matched), 1));
    out += "}";
  }
  out += "],\"not_covered\":[";
  for (std::size_t i = 0; i < skipped.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += q(skipped[i]);
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// Grid drivers

std::vector<Date> probe_dates(const StoreDatabase& db) {
  std::set<Date> dates;
  for (const auto& name : db.providers()) {
    for (const auto& snap : db.find(name)->snapshots()) {
      dates.insert(snap.date);
      dates.insert(snap.date + 17);  // mid-interval probes too
    }
  }
  // Out-of-coverage probes on both sides.
  dates.insert(*dates.begin() - 400);
  dates.insert(*dates.rbegin() + 400);
  return {dates.begin(), dates.end()};
}

void run_battery(const StoreDatabase& db, const std::string& scope,
                 std::size_t ct_date_stride) {
  QueryEngine serial(db, {});
  rs::exec::ThreadPool pool(3);
  QueryEngine pooled(db, {}, &pool);
  ASSERT_EQ(db.providers(), serial.index().providers());

  const auto dates = probe_dates(db);
  std::map<std::string, FirstSeenMap> first_seen;
  for (const auto& name : db.providers()) {
    first_seen.emplace(name, ref_first_seen(*db.find(name), scope));
  }

  std::size_t checked = 0;
  for (const Date& d : dates) {
    const std::string line = R"({"op":"agreement_at","date":")" +
                             d.to_string() + R"(","scope":")" + scope +
                             "\"}";
    const std::string expect = expected_agreement(db, d, scope);
    ASSERT_EQ(serial.handle_json(line), expect) << line;
    ASSERT_EQ(pooled.handle_json(line), expect) << line;
    ++checked;
  }
  for (std::size_t k = 0; k < dates.size(); k += ct_date_stride) {
    for (const auto& name : db.providers()) {
      const std::string line = R"({"op":"ct_coverage","provider":")" + name +
                               R"(","date":")" + dates[k].to_string() +
                               R"(","scope":")" + scope + "\"}";
      const std::string expect =
          expected_ct_coverage(db, name, dates[k], scope, first_seen);
      ASSERT_EQ(serial.handle_json(line), expect) << line;
      ASSERT_EQ(pooled.handle_json(line), expect) << line;
      ++checked;
    }
  }
  // Unknown provider errors identically everywhere.
  const std::string bad =
      R"({"op":"ct_coverage","provider":"NoSuch","date":"2020-01-01"})";
  EXPECT_EQ(serial.handle_json(bad),
            expected_ct_coverage(db, "NoSuch", Date::ymd(2020, 1, 1), "tls",
                                 first_seen));
  EXPECT_EQ(serial.handle_json(bad), pooled.handle_json(bad));
  EXPECT_GT(checked, dates.size());
}

TEST(LandscapeDifferential, PaperScenarioTlsFullGrid) {
  const auto scenario = rs::synth::build_paper_scenario(rs::synth::kPaperSeed);
  run_battery(scenario.database(), "tls", 7);
}

TEST(LandscapeDifferential, PaperScenarioPresentScope) {
  const auto scenario = rs::synth::build_paper_scenario(rs::synth::kPaperSeed);
  run_battery(scenario.database(), "present", 23);
}

TEST(LandscapeDifferential, SimulatedCtEcosystemFullGrid) {
  rs::synth::SimulatorConfig config;
  config.seed = 20210707;
  config.ca_count = 40;
  config.program_count = 2;
  config.derivative_count = 1;
  config.snapshot_interval_days = 180;
  config.ct_log_count = 2;
  const auto eco = rs::synth::simulate_ecosystem(config);
  ASSERT_EQ(eco.ct_log_names.size(), 2u);
  for (const auto& log : eco.ct_log_names) {
    ASSERT_NE(eco.database.find(log), nullptr);
  }
  run_battery(eco.database, "tls", 1);
}

TEST(LandscapeDifferential, BatchEnvelopeMatchesPerItemResponses) {
  const auto scenario = rs::synth::build_paper_scenario(rs::synth::kPaperSeed);
  QueryEngine engine(scenario.database(), {});
  const std::vector<std::string> items = {
      R"({"op":"agreement_at","date":"2015-06-01"})",
      R"({"op":"ct_coverage","provider":"NSS","date":"2015-06-01"})",
      R"({"op":"agreement_at","date":"2015-06-01","scope":"present"})",
      R"({"op":"ct_coverage","provider":"NoSuch","date":"2015-06-01"})",
  };
  std::string batch = R"({"op":"batch","requests":[)";
  std::vector<std::string> singles;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) batch.push_back(',');
    batch += items[i];
    singles.push_back(engine.handle_json(items[i]));
  }
  batch += "]}";
  EXPECT_EQ(engine.handle_json(batch), rs::query::batch_response(singles));
}

}  // namespace
