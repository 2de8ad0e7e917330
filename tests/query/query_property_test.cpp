// Property test: TrustIndex must agree with a brute-force scan of the raw
// snapshot history for every (certificate, provider, date) probed, and the
// index built on a thread pool must be indistinguishable from the serial
// build (the engine responses are compared byte-for-byte).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/exec/thread_pool.h"
#include "src/query/engine.h"
#include "src/query/trust_index.h"
#include "src/store/database.h"
#include "src/store/interner.h"
#include "src/synth/paper_scenario.h"
#include "src/synth/user_agents.h"
#include "src/util/hex.h"
#include "tests/referee/fingerprint_set.h"

namespace rs::query {
namespace {

using rs::store::ProviderHistory;
using rs::store::Snapshot;
using rs::store::StoreDatabase;
using rs::store::TrustPurpose;
using rs::util::Date;

/// The ground truth the index must reproduce: resolve the snapshot with
/// ProviderHistory::at and scan its entries directly.
TrustAnswer brute_force(const StoreDatabase& db,
                        const rs::crypto::Sha256Digest& fp,
                        const std::string& provider, Date date, Scope scope) {
  const ProviderHistory* history = db.find(provider);
  if (history == nullptr || history->empty()) return TrustAnswer::kNotCovered;
  if (date < history->first_date() || history->last_date() < date) {
    return TrustAnswer::kNotCovered;
  }
  const Snapshot* snapshot = history->at(date);
  if (snapshot == nullptr) return TrustAnswer::kNotCovered;
  const rs::store::TrustEntry* entry = snapshot->find(fp);
  if (entry == nullptr) return TrustAnswer::kUntrusted;
  bool yes = false;
  switch (scope) {
    case Scope::kTls:
      yes = entry->trust_for(TrustPurpose::kServerAuth).is_anchor();
      break;
    case Scope::kEmail:
      yes = entry->trust_for(TrustPurpose::kEmailProtection).is_anchor();
      break;
    case Scope::kCode:
      yes = entry->trust_for(TrustPurpose::kCodeSigning).is_anchor();
      break;
    case Scope::kPresent:
      yes = true;
      break;
  }
  return yes ? TrustAnswer::kTrusted : TrustAnswer::kUntrusted;
}

/// Every date where any provider's answer can change, plus both sides of
/// each boundary: all snapshot dates, the days around them, and the days
/// just outside each coverage window.
std::vector<Date> probe_dates(const ProviderHistory& history) {
  std::vector<Date> dates;
  for (const auto& s : history.snapshots()) {
    dates.push_back(s.date + (-1));
    dates.push_back(s.date);
    dates.push_back(s.date + 1);
  }
  dates.push_back(history.first_date() + (-30));
  dates.push_back(history.last_date() + 30);
  return dates;
}

TEST(QueryProperty, IndexMatchesBruteForceEverywhere) {
  const auto scenario = rs::synth::build_paper_scenario();
  const StoreDatabase& db = scenario.database();
  const auto interner = rs::store::CertInterner::from_database(db);
  const TrustIndex index = TrustIndex::build(db, interner);

  const Scope scopes[] = {Scope::kTls, Scope::kEmail, Scope::kCode,
                          Scope::kPresent};
  std::size_t checked = 0;
  for (const auto& provider : db.providers()) {
    const ProviderHistory* history = db.find(provider);
    ASSERT_NE(history, nullptr);
    for (const Date date : probe_dates(*history)) {
      for (const Scope scope : scopes) {
        for (std::uint32_t id = 0; id < interner.size(); ++id) {
          const auto& fp = interner.digest_of(id);
          const TrustAnswer expect = brute_force(db, fp, provider, date, scope);
          const TrustAnswer got = index.is_trusted(fp, provider, date, scope);
          ASSERT_EQ(got, expect)
              << provider << " " << date.to_string() << " scope="
              << to_string(scope) << " fp=" << rs::util::hex_encode(fp);
          ++checked;
        }
      }
    }
  }
  // The sweep must actually have covered the ecosystem.
  EXPECT_GT(checked, 100000u);
}

TEST(QueryProperty, StoreAtMatchesSnapshotScan) {
  const auto scenario = rs::synth::build_paper_scenario();
  const StoreDatabase& db = scenario.database();
  const auto interner = rs::store::CertInterner::from_database(db);
  const TrustIndex index = TrustIndex::build(db, interner);

  for (const auto& provider : db.providers()) {
    const ProviderHistory* history = db.find(provider);
    for (const Date date : probe_dates(*history)) {
      const auto view = index.store_at(provider, date, Scope::kTls);
      const bool covered =
          history->first_date() <= date && date <= history->last_date();
      ASSERT_EQ(view.has_value(), covered)
          << provider << " " << date.to_string();
      if (!view) continue;
      const Snapshot* snapshot = history->at(date);
      ASSERT_NE(snapshot, nullptr);
      EXPECT_EQ(view->snapshot_date, snapshot->date);
      const auto expected = rs::referee::tls_anchors(*snapshot);
      ASSERT_EQ(view->roots->size(), expected.size())
          << provider << " " << date.to_string();
      for (const auto& fp : expected.items()) {
        const auto id = interner.id_of(fp);
        ASSERT_TRUE(id.has_value());
        EXPECT_TRUE(view->roots->contains(*id));
      }
    }
  }
}

// The index build's membership lanes fan out per provider on the pool;
// the answers must be identical for any worker count.  Compared at the
// engine layer so the guarantee covers the full response bytes, not just
// the index internals.
TEST(QueryProperty, ThreadedBuildIsByteIdenticalToSerial) {
  const auto scenario = rs::synth::build_paper_scenario();
  const StoreDatabase& db = scenario.database();
  const auto agents = rs::synth::user_agent_population();

  rs::exec::ThreadPool serial_pool(0);
  rs::exec::ThreadPool threaded_pool(3);
  const QueryEngine serial(db, agents, &serial_pool);
  const QueryEngine threaded(db, agents, &threaded_pool);

  std::vector<std::string> lines = {R"({"op":"stats"})"};
  for (const auto& provider : db.providers()) {
    const ProviderHistory* history = db.find(provider);
    const std::string mid = history->at(history->last_date())
                                ->date.to_string();
    lines.push_back(R"({"op":"store_at","provider":")" + provider +
                    R"(","date":")" + mid + R"("})");
    lines.push_back(R"({"op":"diff","provider":")" + provider +
                    R"(","date_a":")" + history->first_date().to_string() +
                    R"(","date_b":")" + history->last_date().to_string() +
                    R"(","scope":"present"})");
  }
  const auto roots = rs::referee::all_tls_roots_ever(db);
  std::size_t i = 0;
  for (const auto& fp : roots.items()) {
    if (++i % 10 != 0) continue;  // every 10th root keeps the sweep brisk
    const std::string hex = rs::util::hex_encode(fp);
    lines.push_back(R"({"op":"lineage","fp":")" + hex + R"("})");
    lines.push_back(R"({"op":"providers_trusting","fp":")" + hex +
                    R"(","date":"2020-06-01"})");
  }

  for (const auto& line : lines) {
    EXPECT_EQ(serial.handle_json(line), threaded.handle_json(line)) << line;
  }
}

}  // namespace
}  // namespace rs::query
