// Round-trip property suite for the persisted trust index (RSIX).
//
// The contract under test: serialize() is a canonical pure function of the
// logical index, deserialize(serialize(x)) answers every query exactly as
// x does, and the serialize/deserialize pair is a fixed point — the bytes
// do not drift across round trips.  Proven on the paper scenario and on
// randomized simulated ecosystems.
#include "src/query/index_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/query/engine.h"
#include "src/query/trust_index.h"
#include "src/store/database.h"
#include "src/store/interner.h"
#include "src/store/persist.h"
#include "src/synth/paper_scenario.h"
#include "src/synth/simulator.h"
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

std::span<const std::uint8_t> as_span(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Ground truth, mirroring tests/query/query_property_test.cpp: resolve
/// the snapshot with ProviderHistory::at and scan its entries directly.
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

TrustIndex build_index(const StoreDatabase& db) {
  return TrustIndex::build(db, rs::store::CertInterner::from_database(db));
}

TEST(IndexIoRoundTrip, SerializeIsAFixedPoint) {
  const auto scenario = rs::synth::build_paper_scenario();
  const TrustIndex built = build_index(scenario.database());

  const std::string first = TrustIndexIO::serialize(built);
  auto loaded = TrustIndexIO::deserialize(as_span(first));
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  const std::string second = TrustIndexIO::serialize(loaded.value());
  // Byte-for-byte, not just equivalent: canonical encoding means a load
  // never perturbs what a re-serialize emits.
  EXPECT_EQ(first, second);
}

// The two pinned images: the paper scenario's index (what `rootstore index
// build` writes) and the index of perfbench's default sim_index point at
// seed 1.
const std::string& paper_image() {
  static const std::string image = [] {
    const auto scenario = rs::synth::build_paper_scenario();
    return TrustIndexIO::serialize(build_index(scenario.database()));
  }();
  return image;
}

const std::string& sim_image() {
  static const std::string image = [] {
    rs::synth::SimulatorConfig cfg;
    cfg.seed = 1;
    cfg.ca_count = 600;
    cfg.program_count = 6;
    cfg.derivative_count = 6;
    cfg.snapshot_interval_days = 30;
    cfg.ct_log_count = 2;
    const auto eco = rs::synth::simulate_ecosystem(cfg);
    return TrustIndexIO::serialize(build_index(eco.database));
  }();
  return image;
}

std::string sha256_hex(std::span<const std::uint8_t> bytes) {
  return rs::util::hex_encode(rs::crypto::Sha256::hash(bytes));
}

// The exact bytes of both images, pinned.  Codec rewrites must leave every
// byte where it was.
TEST(IndexIoGolden, ImagesAreUnchanged) {
  EXPECT_EQ(paper_image().size(), 196877u);
  EXPECT_EQ(sha256_hex(as_span(paper_image())),
            "6289961492c5a554d90c8f4f608b5659d62b3d419c86a0fc3d19c21e3c5966f4");
  EXPECT_EQ(sim_image().size(), 822378u);
  EXPECT_EQ(sha256_hex(as_span(sim_image())),
            "d1dd9855f3d387302c145fc758adca8e1dc3b53d3c9ce14bee762f024ca29ad2");
}

// The interner, provider and membership sections of both images, pinned
// payload by payload, so a change of the container around them cannot hide
// a change inside them.
TEST(IndexIoGolden, SectionPayloadsAreUnchanged) {
  struct Pin {
    std::uint32_t id;
    std::size_t bytes;
    const char* sha256;
  };
  const auto expect_pins = [](const std::string& image,
                              const std::vector<Pin>& pins,
                              const std::string& what) {
    auto view = rs::store::persist::FileView::parse(as_span(image));
    ASSERT_TRUE(view.ok()) << what << ": " << view.message();
    for (const Pin& pin : pins) {
      const auto payload = view.value().section(pin.id);
      ASSERT_TRUE(payload.has_value()) << what << " section " << pin.id;
      EXPECT_EQ(payload->size(), pin.bytes) << what << " section " << pin.id;
      EXPECT_EQ(sha256_hex(*payload), pin.sha256)
          << what << " section " << pin.id;
    }
  };
  expect_pins(
      paper_image(),
      {{kSectionInterner, 14600,
        "75144c5ceb48bbb8c3753de8ba829305527414dbece9f48e3f886fb2421cb0fd"},
       {kSectionProviders, 13165,
        "d617b2b1f63f4862ad88ced381535e4f45c9bc10846a088acf97c20d55f122f7"},
       {kSectionSets, 168976,
        "31fdd238d8e69458339f67a85c6ace95853689bb354540b29a443888fff8ed67"}},
      "paper");
  expect_pins(
      sim_image(),
      {{kSectionInterner, 19208,
        "7f54c146d8625242a8eaf89a2412e216a2b8644d08e02a34a95062b413fe813e"},
       {kSectionProviders, 53538,
        "098054ec206986059d037ff6d2d341141fbf64cfd5ffebd68d455db1755b824d"},
       {kSectionSets, 749496,
        "1f3e333b3741267c0c9954397d797b51a662d2a57c9db18fc004e5ab7c9f770e"}},
      "sim");
}

// What verify() reports for both images.  `intervals` counts presence runs
// over every (provider, scope).
TEST(IndexIoGolden, VerifyStatsAreUnchanged) {
  const auto expect_stats = [](const std::string& image,
                               std::uint64_t providers,
                               std::uint64_t certificates,
                               std::uint64_t resolution_points,
                               std::uint64_t intervals,
                               const std::string& what) {
    const auto stats = TrustIndexIO::verify(as_span(image));
    ASSERT_TRUE(stats.ok()) << what << ": " << stats.message();
    EXPECT_EQ(stats.value().providers, providers) << what;
    EXPECT_EQ(stats.value().certificates, certificates) << what;
    EXPECT_EQ(stats.value().resolution_points, resolution_points) << what;
    EXPECT_EQ(stats.value().intervals, intervals) << what;
    EXPECT_EQ(stats.value().bytes, image.size()) << what;
  };
  expect_stats(paper_image(), 10, 456, 670, 7713, "paper");
  expect_stats(sim_image(), 14, 600, 2764, 23367, "sim");
}

TEST(IndexIoRoundTrip, LoadedIndexMatchesBruteForceEverywhere) {
  const auto scenario = rs::synth::build_paper_scenario();
  const StoreDatabase& db = scenario.database();
  const auto interner = rs::store::CertInterner::from_database(db);
  const TrustIndex built = TrustIndex::build(db, interner);

  const std::string image = TrustIndexIO::serialize(built);
  auto loaded = TrustIndexIO::deserialize(as_span(image));
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  const TrustIndex& index = loaded.value();

  ASSERT_EQ(index.provider_count(), built.provider_count());
  ASSERT_EQ(index.interner().size(), built.interner().size());
  ASSERT_EQ(index.resolution_point_count(), built.resolution_point_count());

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
  EXPECT_GT(checked, 100000u);
}

// The loaded engine must be indistinguishable from the built one at the
// response-byte level across every op in the wire grammar.
TEST(IndexIoRoundTrip, LoadedEngineAnswersByteIdentically) {
  const auto scenario = rs::synth::build_paper_scenario();
  const StoreDatabase& db = scenario.database();
  const auto agents = rs::synth::user_agent_population();

  const QueryEngine from_db(db, agents);
  const std::string image = TrustIndexIO::serialize(from_db.index());
  auto loaded = TrustIndexIO::deserialize(as_span(image));
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  const QueryEngine from_file(std::move(loaded).take(), agents);

  std::vector<std::string> lines = {R"({"op":"stats"})"};
  for (const auto& provider : db.providers()) {
    const ProviderHistory* history = db.find(provider);
    lines.push_back(R"({"op":"store_at","provider":")" + provider +
                    R"(","date":")" + history->last_date().to_string() +
                    R"("})");
    lines.push_back(R"({"op":"diff","provider":")" + provider +
                    R"(","date_a":")" + history->first_date().to_string() +
                    R"(","date_b":")" + history->last_date().to_string() +
                    R"(","scope":"present"})");
  }
  const auto roots = rs::referee::all_tls_roots_ever(db);
  std::size_t i = 0;
  for (const auto& fp : roots.items()) {
    if (++i % 7 != 0) continue;
    const std::string hex = rs::util::hex_encode(fp);
    lines.push_back(R"({"op":"lineage","fp":")" + hex + R"("})");
    lines.push_back(R"({"op":"providers_trusting","fp":")" + hex +
                    R"(","date":"2020-06-01"})");
    lines.push_back(R"({"op":"is_trusted","fp":")" + hex +
                    R"(","provider":"NSS","date":"2019-03-03"})");
  }
  lines.push_back(R"({"op":"agent_store","user_agent":"Curl",)"
                  R"("date":"2019-06-01"})");

  for (const auto& line : lines) {
    EXPECT_EQ(from_db.handle_json(line), from_file.handle_json(line)) << line;
  }
}

TEST(IndexIoRoundTrip, FixedPointOnRandomizedEcosystems) {
  for (const std::uint64_t seed : {7ull, 21ull, 1337ull}) {
    rs::synth::SimulatorConfig cfg;
    cfg.seed = seed;
    cfg.ca_count = 60;
    cfg.program_count = 3;
    cfg.derivative_count = 2;
    cfg.snapshot_interval_days = 120;
    const auto eco = rs::synth::simulate_ecosystem(cfg);
    const TrustIndex built = build_index(eco.database);

    const std::string first = TrustIndexIO::serialize(built);
    auto loaded = TrustIndexIO::deserialize(as_span(first));
    ASSERT_TRUE(loaded.ok()) << "seed " << seed << ": " << loaded.message();
    EXPECT_EQ(first, TrustIndexIO::serialize(loaded.value()))
        << "seed " << seed;

    // Spot-check answers on the loaded copy against brute force.
    const auto& interner = built.interner();
    std::size_t checked = 0;
    for (const auto& provider : eco.database.providers()) {
      const ProviderHistory* history = eco.database.find(provider);
      for (const Date date : probe_dates(*history)) {
        for (std::uint32_t id = 0; id < interner.size(); id += 5) {
          const auto& fp = interner.digest_of(id);
          ASSERT_EQ(
              loaded.value().is_trusted(fp, provider, date, Scope::kTls),
              brute_force(eco.database, fp, provider, date, Scope::kTls))
              << "seed " << seed << " " << provider << " "
              << date.to_string();
          ++checked;
        }
      }
    }
    EXPECT_GT(checked, 1000u) << "seed " << seed;
  }
}

TEST(IndexIoFile, WriteLoadVerifyRoundTrip) {
  const auto scenario = rs::synth::build_paper_scenario();
  const TrustIndex built = build_index(scenario.database());

  const auto dir =
      std::filesystem::temp_directory_path() / "rs_index_io_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "paper.rsix").string();

  auto written = TrustIndexIO::write_file(built, path);
  ASSERT_TRUE(written.ok()) << written.error();
  EXPECT_EQ(written.value(), std::filesystem::file_size(path));

  auto loaded = TrustIndexIO::load_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  EXPECT_EQ(TrustIndexIO::serialize(loaded.value()),
            TrustIndexIO::serialize(built));

  auto stats = TrustIndexIO::verify_file(path);
  ASSERT_TRUE(stats.ok()) << stats.message();
  EXPECT_EQ(stats.value().providers, built.provider_count());
  EXPECT_EQ(stats.value().certificates, built.interner().size());
  EXPECT_EQ(stats.value().resolution_points,
            built.resolution_point_count());
  EXPECT_GT(stats.value().intervals, 0u);
  EXPECT_EQ(stats.value().bytes, written.value());

  std::filesystem::remove_all(dir);
}

// deserialize() caps provider names and version labels; write_file must
// refuse a string past either cap, naming the provider, and write nothing.
TEST(IndexIoFile, WriteRefusesStringsPastTheLoaderCaps) {
  namespace persist = rs::store::persist;
  const auto one_snapshot = [](const std::string& provider,
                               std::size_t version_bytes) {
    Snapshot s;
    s.provider = provider;
    s.date = Date::ymd(2020, 1, 1);
    s.version = std::string(version_bytes, 'v');
    ProviderHistory h(provider);
    h.add(std::move(s));
    StoreDatabase db;
    db.add(std::move(h));
    return build_index(db);
  };
  const auto dir =
      std::filesystem::temp_directory_path() / "rs_index_io_caps_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const std::string at_cap = (dir / "at_cap.rsix").string();
  auto written = TrustIndexIO::write_file(
      one_snapshot("P", persist::kMaxVersionBytes), at_cap);
  ASSERT_TRUE(written.ok()) << written.error();
  auto loaded = TrustIndexIO::load_file(at_cap);
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  const auto view =
      loaded.value().store_at("P", Date::ymd(2020, 1, 1), Scope::kPresent);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->version, std::string(persist::kMaxVersionBytes, 'v'));

  const std::string long_version = (dir / "long_version.rsix").string();
  auto refused = TrustIndexIO::write_file(
      one_snapshot("P", persist::kMaxVersionBytes + 1), long_version);
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.error().find("provider 'P'"), std::string::npos)
      << refused.error();
  EXPECT_NE(refused.error().find(std::string(persist::kMaxVersionBytes + 1,
                                             'v')),
            std::string::npos)
      << refused.error();
  EXPECT_FALSE(std::filesystem::exists(long_version));

  const std::string long_name = (dir / "long_name.rsix").string();
  const std::string name(persist::kMaxNameBytes + 1, 'N');
  auto refused_name =
      TrustIndexIO::write_file(one_snapshot(name, 1), long_name);
  ASSERT_FALSE(refused_name.ok());
  EXPECT_NE(refused_name.error().find(name), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(long_name));

  // Nothing but the one good file: no temporary was left behind.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            1);
  std::filesystem::remove_all(dir);
}

TEST(IndexIoFile, EmptyIndexRoundTrips) {
  const TrustIndex empty;
  const std::string image = TrustIndexIO::serialize(empty);
  auto loaded = TrustIndexIO::deserialize(as_span(image));
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  EXPECT_EQ(loaded.value().provider_count(), 0u);
  EXPECT_EQ(loaded.value().interner().size(), 0u);
  EXPECT_EQ(TrustIndexIO::serialize(loaded.value()), image);

  auto stats = TrustIndexIO::verify(as_span(image));
  ASSERT_TRUE(stats.ok()) << stats.message();
  EXPECT_EQ(stats.value().intervals, 0u);
}

}  // namespace
}  // namespace rs::query
