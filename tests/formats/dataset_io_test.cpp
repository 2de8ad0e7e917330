#include "src/formats/dataset_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "src/formats/portable.h"
#include "src/obs/clock.h"
#include "src/obs/registry.h"
#include "src/store/interner.h"
#include "src/synth/paper_scenario.h"
#include "src/synth/simulator.h"
#include "src/x509/builder.h"
#include "tests/referee/fingerprint_set.h"

namespace rs::formats {
namespace {

namespace fs = std::filesystem;
using rs::store::ProviderHistory;
using rs::store::Snapshot;
using rs::store::StoreDatabase;
using rs::util::Date;

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest schedules each discovered test as its own
    // process, so a shared directory races under `ctest -j`.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("rs_dataset_test_") + info->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

StoreDatabase small_db() {
  auto cert = [](std::uint64_t seed) {
    rs::x509::Name n;
    n.add_common_name("Dataset Root " + std::to_string(seed));
    return std::make_shared<const rs::x509::Certificate>(
        rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
  };
  StoreDatabase db;
  ProviderHistory a("ProvA");
  {
    Snapshot s;
    s.provider = "ProvA";
    s.date = Date::ymd(2020, 1, 1);
    s.version = "v1";
    auto entry = rs::store::make_tls_anchor(cert(1));
    entry.trust_for(rs::store::TrustPurpose::kServerAuth).distrust_after =
        Date::ymd(2021, 1, 1);
    s.entries = {entry};
    a.add(std::move(s));
  }
  {
    Snapshot s;
    s.provider = "ProvA";
    s.date = Date::ymd(2020, 6, 1);
    s.version = "v2";
    s.entries = {rs::store::make_tls_anchor(cert(1)),
                 rs::store::make_tls_anchor(cert(2))};
    a.add(std::move(s));
  }
  db.add(std::move(a));
  ProviderHistory b("ProvB");
  {
    Snapshot s;
    s.provider = "ProvB";
    s.date = Date::ymd(2020, 3, 1);
    s.version = "r7";
    s.entries = {rs::store::make_anchor_for(
        cert(3), {rs::store::TrustPurpose::kEmailProtection})};
    b.add(std::move(s));
  }
  db.add(std::move(b));
  return db;
}

TEST_F(DatasetIoTest, RoundTripPreservesEverything) {
  const StoreDatabase original = small_db();
  auto written = write_dataset(original, dir_.string());
  ASSERT_TRUE(written.ok()) << written.error();
  ASSERT_TRUE(fs::exists(dir_ / "MANIFEST"));

  auto loaded = load_dataset(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  const auto& db = loaded.value();
  EXPECT_EQ(db.provider_count(), 2u);
  EXPECT_EQ(db.total_snapshots(), 3u);

  const auto* a = db.find("ProvA");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), 2u);
  EXPECT_EQ(a->snapshots()[0].version, "v1");
  EXPECT_EQ(a->snapshots()[0].date, Date::ymd(2020, 1, 1));
  // Trust fidelity through RSTS: the cutoff survives.
  ASSERT_EQ(a->snapshots()[0].entries.size(), 1u);
  EXPECT_EQ(a->snapshots()[0]
                .entries[0]
                .trust_for(rs::store::TrustPurpose::kServerAuth)
                .distrust_after,
            Date::ymd(2021, 1, 1));
  // Certificates byte-identical.
  const auto* orig_a = original.find("ProvA");
  EXPECT_EQ(a->snapshots()[1].entries[1].certificate->der(),
            orig_a->snapshots()[1].entries[1].certificate->der());

  const auto* b = db.find("ProvB");
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(b->snapshots()[0].entries[0].is_tls_anchor());
}

TEST_F(DatasetIoTest, SameDaySnapshotsGetDistinctFiles) {
  StoreDatabase db = small_db();
  ProviderHistory dup("Dup");
  for (int i = 0; i < 3; ++i) {
    Snapshot s;
    s.provider = "Dup";
    s.date = Date::ymd(2020, 5, 5);
    s.version = "v" + std::to_string(i);
    dup.add(std::move(s));
  }
  db.add(std::move(dup));
  ASSERT_TRUE(write_dataset(db, dir_.string()).ok());
  auto loaded = load_dataset(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value().find("Dup")->size(), 3u);
}

TEST_F(DatasetIoTest, MissingManifestFails) {
  fs::create_directories(dir_);
  auto loaded = load_dataset(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().find("MANIFEST"), std::string::npos);
}

TEST_F(DatasetIoTest, BadHeaderFails) {
  fs::create_directories(dir_);
  std::ofstream(dir_ / "MANIFEST") << "WRONG 9\n";
  EXPECT_FALSE(load_dataset(dir_.string()).ok());
}

TEST_F(DatasetIoTest, MissingSnapshotFileFails) {
  ASSERT_TRUE(write_dataset(small_db(), dir_.string()).ok());
  // Delete one referenced file.
  fs::remove(dir_ / "ProvB" / "2020-03-01.rsts");
  auto loaded = load_dataset(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().find("missing snapshot"), std::string::npos);
}

TEST_F(DatasetIoTest, CorruptSnapshotFails) {
  ASSERT_TRUE(write_dataset(small_db(), dir_.string()).ok());
  std::ofstream(dir_ / "ProvB" / "2020-03-01.rsts") << "RSTS 1\nroot\n";
  EXPECT_FALSE(load_dataset(dir_.string()).ok());
}

TEST_F(DatasetIoTest, SnapshotPathNamingADirectoryIsATypedError) {
  // A MANIFEST is untrusted input: a path field naming a directory (the
  // dataset root, or a provider's folder) opens but cannot be read.
  ASSERT_TRUE(write_dataset(small_db(), dir_.string()).ok());
  for (const std::string rel : {".", "ProvA"}) {
    std::ofstream(dir_ / "MANIFEST", std::ios::trunc)
        << "RSDS 1\nProvA\t2020-01-01\tv1\t" << rel << "\n";
    auto loaded = load_dataset(dir_.string());
    ASSERT_FALSE(loaded.ok()) << rel;
    EXPECT_EQ(loaded.error(), "dataset: cannot read snapshot file " +
                                  (dir_ / rel).string());
  }
}

// The same fixture; its suite names the loader rather than the fixture.
class DatasetIo : public DatasetIoTest {};

TEST_F(DatasetIo, ManifestPathsStayInsideTheDirectory) {
  // A MANIFEST is untrusted input: its path field must not reach a file
  // outside the dataset directory, whether the file parses or not.
  ASSERT_TRUE(write_dataset(small_db(), dir_.string()).ok());
  const fs::path outside = dir_.string() + "_outside";
  fs::create_directories(outside);
  fs::copy_file(dir_ / "ProvB" / "2020-03-01.rsts", outside / "victim.rsts",
                fs::copy_options::overwrite_existing);
  const std::string escape =
      "../" + outside.filename().string() + "/victim.rsts";
  for (const std::string& rel :
       {(outside / "victim.rsts").string(), escape, "ProvA/../" + escape,
       std::string("/etc/hostname"), std::string("ProvA/..")}) {
    std::ofstream(dir_ / "MANIFEST", std::ios::trunc)
        << "RSDS 1\n# comment\nProvB\t2020-03-01\tr7\t" << rel << "\n";
    auto loaded = load_dataset(dir_.string());
    ASSERT_FALSE(loaded.ok()) << rel;
    EXPECT_EQ(loaded.error(),
              "dataset: MANIFEST line 3: snapshot path must be relative and "
              "stay inside " + dir_.string())
        << rel;
  }
  // Paths that stay inside still load, `.` components included.
  for (const std::string rel :
       {"ProvB/2020-03-01.rsts", "./ProvB/2020-03-01.rsts",
        "ProvB/./2020-03-01.rsts"}) {
    std::ofstream(dir_ / "MANIFEST", std::ios::trunc)
        << "RSDS 1\nProvB\t2020-03-01\tr7\t" << rel << "\n";
    auto loaded = load_dataset(dir_.string());
    ASSERT_TRUE(loaded.ok()) << rel << ": " << loaded.error();
    EXPECT_EQ(loaded.value().total_snapshots(), 1u);
  }
  fs::remove_all(outside);
}

TEST_F(DatasetIo, WriteRefusesNamesThatCannotRoundTrip) {
  const auto one_snapshot = [](const std::string& provider,
                               const std::string& version) {
    Snapshot s;
    s.provider = provider;
    s.date = Date::ymd(2020, 1, 1);
    s.version = version;
    s.entries = small_db().find("ProvB")->snapshots()[0].entries;
    ProviderHistory history(provider);
    history.add(std::move(s));
    StoreDatabase db;
    db.add(std::move(history));
    return db;
  };
  const fs::path outside = dir_.string() + "_escaped";
  fs::remove_all(outside);
  const std::string refused_providers[] = {
      "../" + outside.filename().string(),  // would write beside the dataset
      outside.string(),                     // absolute: would replace dir
      "", ".", "..", "MANIFEST", "a/b",
      "Tab\tName", "New\nline", "CR\r", std::string("N\0L", 3),
      "#comment",  // the loader skips it
      " leading space",  // the loader trims it
  };
  for (const std::string& provider : refused_providers) {
    auto written = write_dataset(one_snapshot(provider, "v1"), dir_.string());
    ASSERT_FALSE(written.ok()) << provider;
    EXPECT_EQ(written.error().rfind("dataset: provider \"", 0), 0u)
        << written.error();
    EXPECT_FALSE(fs::exists(dir_)) << provider;
    EXPECT_FALSE(fs::exists(outside)) << provider;
  }
  const std::pair<std::string, std::string> refused_versions[] = {
      {"v\t1", "v\\x091"}, {"v\n1", "v\\x0a1"}, {"v1\r", "v1\\x0d"}};
  for (const auto& [version, spelled] : refused_versions) {
    auto written = write_dataset(one_snapshot("ProvA", version), dir_.string());
    ASSERT_FALSE(written.ok()) << spelled;
    EXPECT_EQ(written.error(), "dataset: version \"" + spelled +
                                   "\" of provider \"ProvA\" holds a "
                                   "control character");
    EXPECT_FALSE(fs::exists(dir_)) << spelled;
  }
  // Awkward but readable names still round-trip.
  const std::pair<std::string, std::string> kept[] = {
      {"Ubuntu 20.04", "20.04 LTS"},
      {"ca-certs (2021)", "# not a comment"},
      {"trailing space ", " v1 "},
      {"NSS#3", ""},
  };
  for (const auto& [provider, version] : kept) {
    fs::remove_all(dir_);
    auto written = write_dataset(one_snapshot(provider, version), dir_.string());
    ASSERT_TRUE(written.ok()) << provider << ": " << written.error();
    auto loaded = load_dataset(dir_.string());
    ASSERT_TRUE(loaded.ok()) << provider << ": " << loaded.error();
    const auto* history = loaded.value().find(provider);
    ASSERT_NE(history, nullptr) << provider;
    ASSERT_EQ(history->size(), 1u);
    EXPECT_EQ(history->snapshots()[0].version, version) << provider;
    EXPECT_EQ(history->snapshots()[0].entries.size(), 1u) << provider;
  }
  fs::remove_all(outside);
}

TEST_F(DatasetIoTest, ManifestThatIsADirectoryIsATypedError) {
  fs::create_directories(dir_ / "MANIFEST");
  auto loaded = load_dataset(dir_.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error(),
            "dataset: cannot read MANIFEST in " + dir_.string());
}

TEST_F(DatasetIoTest, SimulatedEcosystemRoundTrips) {
  rs::synth::SimulatorConfig cfg;
  cfg.seed = 77;
  cfg.ca_count = 30;
  cfg.program_count = 1;
  cfg.derivative_count = 1;
  cfg.snapshot_interval_days = 365;
  const auto eco = rs::synth::simulate_ecosystem(cfg);
  ASSERT_TRUE(write_dataset(eco.database, dir_.string()).ok());
  auto loaded = load_dataset(dir_.string());
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  EXPECT_EQ(loaded.value().total_snapshots(), eco.database.total_snapshots());
  // Spot-check a fingerprint set.
  const auto* orig = eco.database.find("Prog0");
  const auto* back = loaded.value().find("Prog0");
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(rs::referee::all_fingerprints(orig->back()),
            rs::referee::all_fingerprints(back->back()));
}

// --- the paper dataset through one pool ------------------------------------

class PaperDatasetTest : public DatasetIoTest {
 protected:
  void SetUp() override {
    DatasetIoTest::SetUp();
    auto written = write_dataset(scenario_.database(), dir_.string());
    ASSERT_TRUE(written.ok()) << written.error();
  }
  const rs::synth::PaperScenario scenario_ = rs::synth::build_paper_scenario();
};

TEST_F(PaperDatasetTest, LoadDecodesEachDistinctCertificateOnce) {
  auto& reg = rs::obs::Registry::global();
  rs::obs::FakeClock clock;
  reg.reset();
  reg.enable(&clock);
  auto loaded = load_dataset(dir_.string());
  reg.disable();
  ASSERT_TRUE(loaded.ok()) << loaded.error();

  std::size_t entries = 0;
  std::set<const rs::x509::Certificate*> objects;
  for (const auto& [name, history] : loaded.value().histories()) {
    (void)name;
    for (const auto& snap : history.snapshots()) {
      for (const auto& entry : snap.entries) {
        objects.insert(entry.certificate.get());
        ++entries;
      }
    }
  }
  const std::size_t distinct =
      rs::store::CertInterner::from_database(scenario_.database()).size();
  EXPECT_EQ(entries, 99087u);
  EXPECT_EQ(distinct, 456u);
  EXPECT_EQ(objects.size(), distinct);
  EXPECT_EQ(reg.counter("formats.certs_decoded").value(), distinct);
  EXPECT_EQ(reg.counter("formats.cert_pool_hits").value(), entries - distinct);
  reg.reset();
}

TEST_F(PaperDatasetTest, WarmSharedPoolParsesEveryFileLikeAFreshOne) {
  std::ifstream manifest(dir_ / "MANIFEST");
  std::string line;
  std::getline(manifest, line);  // header
  CertPool shared;
  std::size_t files = 0;
  while (std::getline(manifest, line)) {
    const std::string rel = line.substr(line.rfind('\t') + 1);
    std::ifstream in(dir_ / rel, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const auto fresh = parse_rsts(text);
    const auto warm = parse_rsts(text, shared);
    ASSERT_TRUE(fresh.ok()) << rel << ": " << fresh.error();
    ASSERT_TRUE(warm.ok()) << rel << ": " << warm.error();
    EXPECT_EQ(warm.value().warnings, fresh.value().warnings) << rel;
    const auto& a = fresh.value().entries;
    const auto& b = warm.value().entries;
    ASSERT_EQ(a.size(), b.size()) << rel;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(b[i].certificate->der(), a[i].certificate->der()) << rel;
      EXPECT_EQ(b[i].purposes, a[i].purposes) << rel;
    }
    ++files;
  }
  EXPECT_EQ(files, scenario_.database().total_snapshots());
  EXPECT_EQ(shared.size(), 456u);
}

}  // namespace
}  // namespace rs::formats
