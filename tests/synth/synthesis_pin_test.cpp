// Pins what synthesis produces, byte for byte.
//
// One SHA-256 covers every snapshot of a synthesized database (provider,
// date, version, and each entry's certificate digest, per-purpose level
// and distrust_after) plus the number of certificates the run's
// CertFactory built.  The constants were recorded from the per-snapshot
// replay that the forward cursor replaced; any change to how histories
// are replayed, ordered or versioned moves them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/crypto/sha256.h"
#include "src/synth/paper_scenario.h"
#include "src/synth/simulator.h"
#include "src/util/hex.h"

namespace rs::synth {
namespace {

class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    if (n == 0) return;
    hasher_.update({static_cast<const std::uint8_t*>(data), n});
  }
  void u64(std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    bytes(b, sizeof b);
  }
  void text(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::string hex() { return rs::util::hex_encode(hasher_.finish()); }

 private:
  rs::crypto::Sha256 hasher_;
};

std::string synthesis_digest(const rs::store::StoreDatabase& db,
                             std::size_t certificates_built) {
  Digest d;
  for (const auto& [provider, history] : db.histories()) {
    d.text(provider);
    d.u64(history.size());
    for (const auto& snap : history.snapshots()) {
      d.text(snap.provider);
      d.u64(static_cast<std::uint64_t>(snap.date.days_since_epoch()));
      d.text(snap.version);
      d.u64(snap.entries.size());
      for (const auto& entry : snap.entries) {
        const auto& fp = entry.certificate->sha256();
        d.bytes(fp.data(), fp.size());
        for (const auto& trust : entry.purposes) {
          d.u64(static_cast<std::uint64_t>(trust.level));
          d.u64(trust.distrust_after.has_value() ? 1 : 0);
          if (trust.distrust_after) {
            d.u64(static_cast<std::uint64_t>(
                trust.distrust_after->days_since_epoch()));
          }
        }
      }
    }
  }
  d.u64(certificates_built);
  return d.hex();
}

TEST(SynthesisPin, PaperScenarioDigestIsUnchanged) {
  auto scenario = build_paper_scenario(kPaperSeed);
  EXPECT_EQ(scenario.database().total_snapshots(), 670u);
  EXPECT_EQ(synthesis_digest(scenario.database(),
                             scenario.factory().built_count()),
            "2281a93df5ee40ae730f3c7eef85d1a86014c325c2e8e914f6f9abb6a766558d");
}

TEST(SynthesisPin, SimulatorDigestIsUnchanged) {
  // perfbench's sim_index point.
  SimulatorConfig bench;
  bench.seed = 1;
  bench.ca_count = 600;
  bench.program_count = 6;
  bench.derivative_count = 6;
  bench.snapshot_interval_days = 30;
  bench.ct_log_count = 2;
  const auto at_bench = simulate_ecosystem(bench);
  EXPECT_EQ(synthesis_digest(at_bench.database,
                             at_bench.factory->built_count()),
            "c89fb388c932394171623b5f560a873bc8f236f99ef6b98cefc3993ce4c015f3");

  const auto at_default = simulate_ecosystem(SimulatorConfig{});
  EXPECT_EQ(synthesis_digest(at_default.database,
                             at_default.factory->built_count()),
            "29fc80046e8c2a4826f6dab1c3a698cd22d3e12415f80cd0817b360e5d1acdd9");
}

}  // namespace
}  // namespace rs::synth
