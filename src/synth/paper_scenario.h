// The curated scenario: a deterministic reconstruction of the paper's
// ten-provider dataset.
//
// Every published fact the evaluation depends on is encoded as timeline
// data: Table 2's provider ranges, Table 3's purge dates, Table 4/7's
// incident responses, Table 6's exclusive roots, and §6's derivative
// customizations.  The certificates themselves are synthesized (real DER
// via rs::x509::CertificateBuilder) and flow through the real format
// writers/parsers in the round-trip tests and benches.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/store/database.h"
#include "src/store/overlay.h"
#include "src/synth/derivatives.h"
#include "src/synth/incidents.h"
#include "src/synth/program_model.h"
#include "src/synth/root_spec.h"

namespace rs::synth {

/// Default seed — the paper's publication date.
inline constexpr std::uint64_t kPaperSeed = 20211102;

/// A Table 6 reference row for one program-exclusive root.
struct ExclusiveRootMeta {
  std::string root_id;
  std::string program;    // the only program TLS-trusting it
  std::string ca_name;
  std::string nss_status; // "Denied", "Pending", "Accepted", "-", ...
  std::string details;
};

/// The fully materialized scenario.
class PaperScenario {
 public:
  PaperScenario(std::shared_ptr<CertFactory> factory,
                rs::store::StoreDatabase db,
                std::map<std::string, Timeline> timelines,
                std::map<std::string, RootSpec> extra_specs,
                std::vector<ExclusiveRootMeta> exclusives,
                std::map<std::string, rs::store::TrustOverlay> overlays = {})
      : factory_(std::move(factory)),
        db_(std::move(db)),
        timelines_(std::move(timelines)),
        extra_specs_(std::move(extra_specs)),
        exclusives_(std::move(exclusives)),
        overlays_(std::move(overlays)) {}

  const rs::store::StoreDatabase& database() const noexcept { return db_; }
  CertFactory& factory() noexcept { return *factory_; }

  /// Swaps in a database materialized elsewhere — e.g. one reloaded from a
  /// write_dataset() directory through the real format decoders, which is
  /// full-fidelity (RSTS), so analyses over the replacement produce the
  /// same bytes.  The caller owns that equivalence claim.
  void replace_database(rs::store::StoreDatabase db) { db_ = std::move(db); }

  /// Timelines for the four independent programs ("NSS", "Apple",
  /// "Microsoft", "Java").
  const Timeline& timeline(const std::string& program) const {
    return timelines_.at(program);
  }

  /// Root blueprints that exist only in derivatives (Debian-local CAs, ...).
  const std::map<std::string, RootSpec>& extra_specs() const noexcept {
    return extra_specs_;
  }

  const std::vector<ExclusiveRootMeta>& exclusive_roots() const noexcept {
    return exclusives_;
  }

  /// The incident catalog (same data as synth::incident_catalog()).
  std::vector<Incident> incidents() const { return incident_catalog(); }

  /// Out-of-band revocation overlays per provider (valid.apple.com analog).
  const std::map<std::string, rs::store::TrustOverlay>& overlays() const {
    return overlays_;
  }

 private:
  std::shared_ptr<CertFactory> factory_;
  rs::store::StoreDatabase db_;
  std::map<std::string, Timeline> timelines_;
  std::map<std::string, RootSpec> extra_specs_;
  std::vector<ExclusiveRootMeta> exclusives_;
  std::map<std::string, rs::store::TrustOverlay> overlays_;
};

/// Builds the scenario.  Deterministic: equal seeds give byte-identical
/// databases.  The default seed reproduces the repository's committed
/// EXPERIMENTS.md numbers.
PaperScenario build_paper_scenario(std::uint64_t seed = kPaperSeed);

}  // namespace rs::synth
