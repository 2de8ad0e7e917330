// incident_timeline: walk one CA incident across the whole ecosystem.
//
//   ./incident_timeline [incident]     (default: CNNIC)
//
// For every provider: when the incident roots entered its store, when they
// left, and the lag relative to NSS's removal — the §5.3 analysis, focused
// on a single event.
#include <cstdio>
#include <string>

#include "src/analysis/incident_response.h"
#include "src/query/trust_index.h"
#include "src/store/interner.h"
#include "src/synth/paper_scenario.h"
#include "src/util/strings.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  const std::string wanted = argc > 1 ? argv[1] : "CNNIC";
  auto scenario = rs::synth::build_paper_scenario();

  const rs::synth::Incident* incident = nullptr;
  const auto catalog = scenario.incidents();
  for (const auto& i : catalog) {
    if (rs::util::icontains(i.name, wanted)) {
      incident = &i;
      break;
    }
  }
  if (incident == nullptr) {
    std::fprintf(stderr, "no incident matching '%s'; known:", wanted.c_str());
    for (const auto& i : catalog) std::fprintf(stderr, " '%s'", i.name.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }

  std::printf("%s (Bugzilla %s, %s severity)\n%s\n", incident->name.c_str(),
              incident->bugzilla_id.c_str(),
              rs::synth::to_string(incident->severity),
              incident->details.c_str());
  std::printf("NSS removal: %s   affected roots: %zu\n\n",
              incident->nss_removal.to_string().c_str(),
              incident->root_ids.size());

  // Per-root presence runs across every provider: `added .. removed`, the
  // removal being the first snapshot without the root.
  const auto& db = scenario.database();
  const auto index = rs::query::TrustIndex::build(
      db, rs::store::CertInterner::from_database(db));
  for (const auto& id : incident->root_ids) {
    auto cert = scenario.factory().find(id);
    if (cert == nullptr) continue;
    std::printf("root %s (%s...)\n",
                std::string(cert->subject().common_name().value_or(id)).c_str(),
                cert->short_id().c_str());
    for (const auto& span :
         index.lineage(cert->sha256(), rs::query::Scope::kTls)) {
      std::printf("  %-12.*s %s .. %s\n",
                  static_cast<int>(span.provider.size()), span.provider.data(),
                  span.interval.added.to_string().c_str(),
                  span.interval.removed
                      ? span.interval.removed->to_string().c_str()
                      : "still trusted");
    }
  }

  // Aggregate lags.
  const auto measured =
      rs::analysis::measure_incident(db, *incident, scenario.factory());
  std::printf("\nResponse lags vs NSS:\n");
  rs::util::TextTable t({"Provider", "# roots", "Trusted until", "Lag (days)"});
  t.set_align(1, rs::util::Align::kRight);
  t.set_align(3, rs::util::Align::kRight);
  for (const auto& r : measured.responses) {
    t.add_row({r.provider, std::to_string(r.certs_carried),
               r.still_trusted ? "still trusted"
                               : (r.trusted_until ? r.trusted_until->to_string()
                                                  : "-"),
               r.lag_days ? std::to_string(*r.lag_days) : "-"});
  }
  std::fputs(t.render().c_str(), stdout);
  return 0;
}
