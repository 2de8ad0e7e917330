// Policy-driven stochastic ecosystem simulator.
//
// Where the paper scenario encodes published ground truth, the simulator
// generates *families* of plausible ecosystems from a seed: a CA pool, a
// configurable number of independent root programs with random management
// policies, derivative providers copying program 0, and random
// high-severity incidents.  Property tests use it to check that the
// analyses hold invariants on any input, and the perf benches use it to
// scale the pipeline far beyond the paper's 619 snapshots.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/store/database.h"
#include "src/synth/derivatives.h"
#include "src/synth/program_model.h"
#include "src/util/date.h"

namespace rs::synth {

/// Tunable knobs for one simulated ecosystem.
struct SimulatorConfig {
  std::uint64_t seed = 1;
  int ca_count = 120;
  int program_count = 3;     // independent programs ("Prog0", "Prog1", ...)
  int derivative_count = 3;  // derivatives of Prog0 ("Deriv0", ...)
  rs::util::Date start = rs::util::Date::ymd(2000, 1, 1);
  rs::util::Date end = rs::util::Date::ymd(2021, 1, 1);
  /// Expected number of incident-driven removals across the whole run.
  int incident_count = 6;
  /// Snapshot cadence for programs (days).
  int snapshot_interval_days = 60;
  /// Derivative copy-lag bounds (days).
  int min_lag_days = 30;
  int max_lag_days = 600;
  /// CT logs accepting roots from the whole ecosystem ("CtLog0", ...),
  /// generated after programs and derivatives (see synth/ct_log.h).  The
  /// default 0 keeps pre-existing simulations byte-identical.
  int ct_log_count = 0;
  /// Log acceptance-lag bounds (days after first browser adoption).
  int ct_min_lag_days = 30;
  int ct_max_lag_days = 365;
};

/// One simulated incident: a root every program trusted, removed by
/// program 0 at `removal` and by others within `max_extra_lag_days`.
struct SimIncident {
  std::string root_id;
  rs::util::Date removal;
};

/// The program timelines of a simulation run, before any replay: the CA
/// pool under each program's random policy, plus the incidents' removals.
struct SimulatedPrograms {
  std::vector<Timeline> timelines;  // "Prog0", "Prog1", ... in order
  std::vector<SimIncident> incidents;
};

/// Output of a simulation run.
struct SimulatedEcosystem {
  rs::store::StoreDatabase database;
  /// The factory that built every certificate in `database`; find() looks
  /// one up by root id (an incident's, say).
  std::shared_ptr<const CertFactory> factory;
  std::vector<SimIncident> incidents;
  /// Name of the program that derivatives copy ("Prog0").
  std::string base_program;
  std::vector<std::string> derivative_names;
  std::vector<std::string> ct_log_names;
};

/// The timelines simulate_ecosystem replays.  Deterministic in
/// `config.seed`.
SimulatedPrograms simulate_programs(const SimulatorConfig& config);

/// Runs the simulation.  Deterministic in `config.seed`.
SimulatedEcosystem simulate_ecosystem(const SimulatorConfig& config);

}  // namespace rs::synth
