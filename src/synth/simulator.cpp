#include "src/synth/simulator.h"

#include <algorithm>
#include <memory>

#include "src/crypto/prng.h"
#include "src/obs/span.h"
#include "src/synth/ct_log.h"

namespace rs::synth {

using rs::store::TrustPurpose;
using rs::util::Date;
using rs::x509::SignatureScheme;

namespace {

RootSpec random_spec(rs::crypto::Prng& rng, int index, Date start, Date end) {
  RootSpec s;
  s.id = "sim-ca-" + std::to_string(index);
  s.common_name = "Simulated Root CA " + std::to_string(index);
  s.organization = "Sim CA " + std::to_string(index % 37);
  const std::int64_t span = end - start;
  s.not_before = start + static_cast<std::int64_t>(
                             rng.uniform(static_cast<std::uint64_t>(
                                 std::max<std::int64_t>(1, span * 3 / 4))));
  s.not_after = s.not_before.add_months(12 * (10 + static_cast<int>(rng.uniform(16))));
  const int year = s.not_before.year();
  if (year < 2004) {
    s.scheme = rng.chance(0.4) ? SignatureScheme::kMd5Rsa
                               : SignatureScheme::kSha1Rsa;
    s.rsa_bits = rng.chance(0.5) ? 1024 : 2048;
  } else if (year < 2012) {
    s.scheme = SignatureScheme::kSha1Rsa;
    s.rsa_bits = 2048;
  } else {
    s.scheme = rng.chance(0.2) ? SignatureScheme::kEcdsaSha256
                               : SignatureScheme::kSha256Rsa;
    s.rsa_bits = rng.chance(0.3) ? 4096 : 2048;
  }
  return s;
}

std::vector<TrustPurpose> random_purposes(rs::crypto::Prng& rng) {
  const double roll = rng.uniform01();
  if (roll < 0.7) {
    return {TrustPurpose::kServerAuth, TrustPurpose::kEmailProtection};
  }
  if (roll < 0.9) return {TrustPurpose::kServerAuth};
  return {TrustPurpose::kEmailProtection};
}

}  // namespace

SimulatedPrograms simulate_programs(const SimulatorConfig& config) {
  SimulatedPrograms out;
  rs::crypto::Prng rng =
      rs::crypto::Prng::from_label(config.seed, "simulator");

  // CA pool.
  std::vector<RootSpec> pool;
  pool.reserve(static_cast<std::size_t>(config.ca_count));
  for (int i = 0; i < config.ca_count; ++i) {
    pool.push_back(random_spec(rng, i, config.start, config.end));
  }

  // Independent programs with random policies.
  std::vector<Timeline>& timelines = out.timelines;
  timelines.resize(static_cast<std::size_t>(std::max(1, config.program_count)));
  for (std::size_t p = 0; p < timelines.size(); ++p) {
    Timeline& t = timelines[p];
    rs::crypto::Prng prng = rs::crypto::Prng::from_label(
        config.seed, "program-" + std::to_string(p));
    const int delay_base = 30 + static_cast<int>(prng.uniform(300));
    const int retention = 30 + static_cast<int>(prng.uniform(1200));
    const double adoption = 0.6 + prng.uniform01() * 0.4;
    for (const auto& s : pool) {
      if (!prng.chance(adoption)) continue;
      t.add_spec(s);
      Date include = s.not_before + delay_base +
                     static_cast<std::int64_t>(prng.uniform(200));
      if (include < config.start) include = config.start;
      if (include >= s.not_after - 30 || include > config.end) continue;
      t.include(include, s.id, random_purposes(prng));
      t.remove(s.not_after + retention, s.id);
    }
  }

  // Incidents: roots trusted by program 0, removed mid-history.
  {
    const auto& base = timelines[0];
    std::vector<std::string> candidates;
    for (const auto& [id, spec] : base.specs()) {
      if (spec.not_after > config.end) candidates.push_back(id);
    }
    rng.shuffle(candidates);
    const int n = std::min<int>(config.incident_count,
                                static_cast<int>(candidates.size()));
    for (int i = 0; i < n; ++i) {
      const std::string& id = candidates[static_cast<std::size_t>(i)];
      const std::int64_t span = (config.end - config.start) / 2;
      const Date removal =
          config.start + span +
          static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(span)));
      for (std::size_t p = 0; p < timelines.size(); ++p) {
        if (!timelines[p].has_spec(id)) continue;
        const std::int64_t extra =
            p == 0 ? 0 : static_cast<std::int64_t>(rng.uniform(400));
        timelines[p].remove(removal + extra, id);
      }
      out.incidents.push_back(SimIncident{id, removal});
    }
  }
  return out;
}

SimulatedEcosystem simulate_ecosystem(const SimulatorConfig& config) {
  rs::obs::Span stage("synth/simulate");
  SimulatedEcosystem out;
  auto factory = std::make_shared<CertFactory>(config.seed);
  out.factory = factory;
  SimulatedPrograms programs = simulate_programs(config);
  const std::vector<Timeline>& timelines = programs.timelines;
  out.incidents = std::move(programs.incidents);

  // Materialize programs.
  for (std::size_t p = 0; p < timelines.size(); ++p) {
    const std::string name = "Prog" + std::to_string(p);
    rs::store::ProviderHistory history(name);
    int version = 0;
    TimelineCursor replay(timelines[p], *factory);
    Date d = config.start;
    while (d <= config.end) {
      replay.advance_to(d);
      rs::store::Snapshot snap;
      snap.provider = name;
      snap.date = d;
      snap.version = "v" + std::to_string(++version);
      snap.entries = replay.entries();
      history.add(std::move(snap));
      d = d + config.snapshot_interval_days;
    }
    out.database.add(std::move(history));
  }
  out.base_program = "Prog0";

  // Derivatives of program 0.
  const std::map<std::string, RootSpec> no_extra;
  for (int i = 0; i < config.derivative_count; ++i) {
    DerivativePolicy policy;
    policy.name = "Deriv" + std::to_string(i);
    rs::crypto::Prng drng =
        rs::crypto::Prng::from_label(config.seed, policy.name);
    policy.lag_days = config.min_lag_days +
                      static_cast<int>(drng.uniform(static_cast<std::uint64_t>(
                          std::max(1, config.max_lag_days - config.min_lag_days))));
    policy.lag_jitter_days = static_cast<int>(drng.uniform(30));
    if (drng.chance(0.5)) {
      const std::int64_t span = config.end - config.start;
      policy.email_conflation_until =
          config.start + span / 2 +
          static_cast<std::int64_t>(drng.uniform(static_cast<std::uint64_t>(span / 2)));
    }
    Date d = config.start + static_cast<std::int64_t>(drng.uniform(1000));
    while (d <= config.end) {
      policy.snapshot_dates.push_back(d);
      d = d + config.snapshot_interval_days +
          static_cast<std::int64_t>(drng.uniform(60));
    }
    out.derivative_names.push_back(policy.name);
    out.database.add(
        generate_derivative(policy, timelines[0], *factory, no_extra));
  }

  // CT logs, generated over the finished store ecosystem (programs plus
  // derivatives).  Labeled Prng streams keep every draw independent of the
  // simulation above, so ct_log_count == 0 reproduces pre-log ecosystems
  // byte for byte.
  std::vector<CtLogPolicy> policies;
  for (int i = 0; i < config.ct_log_count; ++i) {
    CtLogPolicy policy;
    policy.name = "CtLog" + std::to_string(i);
    policy.seed = config.seed;
    rs::crypto::Prng lrng =
        rs::crypto::Prng::from_label(config.seed, "ct-policy-" + policy.name);
    const int lag_span =
        std::max(1, config.ct_max_lag_days - config.ct_min_lag_days);
    policy.accept_lag_days =
        config.ct_min_lag_days +
        static_cast<int>(lrng.uniform(static_cast<std::uint64_t>(lag_span)));
    policy.lag_jitter_days = 30 + static_cast<int>(lrng.uniform(90));
    policy.accept_prob = 0.85 + lrng.uniform01() * 0.15;
    policy.extra_accept_prob = lrng.uniform01() * 0.4;
    policy.retire_prob = lrng.uniform01() * 0.2;
    policy.snapshot_interval_days = config.snapshot_interval_days;
    policy.start = config.start;
    policy.end = config.end;
    out.ct_log_names.push_back(policy.name);
    policies.push_back(std::move(policy));
  }
  // Generate before adding so every log reads the same pre-log store
  // ecosystem (logs do not accept each other's lists).
  for (auto& log : generate_ct_logs(policies, out.database)) {
    out.database.add(std::move(log));
  }
  stage.set_items(out.database.total_snapshots());
  return out;
}

}  // namespace rs::synth
