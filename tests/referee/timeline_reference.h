// The reference timeline replay: Timeline::materialize as the library ran
// it before synthesis replayed each history once (src/synth/
// program_model.cpp, TimelineCursor).  Every call filters the whole action
// stream to the actions dated <= `when`, stable-sorts them by date,
// replays them into a map keyed by root id, and orders the survivors by
// first inclusion.  Root ids are recovered as the per-snapshot derivative
// copy recovered them: by matching each entry's certificate object against
// the factory's builds of the timeline's specs.  A cursor advanced to the
// same dates must agree with it on every entry, root id and factory build
// count (tests/synth/timeline_replay_test.cpp).  Header-only, included
// from the repo root.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/store/trust.h"
#include "src/synth/program_model.h"
#include "src/synth/root_spec.h"
#include "src/util/date.h"
#include "src/x509/certificate.h"

namespace rs::referee::timeline {

/// Store state after replaying all actions dated <= `when`.  Entry order
/// is stable (insertion order of surviving roots).
inline std::vector<rs::store::TrustEntry> materialize(
    const rs::synth::Timeline& timeline, rs::util::Date when,
    rs::synth::CertFactory& factory) {
  using rs::store::TrustEntry;
  using rs::store::TrustLevel;
  using rs::store::TrustPurpose;
  using rs::synth::TrustAction;

  // Replay in date order; equal dates replay in insertion order so a
  // same-day remove-then-include behaves as written.
  std::vector<const TrustAction*> ordered;
  ordered.reserve(timeline.actions().size());
  for (const auto& a : timeline.actions()) {
    if (a.date <= when) ordered.push_back(&a);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TrustAction* a, const TrustAction* b) {
                     return a->date < b->date;
                   });

  struct State {
    TrustEntry entry;
    std::size_t order;  // first-inclusion order for stable output
  };
  std::map<std::string, State> state;
  std::size_t next_order = 0;

  for (const TrustAction* a : ordered) {
    switch (a->kind) {
      case TrustAction::Kind::kInclude: {
        TrustEntry entry;
        entry.certificate = factory.get(timeline.spec(a->root_id));
        for (TrustPurpose p : a->purposes) {
          entry.trust_for(p).level = TrustLevel::kTrustedDelegator;
        }
        const auto it = state.find(a->root_id);
        if (it == state.end()) {
          state.emplace(a->root_id, State{std::move(entry), next_order++});
        } else {
          it->second.entry = std::move(entry);  // re-include resets trust
        }
        break;
      }
      case TrustAction::Kind::kRemove:
        state.erase(a->root_id);
        break;
      case TrustAction::Kind::kSetServerDistrustAfter: {
        const auto it = state.find(a->root_id);
        if (it != state.end()) {
          it->second.entry.trust_for(TrustPurpose::kServerAuth).distrust_after =
              a->cutoff;
        }
        break;
      }
      case TrustAction::Kind::kDistrustPurposes: {
        const auto it = state.find(a->root_id);
        if (it != state.end()) {
          for (TrustPurpose p : a->purposes) {
            it->second.entry.trust_for(p).level = TrustLevel::kDistrusted;
          }
        }
        break;
      }
    }
  }

  std::vector<const State*> by_order;
  by_order.reserve(state.size());
  for (const auto& [_, s] : state) by_order.push_back(&s);
  std::sort(by_order.begin(), by_order.end(),
            [](const State* a, const State* b) { return a->order < b->order; });

  std::vector<TrustEntry> out;
  out.reserve(by_order.size());
  for (const State* s : by_order) out.push_back(s->entry);
  return out;
}

/// The root id of each of `entries` (materialized from `timeline` with
/// `factory`), or "" for a certificate no spec of the timeline built.
inline std::vector<std::string> root_ids(
    const std::vector<rs::store::TrustEntry>& entries,
    const rs::synth::Timeline& timeline,
    const rs::synth::CertFactory& factory) {
  std::map<const rs::x509::Certificate*, std::string> cert_to_id;
  for (const auto& [id, spec] : timeline.specs()) {
    (void)spec;
    if (auto cert = factory.find(id)) cert_to_id[cert.get()] = id;
  }
  std::vector<std::string> ids;
  ids.reserve(entries.size());
  for (const auto& e : entries) {
    const auto it = cert_to_id.find(e.certificate.get());
    ids.push_back(it == cert_to_id.end() ? std::string{} : it->second);
  }
  return ids;
}

}  // namespace rs::referee::timeline
