#include "src/synth/program_model.h"

#include <algorithm>
#include <cassert>

namespace rs::synth {

using rs::store::TrustEntry;
using rs::store::TrustLevel;
using rs::store::TrustPurpose;
using rs::util::Date;

void Timeline::add_spec(RootSpec spec) {
  const std::string id = spec.id;
  assert(!id.empty());
  const auto [it, inserted] = specs_.emplace(id, std::move(spec));
  (void)it;
  (void)inserted;  // re-registering an identical spec is harmless
}

bool Timeline::has_spec(const std::string& id) const {
  return specs_.contains(id);
}

const RootSpec& Timeline::spec(const std::string& id) const {
  const auto it = specs_.find(id);
  assert(it != specs_.end() && "action references unregistered spec");
  return it->second;
}

void Timeline::include(Date d, const std::string& root_id,
                       std::vector<TrustPurpose> purposes) {
  actions_.push_back(
      {d, root_id, TrustAction::Kind::kInclude, std::move(purposes), {}});
}

void Timeline::remove(Date d, const std::string& root_id) {
  actions_.push_back({d, root_id, TrustAction::Kind::kRemove, {}, {}});
}

void Timeline::set_server_distrust_after(Date d, const std::string& root_id,
                                         Date cutoff) {
  actions_.push_back(
      {d, root_id, TrustAction::Kind::kSetServerDistrustAfter, {}, cutoff});
}

void Timeline::distrust(Date d, const std::string& root_id,
                        std::vector<TrustPurpose> purposes) {
  actions_.push_back(
      {d, root_id, TrustAction::Kind::kDistrustPurposes, std::move(purposes), {}});
}

TimelineCursor::TimelineCursor(const Timeline& timeline, CertFactory& factory)
    : timeline_(timeline), factory_(factory) {
  actions_.reserve(timeline.actions().size());
  for (const auto& a : timeline.actions()) actions_.push_back(&a);
  std::stable_sort(actions_.begin(), actions_.end(),
                   [](const TrustAction* a, const TrustAction* b) {
                     return a->date < b->date;
                   });
}

void TimelineCursor::advance_to(Date when) {
  assert((applied_ == 0 || actions_[applied_ - 1]->date <= when) &&
         "a cursor cannot move back past an applied action");
  for (; applied_ < actions_.size() && actions_[applied_]->date <= when;
       ++applied_) {
    const TrustAction& a = *actions_[applied_];
    const auto live = live_.find(a.root_id);
    Slot* slot = live == live_.end() ? nullptr : &slots_[live->second];
    switch (a.kind) {
      case TrustAction::Kind::kInclude: {
        TrustEntry entry;
        entry.certificate = factory_.get(timeline_.spec(a.root_id));
        for (TrustPurpose p : a.purposes) {
          entry.trust_for(p).level = TrustLevel::kTrustedDelegator;
        }
        if (slot != nullptr) {
          slot->entry = std::move(entry);  // re-include resets trust
        } else {
          live_.emplace(a.root_id, slots_.size());
          slots_.push_back(Slot{&a.root_id, std::move(entry)});
        }
        break;
      }
      case TrustAction::Kind::kRemove:
        if (slot != nullptr) {
          slot->removed = true;
          live_.erase(live);
        }
        break;
      case TrustAction::Kind::kSetServerDistrustAfter:
        if (slot != nullptr) {
          slot->entry.trust_for(TrustPurpose::kServerAuth).distrust_after =
              a.cutoff;
        }
        break;
      case TrustAction::Kind::kDistrustPurposes:
        if (slot != nullptr) {
          for (TrustPurpose p : a.purposes) {
            slot->entry.trust_for(p).level = TrustLevel::kDistrusted;
          }
        }
        break;
    }
  }
}

std::vector<TrustEntry> TimelineCursor::entries() const {
  std::vector<TrustEntry> out;
  out.reserve(live_.size());
  for_each_root([&](std::string_view, const TrustEntry& e) { out.push_back(e); });
  return out;
}

}  // namespace rs::synth
