// Event-sourced root-program timelines.
//
// A program's root store over time is a stream of TrustActions (include,
// remove, set partial distrust, change level).  A TimelineCursor replays
// the stream forward once, and the state it holds after each advance is
// one snapshot — the snapshot generator for every provider in the
// scenario.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/store/snapshot.h"
#include "src/store/trust.h"
#include "src/synth/root_spec.h"
#include "src/util/date.h"

namespace rs::synth {

/// One change to a program's trust in one root.
struct TrustAction {
  enum class Kind {
    /// Add the root with the given per-purpose anchor set.
    kInclude,
    /// Drop the root entirely.
    kRemove,
    /// Set TLS partial distrust (CKA_NSS_SERVER_DISTRUST_AFTER analog).
    kSetServerDistrustAfter,
    /// Actively distrust the given purposes (entry remains present).
    kDistrustPurposes,
  };

  rs::util::Date date;
  std::string root_id;
  Kind kind = Kind::kInclude;
  /// kInclude / kDistrustPurposes: which purposes.
  std::vector<rs::store::TrustPurpose> purposes;
  /// kSetServerDistrustAfter: the cutoff.
  std::optional<rs::util::Date> cutoff;
};

/// A date-ordered action stream plus the specs it references.
class Timeline {
 public:
  /// Registers a root blueprint; actions reference it by spec.id.
  void add_spec(RootSpec spec);
  bool has_spec(const std::string& id) const;
  const RootSpec& spec(const std::string& id) const;
  const std::map<std::string, RootSpec>& specs() const { return specs_; }

  void include(rs::util::Date d, const std::string& root_id,
               std::vector<rs::store::TrustPurpose> purposes = {
                   rs::store::TrustPurpose::kServerAuth});
  void remove(rs::util::Date d, const std::string& root_id);
  void set_server_distrust_after(rs::util::Date d, const std::string& root_id,
                                 rs::util::Date cutoff);
  void distrust(rs::util::Date d, const std::string& root_id,
                std::vector<rs::store::TrustPurpose> purposes);

  const std::vector<TrustAction>& actions() const { return actions_; }

 private:
  std::map<std::string, RootSpec> specs_;
  std::vector<TrustAction> actions_;
};

/// One forward replay of a timeline.  Each advance_to(date) applies the
/// actions dated <= `date` that no earlier advance applied, in date order
/// (equal dates in insertion order, so a same-day remove-then-include
/// behaves as written), and has the factory build each included root's
/// certificate as its include is applied.  A history of N snapshots is
/// therefore one pass over the actions, not N.
///
/// The timeline must outlive the cursor and stay unchanged while it runs.
class TimelineCursor {
 public:
  TimelineCursor(const Timeline& timeline, CertFactory& factory);

  /// Applies the actions dated <= `when` not yet applied.  `when` must not
  /// be earlier than the previous call's date (a debug build asserts that
  /// no applied action is dated after it).
  void advance_to(rs::util::Date when);

  /// Calls `visit(root_id, entry)` for each root in the state, in
  /// first-inclusion order: a re-include of a present root resets its
  /// trust in place, while one after a removal goes to the back.
  template <typename Visit>
  void for_each_root(Visit&& visit) const {
    for (const Slot& slot : slots_) {
      if (!slot.removed) visit(std::string_view(*slot.root_id), slot.entry);
    }
  }

  /// The state's entries, in for_each_root order.
  std::vector<rs::store::TrustEntry> entries() const;

 private:
  struct Slot {
    const std::string* root_id;  // owned by the timeline's actions
    rs::store::TrustEntry entry;
    bool removed = false;  // tombstone: a re-include takes a new slot
  };

  const Timeline& timeline_;
  CertFactory& factory_;
  std::vector<const TrustAction*> actions_;  // stable-sorted by date
  std::size_t applied_ = 0;
  std::vector<Slot> slots_;
  std::unordered_map<std::string_view, std::size_t> live_;  // id -> slot
};

}  // namespace rs::synth
