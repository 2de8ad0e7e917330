// Program-exclusive root analysis (Table 6 / §5.2).
//
// A root is exclusive to a program if the program's *latest* snapshot
// TLS-trusts it and no other independent program has *ever* TLS-trusted it.
#pragma once

#include <string>
#include <vector>

#include "src/crypto/digest.h"
#include "src/store/database.h"
#include "src/store/membership.h"

namespace rs::analysis {

/// One program's exclusive roots.
struct ExclusiveSet {
  std::string program;
  std::vector<rs::crypto::Sha256Digest> roots;
  friend bool operator==(const ExclusiveSet&, const ExclusiveSet&) = default;
};

/// Computes exclusive roots among `programs` (typically the four
/// independent programs), reading TLS rows from `table` (built over
/// `db`).  Providers absent from the database are skipped.  Roots are in
/// sorted-digest order.
std::vector<ExclusiveSet> exclusive_roots(
    const rs::store::StoreDatabase& db,
    const rs::store::MembershipTable& table,
    const std::vector<std::string>& programs);

}  // namespace rs::analysis
