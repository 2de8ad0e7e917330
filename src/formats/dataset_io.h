// Whole-dataset persistence: a StoreDatabase as a directory tree.
//
// The paper's artifact is its 619-snapshot dataset; this module lets users
// of this library persist and reload the equivalent.  Layout:
//
//   <dir>/MANIFEST            "RSDS 1" + one line per snapshot:
//                             <provider>\t<date>\t<version>\t<relative-path>
//   <dir>/<provider>/<date>[-<n>].rsts     one RSTS file per snapshot
//
// RSTS (formats/portable.h) is the on-disk format because it is the only
// one that round-trips the full trust model.  Loading verifies the manifest
// against the files; missing or unparseable snapshots fail the load (a
// dataset is an artifact, not a best-effort feed), and so does a MANIFEST
// path that is empty, absolute or has a `..` component.
#pragma once

#include <string>

#include "src/store/database.h"
#include "src/util/result.h"

namespace rs::formats {

/// Writes `db` under `dir` (created if absent).  Returns an error on any
/// filesystem failure; on success the directory contains a MANIFEST plus
/// one RSTS file per snapshot.  A provider name must be a plain directory
/// name (not empty, `.`, `..` or `MANIFEST`, no `/`, no leading space or
/// `#`), and neither it nor any version may hold a control character:
/// anything else is refused before the directory is created, since
/// load_dataset could not read it back as written.
[[nodiscard]] rs::util::Result<std::monostate> write_dataset(
    const rs::store::StoreDatabase& db, const std::string& dir);

/// Loads a dataset written by write_dataset.
[[nodiscard]] rs::util::Result<rs::store::StoreDatabase> load_dataset(const std::string& dir);

}  // namespace rs::formats
