// RSTS — a portable root-store format with full trust fidelity (§7).
//
// The paper's discussion argues that NSS derivatives fail because the
// formats they copy into (PEM bundles, cert directories, JKS) cannot carry
// per-purpose trust or partial distrust, and asks for "more modern formats,
// while maintaining ease of use for developers".  RSTS ("Root Store Trust
// Serialization") is this repository's answer: a line-oriented, versioned,
// diff-friendly text format that round-trips everything the canonical
// TrustEntry model expresses.
//
//   RSTS 1
//   # comment
//   root
//     label Example Web Root CA
//     sha256 9f86d081884c7d65...
//     cert MIIBIjANBgkqhkiG9w0BAQ...      (base64 DER, single logical value)
//     trust server-auth trusted-delegator distrust-after=2020-01-01
//     trust email-protection must-verify
//     trust code-signing distrusted
//   end
//
// Rules: UTF-8; indentation is cosmetic; `label` is the subject CN with its
// control bytes dropped, so no CN can start a line of its own; unknown
// keys inside a root block are warnings (forward compatibility); `sha256`
// is a MANDATORY integrity pin — an absent or mismatching pin rejects the
// entry, so no byte flip in a document can smuggle an unpinned certificate
// through; omitted `trust` lines default to must-verify; the format never
// implies trust that is not spelled out (the opposite of the PEM-bundle
// failure mode).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/formats/cert_pool.h"
#include "src/formats/certdata.h"
#include "src/store/trust.h"
#include "src/util/result.h"

namespace rs::formats {

/// Current RSTS version emitted by write_rsts.
inline constexpr int kRstsVersion = 1;

/// Serializes entries with full trust fidelity.
[[nodiscard]] std::string write_rsts(const std::vector<rs::store::TrustEntry>& entries);

/// Parses an RSTS document.  Grammar errors (bad header, truncated block)
/// fail the parse; per-entry problems (bad base64, sha256 mismatch,
/// unknown keys) become warnings and skip the entry or key.
[[nodiscard]] rs::util::Result<ParsedStore> parse_rsts(std::string_view text);

/// parse_rsts through a caller's pool, so that documents parsed into one
/// pool share their certificate objects (load_dataset's case).  A `cert`
/// text the pool already holds is a hit and is neither tokenized nor
/// base64-decoded again; every entry's sha256 pin is still checked.
/// Entries and warnings are the same as parse_rsts(text) gives.
[[nodiscard]] rs::util::Result<ParsedStore> parse_rsts(std::string_view text,
                                                       CertPool& pool);

}  // namespace rs::formats
