// Java KeyStore (JKS) v2 reader/writer — the real binary layout.
//
// Oracle ships Java's default roots as a JKS file (make/data/cacerts); the
// paper extracted them with keytool.  This module replaces keytool: it
// implements the JKS v2 container exactly — 0xFEEDFEED magic, big-endian
// framing, modified-UTF-8 aliases, trusted-certificate entries, and the
// trailing SHA-1 integrity digest keyed by
// password-UTF-16BE || "Mighty Aphrodite" || data.
//
// Only trusted-certificate entries (tag 2) are modelled; private-key
// entries (tag 1) never appear in a root store and are rejected.  JKS
// carries no purpose restrictions, so every entry becomes an anchor for all
// purposes (Java's default store has no additional trust contexts, §3).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/formats/certdata.h"
#include "src/store/trust.h"
#include "src/util/date.h"
#include "src/util/result.h"

namespace rs::formats {

/// keytool's default password for cacerts.
inline constexpr std::string_view kDefaultJksPassword = "changeit";

/// Serializes entries as a JKS v2 trusted-certificate keystore.
/// Aliases are "<sanitized-cn> [<short-fp>]", with the CN cut so the alias
/// fits writeUTF's 65,535 bytes; `created` stamps every entry.
[[nodiscard]] std::vector<std::uint8_t> write_jks(
    const std::vector<rs::store::TrustEntry>& entries,
    rs::util::Date created,
    std::string_view password = kDefaultJksPassword);

/// Parses a JKS v2 keystore and verifies the integrity digest against
/// `password`; digest mismatch (wrong password or corruption) is an error.
[[nodiscard]] rs::util::Result<ParsedStore> parse_jks(
    std::span<const std::uint8_t> data,
    std::string_view password = kDefaultJksPassword);

}  // namespace rs::formats
