// Format sniffing: load any root-store file by content inspection.
//
// The study's collection pipeline had to consume whatever each provider
// ships — certdata.txt, PEM bundles, JKS keystores, RSTS documents.  This
// helper centralizes the dispatch every tool needs: look at the bytes,
// pick the parser, return the normalized store.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "src/formats/certdata.h"

namespace rs::formats {

/// Formats detect_store_format can report.
enum class StoreFormat {
  kCertdata,
  kPemBundle,
  kJks,
  kRsts,
  kUnknown,
};

const char* to_string(StoreFormat f) noexcept;

/// Inspects content bytes and guesses the serialization.
[[nodiscard]] StoreFormat detect_store_format(std::string_view content);

/// Parses `content` with the detected parser.  kUnknown falls back to the
/// PEM-bundle parser (matching how TLS tooling treats mystery files).  A
/// PEM bundle carries no purposes, so its entries are trusted for every
/// purpose (BundleTrustPolicy::multi_purpose).
[[nodiscard]] rs::util::Result<ParsedStore> parse_any_store(
    std::string_view content);

/// Reads the file at `path` and parses it.  I/O failures are errors.
[[nodiscard]] rs::util::Result<ParsedStore> load_any_store(
    const std::string& path);

}  // namespace rs::formats
