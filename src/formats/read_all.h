// Internal helper: whole-file reads for the formats that load from disk
// (the dataset tree, certificate directories, sniffed store files).
// Not part of the public formats API.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

namespace rs::formats::detail {

/// Everything in `in`, a stream just opened in binary mode, read to its
/// end whatever size the file reports (a pipe or a sysfs file included).
/// nullopt if reading fails, as it does for a directory.
std::optional<std::string> read_all(std::istream& in);

}  // namespace rs::formats::detail
