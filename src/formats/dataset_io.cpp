#include "src/formats/dataset_io.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <string_view>

#include "src/formats/cert_pool.h"
#include "src/formats/instrument.h"
#include "src/formats/portable.h"
#include "src/formats/read_all.h"
#include "src/util/strings.h"

namespace rs::formats {

namespace fs = std::filesystem;
using rs::util::Result;

namespace {

constexpr std::string_view kManifestHeader = "RSDS 1";

Result<std::monostate> write_file(const fs::path& path,
                                  const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out) {
    return Result<std::monostate>::err("dataset: cannot write " +
                                       path.string());
  }
  return std::monostate{};
}

// A MANIFEST is untrusted input, and its path field may only name a file
// under the dataset directory: an empty path, a rooted one, or one with a
// `..` component could open any file on the host.  A NUL byte is refused
// too, since the open would stop at it.  Symlinks inside the directory are
// followed as the operating system resolves them.
bool stays_inside(std::string_view rel) {
  if (rel.empty() || rel.find('\0') != std::string_view::npos) return false;
  const fs::path path(rel);
  if (path.has_root_path()) return false;
  for (const auto& part : path) {
    if (part == "..") return false;
  }
  return true;
}

bool has_control(std::string_view text) {
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte < 0x20 || byte == 0x7f) return true;
  }
  return false;
}

// Why load_dataset could not read `provider` back as written, or "" when
// it can.  The loader trims each MANIFEST line, skips `#` lines, splits
// the rest at tabs and opens `<provider>/<file>` under the directory, so a
// provider is one plain path component (not the MANIFEST's own name) that
// starts with neither a space nor `#`.  A control byte would split the
// line (tab, newline) or cut the path short (NUL).
std::string unreadable_provider(std::string_view provider) {
  if (provider.empty()) return "is empty";
  if (provider == "." || provider == ".." || provider == "MANIFEST" ||
      provider.find('/') != std::string_view::npos) {
    return "is not a plain directory name";
  }
  if (has_control(provider)) return "holds a control character";
  if (provider.front() == ' ') return "starts with a space";
  if (provider.front() == '#') return "starts with '#'";
  return "";
}

// `text` quoted, with control bytes spelled as \xNN.
std::string quote_name(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte < 0x20 || byte == 0x7f) {
      static constexpr char kHex[] = "0123456789abcdef";
      out += "\\x";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

Result<std::monostate> write_dataset(const rs::store::StoreDatabase& db,
                                     const std::string& dir) {
  // Refuse, before anything is created, every provider and version that
  // the MANIFEST could not carry back to load_dataset unchanged.
  for (const auto& [provider, history] : db.histories()) {
    const std::string why = unreadable_provider(provider);
    if (!why.empty()) {
      return Result<std::monostate>::err("dataset: provider " +
                                         quote_name(provider) + " " + why);
    }
    for (const auto& snap : history.snapshots()) {
      if (has_control(snap.version)) {
        return Result<std::monostate>::err(
            "dataset: version " + quote_name(snap.version) + " of provider " +
            quote_name(provider) + " holds a control character");
      }
    }
  }

  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Result<std::monostate>::err("dataset: cannot create " + dir + ": " +
                                       ec.message());
  }

  std::string manifest = std::string(kManifestHeader) + "\n";
  for (const auto& [provider, history] : db.histories()) {
    const fs::path provider_dir = fs::path(dir) / provider;
    fs::create_directories(provider_dir, ec);
    if (ec) {
      return Result<std::monostate>::err("dataset: cannot create " +
                                         provider_dir.string());
    }
    // Same-day snapshots get a numeric suffix to keep file names unique.
    std::map<std::string, int> seen_dates;
    for (const auto& snap : history.snapshots()) {
      const std::string date = snap.date.to_string();
      const int n = seen_dates[date]++;
      const std::string name =
          n == 0 ? date + ".rsts" : date + "-" + std::to_string(n) + ".rsts";
      const std::string rel = provider + "/" + name;
      auto written =
          write_file(fs::path(dir) / rel, write_rsts(snap.entries));
      if (!written) return written;
      manifest += provider + "\t" + date + "\t" + snap.version + "\t" + rel +
                  "\n";
    }
  }
  return write_file(fs::path(dir) / "MANIFEST", manifest);
}

Result<rs::store::StoreDatabase> load_dataset(const std::string& dir) {
  rs::obs::Span span("formats/dataset");
  using Out = Result<rs::store::StoreDatabase>;
  std::ifstream manifest_in(fs::path(dir) / "MANIFEST", std::ios::binary);
  if (!manifest_in) {
    return Out::err("dataset: missing MANIFEST in " + dir);
  }
  const auto manifest = detail::read_all(manifest_in);
  if (!manifest) return Out::err("dataset: cannot read MANIFEST in " + dir);
  const auto lines = rs::util::split_lines(*manifest);
  if (lines.empty() || rs::util::trim(lines[0]) != kManifestHeader) {
    return Out::err("dataset: MANIFEST missing 'RSDS 1' header");
  }

  // One pool for the whole dataset: each distinct certificate is decoded
  // once, and every snapshot holding it shares that object.
  CertPool pool;
  std::map<std::string, rs::store::ProviderHistory> histories;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const auto line = rs::util::trim(lines[i]);
    if (line.empty() || line.front() == '#') continue;
    const auto fields = rs::util::split(line, '\t');
    if (fields.size() != 4) {
      return Out::err("dataset: malformed MANIFEST line " +
                      std::to_string(i + 1));
    }
    const std::string provider(fields[0]);
    const auto date = rs::util::Date::parse(fields[1]);
    if (!date) {
      return Out::err("dataset: bad date in MANIFEST line " +
                      std::to_string(i + 1));
    }
    if (!stays_inside(fields[3])) {
      return Out::err("dataset: MANIFEST line " + std::to_string(i + 1) +
                      ": snapshot path must be relative and stay inside " +
                      dir);
    }
    const fs::path path = fs::path(dir) / std::string(fields[3]);
    std::ifstream in(path, std::ios::binary);
    if (!in) return Out::err("dataset: missing snapshot file " + path.string());
    const auto content = detail::read_all(in);
    if (!content) {
      return Out::err("dataset: cannot read snapshot file " + path.string());
    }
    auto parsed = parse_rsts(*content, pool);
    if (!parsed) {
      return Out::err("dataset: " + path.string() + ": " + parsed.error());
    }
    if (!parsed.value().warnings.empty()) {
      return Out::err("dataset: " + path.string() +
                      " has warnings; refusing to load a damaged artifact (" +
                      parsed.value().warnings.front() + ")");
    }

    rs::store::Snapshot snap;
    snap.provider = provider;
    snap.date = *date;
    snap.version = std::string(fields[2]);
    snap.entries = std::move(parsed.value().entries);
    auto [it, inserted] =
        histories.try_emplace(provider, rs::store::ProviderHistory(provider));
    (void)inserted;
    it->second.add(std::move(snap));
  }

  rs::store::StoreDatabase db;
  for (auto& [name, history] : histories) {
    (void)name;
    db.add(std::move(history));
  }
  span.set_items(db.total_snapshots());
  rs::obs::Registry::global()
      .counter("formats.snapshots_parsed")
      .add(db.total_snapshots());
  return db;
}

}  // namespace rs::formats
