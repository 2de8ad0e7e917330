// The one JSON writer of the wire.
//
// Every response line rs_query and rs_serve send is built by a
// ResponseWriter: the engine's answers, the error and batch envelopes, and
// the server's own server_stats and reload_index answers.  A writer opens
// the top-level object at construction and closes it in finish().  An
// object member is a key followed by one value; an array element is a
// value alone; objects and arrays nest through begin_object() and
// begin_array() and their end calls.  Field order is the call order, so
// every response shape is fixed at its call site.
//
// One comma rule places every separator: a key or value is preceded by a
// comma unless the buffer ends in an opening brace, an opening bracket or
// a key's colon.  Callers write no brace, bracket or comma themselves.
//
// key() takes a literal of the calling file and writes it as it is; a key
// taken from the data (stats keys its coverage object by provider name)
// goes through escaped_key().  Text values go through
// rs::util::append_json_string; numbers, dates and fingerprints never need
// escaping and are written in place.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/crypto/digest.h"
#include "src/util/date.h"
#include "src/util/hex.h"
#include "src/util/json.h"

namespace rs::store {
class CertInterner;
class IdSet;
}  // namespace rs::store

namespace rs::query {

class ResponseWriter {
 public:
  /// Opens the top-level object with `capacity` bytes reserved.  The
  /// default holds the common responses in one allocation; finish() hands
  /// the buffer on, and the response cache stores an exact-size copy.
  explicit ResponseWriter(std::size_t capacity = 256) {
    out_.reserve(capacity);
    out_.push_back('{');
  }

  /// Starts an object member named by a literal key; one value follows.
  ResponseWriter& key(std::string_view literal) {
    separate();
    out_.push_back('"');
    out_ += literal;
    out_ += "\":";
    return *this;
  }
  /// Starts an object member named by data, escaped like any text.
  ResponseWriter& escaped_key(std::string_view name) {
    separate();
    rs::util::append_json_string(out_, name);
    out_.push_back(':');
    return *this;
  }

  void text(std::string_view value) {
    separate();
    rs::util::append_json_string(out_, value);
  }
  void number(std::uint64_t value) {
    separate();
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  }
  void boolean(bool value) {
    separate();
    out_ += value ? "true" : "false";
  }
  void null() {
    separate();
    out_ += "null";
  }
  /// A quoted "YYYY-MM-DD".
  void date(const rs::util::Date& value) {
    separate();
    out_.push_back('"');
    value.append_to(out_);
    out_.push_back('"');
  }
  void date_or_null(const std::optional<rs::util::Date>& value) {
    if (value) {
      date(*value);
    } else {
      null();
    }
  }
  /// A quoted string of 64 lowercase hex digits.
  void fp(const rs::crypto::Sha256Digest& value) {
    separate();
    out_.push_back('"');
    rs::util::append_hex(out_, value);
    out_.push_back('"');
  }
  /// An already-rendered JSON value, written as it is (a batch item).
  void raw(std::string_view json) {
    separate();
    out_ += json;
  }

  /// Typed arrays.
  void texts(const std::vector<std::string>& values) {
    begin_array();
    for (const auto& value : values) text(value);
    end_array();
  }
  void numbers(const std::vector<std::size_t>& values) {
    begin_array();
    for (const std::size_t value : values) number(value);
    end_array();
  }
  /// The fingerprints of `ids` in ID order, which is sorted-digest order.
  /// The array is sized once, 66 bytes per quoted fingerprint plus the
  /// commas and brackets, and every fingerprint's digits are written into
  /// it.
  void roots(const rs::store::IdSet& ids,
             const rs::store::CertInterner& interner);

  void begin_object() {
    separate();
    out_.push_back('{');
  }
  void end_object() { out_.push_back('}'); }
  void begin_array() {
    separate();
    out_.push_back('[');
  }
  void end_array() { out_.push_back(']'); }

  /// Closes the top-level object and hands the line on.
  std::string finish() {
    out_.push_back('}');
    return std::move(out_);
  }

 private:
  void separate() {
    const char last = out_.back();
    if (last != '{' && last != '[' && last != ':') out_.push_back(',');
  }

  std::string out_;
};

}  // namespace rs::query
