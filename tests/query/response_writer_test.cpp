// The one JSON writer of the wire: its comma rule, nesting and value
// encodings.  WireGolden.ResponsesAreUnchanged pins every response byte it
// writes; these cases pin the writer's own contract on small inputs.
#include "src/query/response_writer.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/store/id_set.h"
#include "src/store/interner.h"
#include "src/util/date.h"

namespace rs::query {
namespace {

using rs::util::Date;

TEST(ResponseWriter, OneCommaRuleAcrossNesting) {
  ResponseWriter w;
  w.key("op").text("x");
  w.key("empty").begin_array();
  w.end_array();
  w.key("rows").begin_array();
  for (int i = 0; i < 2; ++i) {
    w.begin_object();
    w.key("n").number(static_cast<std::uint64_t>(i));
    w.key("pair").begin_array();
    w.date(Date::ymd(2020, 1, 2));
    w.null();
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("obj").begin_object();
  w.escaped_key("a\"b").boolean(true);
  w.escaped_key("c").boolean(false);
  w.end_object();
  EXPECT_EQ(w.finish(),
            R"({"op":"x","empty":[],"rows":[{"n":0,"pair":["2020-01-02",null]},)"
            R"({"n":1,"pair":["2020-01-02",null]}],"obj":{"a\"b":true,"c":false}})");
}

TEST(ResponseWriter, TypedValues) {
  ResponseWriter w;
  w.key("texts").texts({"a", "b\n"});
  w.key("none").texts({});
  w.key("numbers").numbers({0, 18446744073709551615u});
  w.key("later").date_or_null(std::nullopt);
  w.key("on").date_or_null(Date::ymd(1999, 12, 31));
  rs::crypto::Sha256Digest fp{};
  fp[0] = 0xab;
  fp[31] = 0x01;
  w.key("fp").fp(fp);
  w.key("items").begin_array();
  w.raw(R"({"k":1})");
  w.raw("[]");
  w.end_array();
  EXPECT_EQ(w.finish(),
            R"({"texts":["a","b\n"],"none":[],)"
            R"("numbers":[0,18446744073709551615],"later":null,)"
            R"("on":"1999-12-31","fp":"ab)" +
                std::string(60, '0') + R"(01","items":[{"k":1},[]]})");
}

TEST(ResponseWriter, RootsAreFingerprintsInIdOrder) {
  std::vector<rs::crypto::Sha256Digest> digests(3);
  for (std::size_t i = 0; i < digests.size(); ++i) {
    digests[i].fill(static_cast<std::uint8_t>(0x10 * (i + 1)));
  }
  const rs::store::CertInterner interner(digests);
  rs::store::IdSet ids(interner.size());
  ids.insert(2);
  ids.insert(0);
  const auto hex_of = [](const char* byte) {
    std::string out;
    for (int i = 0; i < 32; ++i) out += byte;
    return out;
  };
  ResponseWriter w;
  w.key("roots").roots(ids, interner);
  w.key("none").roots(rs::store::IdSet(interner.size()), interner);
  w.key("after").number(1);
  EXPECT_EQ(w.finish(), R"({"roots":[")" + hex_of("10") + R"(",")" +
                            hex_of("30") + R"("],"none":[],"after":1})");
}

}  // namespace
}  // namespace rs::query
