#include "src/query/request.h"

#include <gtest/gtest.h>

#include <string>

#include "src/util/hex.h"

namespace rs::query {
namespace {

using rs::util::Date;

const std::string kFp(64, 'a');

TEST(ParseRequest, StatsMinimal) {
  auto r = parse_request(R"({"op":"stats"})");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().op, Op::kStats);
  EXPECT_FALSE(r.value().fp.has_value());
  EXPECT_FALSE(r.value().provider.has_value());
}

TEST(ParseRequest, IsTrustedAllFields) {
  auto r = parse_request(R"({"op":"is_trusted","provider":"NSS","fp":")" +
                         kFp + R"(","date":"2020-06-01","scope":"email"})");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().op, Op::kIsTrusted);
  EXPECT_EQ(*r.value().provider, "NSS");
  ASSERT_TRUE(r.value().fp.has_value());
  EXPECT_EQ(rs::util::hex_encode(*r.value().fp), kFp);
  EXPECT_EQ(*r.value().date, Date::ymd(2020, 6, 1));
  EXPECT_EQ(r.value().scope, Scope::kEmail);
}

TEST(ParseRequest, ScopeDefaultsToTls) {
  auto r = parse_request(
      R"({"op":"store_at","provider":"NSS","date":"2020-06-01"})");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().scope, Scope::kTls);
}

TEST(ParseRequest, UppercaseHexFingerprintNormalized) {
  std::string upper(64, 'A');
  auto r = parse_request(R"({"op":"lineage","fp":")" + upper + R"("})");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(rs::util::hex_encode(*r.value().fp), kFp);
}

TEST(ParseRequest, WhitespaceTolerated) {
  auto r = parse_request(" { \"op\" : \"stats\" } ");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().op, Op::kStats);
}

TEST(ParseRequest, AgentStoreOsOptional) {
  auto with_os = parse_request(
      R"({"op":"agent_store","user_agent":"Chrome Mobile","os":"Android",)"
      R"("date":"2020-06-01"})");
  ASSERT_TRUE(with_os.ok()) << with_os.error();
  EXPECT_EQ(*with_os.value().os, "Android");
  auto without = parse_request(
      R"({"op":"agent_store","user_agent":"Firefox","date":"2020-06-01"})");
  ASSERT_TRUE(without.ok()) << without.error();
  EXPECT_FALSE(without.value().os.has_value());
}

TEST(ParseRequest, AgreementAtTakesDateAndOptionalScope) {
  auto minimal = parse_request(R"({"op":"agreement_at","date":"2020-06-01"})");
  ASSERT_TRUE(minimal.ok()) << minimal.error();
  EXPECT_EQ(minimal.value().op, Op::kAgreementAt);
  EXPECT_EQ(*minimal.value().date, Date::ymd(2020, 6, 1));
  EXPECT_EQ(minimal.value().scope, Scope::kTls);
  auto scoped = parse_request(
      R"({"op":"agreement_at","date":"2020-06-01","scope":"present"})");
  ASSERT_TRUE(scoped.ok()) << scoped.error();
  EXPECT_EQ(scoped.value().scope, Scope::kPresent);
  // No provider/fp/date_a/... on this op.
  EXPECT_FALSE(parse_request(R"({"op":"agreement_at"})").ok());
  EXPECT_FALSE(
      parse_request(
          R"({"op":"agreement_at","date":"2020-06-01","provider":"NSS"})")
          .ok());
  EXPECT_FALSE(
      parse_request(
          R"({"op":"agreement_at","date":"2020-06-01","fp":")" + kFp + R"("})")
          .ok());
}

TEST(ParseRequest, CtCoverageTakesProviderDateAndOptionalScope) {
  auto r = parse_request(
      R"({"op":"ct_coverage","provider":"CtLog0","date":"2020-06-01"})");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().op, Op::kCtCoverage);
  EXPECT_EQ(*r.value().provider, "CtLog0");
  EXPECT_EQ(r.value().scope, Scope::kTls);
  EXPECT_FALSE(parse_request(R"({"op":"ct_coverage","date":"2020-06-01"})").ok());
  EXPECT_FALSE(parse_request(R"({"op":"ct_coverage","provider":"CtLog0"})").ok());
  EXPECT_FALSE(
      parse_request(
          R"({"op":"ct_coverage","provider":"CtLog0","date":"2020-06-01",)"
          R"("user_agent":"Chrome"})")
          .ok());
}

TEST(ParseRequest, LandscapeOpsEnforceTheDefaultCaps) {
  // Neither op carries certificates, so both keep the tight budget.
  EXPECT_EQ(max_request_bytes(Op::kAgreementAt), kMaxRequestBytes);
  EXPECT_EQ(max_request_bytes(Op::kCtCoverage), kMaxRequestBytes);
  std::string long_provider(kMaxValueBytes + 1, 'p');
  EXPECT_FALSE(parse_request(R"({"op":"ct_coverage","provider":")" +
                             long_provider + R"(","date":"2020-06-01"})")
                   .ok());
  std::string oversized = R"({"op":"agreement_at","date":"2020-06-01",)";
  oversized.append(kMaxRequestBytes, ' ');
  oversized += R"("scope":"tls"})";
  EXPECT_FALSE(parse_request(oversized).ok());
  // Duplicate fields are rejected for the new ops too.
  EXPECT_FALSE(
      parse_request(
          R"({"op":"agreement_at","date":"2020-06-01","date":"2020-06-01"})")
          .ok());
  EXPECT_FALSE(
      parse_request(
          R"({"op":"ct_coverage","provider":"A","provider":"A","date":"2020-06-01"})")
          .ok());
}

// --- Rejections -----------------------------------------------------------

TEST(ParseRequest, RejectsEmptyAndNonObject) {
  EXPECT_FALSE(parse_request("").ok());
  EXPECT_FALSE(parse_request("null").ok());
  EXPECT_FALSE(parse_request("[]").ok());
  EXPECT_FALSE(parse_request("{}").ok());  // no "op"
}

TEST(ParseRequest, RejectsUnknownOpAndUnknownField) {
  EXPECT_FALSE(parse_request(R"({"op":"drop_tables"})").ok());
  EXPECT_FALSE(parse_request(R"({"op":"stats","extra":"x"})").ok());
  // A field another op uses is still unknown for this op.
  EXPECT_FALSE(parse_request(R"({"op":"stats","provider":"NSS"})").ok());
}

TEST(ParseRequest, RejectsMissingRequiredField) {
  EXPECT_FALSE(parse_request(R"({"op":"is_trusted","provider":"NSS"})").ok());
  EXPECT_FALSE(
      parse_request(R"({"op":"diff","provider":"NSS","date_a":"2020-01-01"})")
          .ok());
}

TEST(ParseRequest, RejectsDuplicateKey) {
  EXPECT_FALSE(parse_request(R"({"op":"stats","op":"stats"})").ok());
}

TEST(ParseRequest, RejectsTrailingBytes) {
  EXPECT_FALSE(parse_request(R"({"op":"stats"}x)").ok());
  EXPECT_FALSE(parse_request(R"({"op":"stats"}{"op":"stats"})").ok());
}

TEST(ParseRequest, RejectsBadFingerprint) {
  EXPECT_FALSE(parse_request(R"({"op":"lineage","fp":"abc"})").ok());
  std::string bad(63, 'a');
  bad.push_back('g');
  EXPECT_FALSE(parse_request(R"({"op":"lineage","fp":")" + bad + R"("})").ok());
}

TEST(ParseRequest, RejectsBadDate) {
  EXPECT_FALSE(parse_request(
                   R"({"op":"store_at","provider":"NSS","date":"junk"})")
                   .ok());
  EXPECT_FALSE(parse_request(
                   R"({"op":"store_at","provider":"NSS","date":"2020-13-01"})")
                   .ok());
}

TEST(ParseRequest, RejectsSignedYear) {
  const auto r = parse_request(R"({"op":"agreement_at","date":"-001-01-01"})");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "field 'date' is not a YYYY-MM-DD date");
}

TEST(ParseRequest, RejectsBadScope) {
  EXPECT_FALSE(
      parse_request(
          R"({"op":"store_at","provider":"NSS","date":"2020-01-01","scope":"ssh"})")
          .ok());
}

TEST(ParseRequest, RejectsUnicodeEscapesAndControlBytes) {
  // \uXXXX escapes are outside the accepted grammar (the raw string below
  // really carries a backslash-u sequence on the wire).
  EXPECT_FALSE(
      parse_request(
          R"({"op":"store_at","provider":"N\u0053S","date":"2020-01-01"})")
          .ok());
  std::string raw = "{\"op\":\"store_at\",\"provider\":\"a\x01b\","
                    "\"date\":\"2020-01-01\"}";
  EXPECT_FALSE(parse_request(raw).ok());
}

TEST(ParseRequest, EnforcesByteAndFieldCaps) {
  // Oversized total request.
  std::string big = R"({"op":"stats","x":")" + std::string(5000, 'a') + "\"}";
  EXPECT_FALSE(parse_request(big).ok());
  // Oversized single value within the total cap.
  std::string long_value =
      R"({"op":"store_at","provider":")" + std::string(kMaxValueBytes + 1, 'p') +
      R"(","date":"2020-01-01"})";
  ASSERT_LE(long_value.size(), kMaxRequestBytes);
  EXPECT_FALSE(parse_request(long_value).ok());
  // Oversized key.
  std::string long_key =
      "{\"" + std::string(kMaxKeyBytes + 1, 'k') + "\":\"v\"}";
  EXPECT_FALSE(parse_request(long_key).ok());
  // A non-verify op must stay under kMaxRequestBytes even when every field
  // is individually small (the slack here is pure whitespace).
  std::string padded = R"({"op":"stats"})" + std::string(kMaxRequestBytes, ' ');
  ASSERT_LE(padded.size(), kMaxVerifyRequestBytes);
  auto r = parse_request(padded);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().find("for op 'stats'"), std::string::npos);
}

// --- verify_chain / first_rejected_at payloads ----------------------------

// Tiny placeholder DER payloads used below: "AQID" = {1,2,3},
// "BAUG" = {4,5,6}, "Bw==" = {7}.  parse_request only decodes Base64;
// x509 parsing happens in the engine.

TEST(ParseRequest, VerifyChainParsesLeafAndPool) {
  auto r = parse_request(
      R"({"op":"verify_chain","provider":"NSS","date":"2020-06-01",)"
      R"("leaf":"AQID","pool":["Bw==","BAUG","Bw=="]})");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().op, Op::kVerifyChain);
  ASSERT_TRUE(r.value().leaf.has_value());
  EXPECT_EQ(*r.value().leaf, (std::vector<std::uint8_t>{1, 2, 3}));
  // Pool is sorted by DER bytes and deduplicated at parse time.
  ASSERT_EQ(r.value().pool.size(), 2u);
  EXPECT_EQ(r.value().pool[0], (std::vector<std::uint8_t>{4, 5, 6}));
  EXPECT_EQ(r.value().pool[1], (std::vector<std::uint8_t>{7}));
}

TEST(ParseRequest, FirstRejectedAtTakesNoDate) {
  auto r = parse_request(
      R"({"op":"first_rejected_at","provider":"NSS",)"
      R"("leaf":"AQID","pool":[],"scope":"email"})");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().op, Op::kFirstRejectedAt);
  EXPECT_TRUE(r.value().pool.empty());
  EXPECT_EQ(r.value().scope, Scope::kEmail);
  EXPECT_FALSE(
      parse_request(R"({"op":"first_rejected_at","provider":"NSS",)"
                    R"("leaf":"AQID","pool":[],"date":"2020-01-01"})")
          .ok());
}

TEST(ParseRequest, VerifyChainRejectsMalformedPayloads) {
  // Missing leaf / missing pool (empty array is fine, absence is not).
  EXPECT_FALSE(parse_request(R"({"op":"verify_chain","provider":"NSS",)"
                             R"("date":"2020-06-01","pool":[]})")
                   .ok());
  EXPECT_FALSE(parse_request(R"({"op":"verify_chain","provider":"NSS",)"
                             R"("date":"2020-06-01","leaf":"AQID"})")
                   .ok());
  // pool must be an array; arrays are only legal for pool.
  EXPECT_FALSE(parse_request(R"({"op":"verify_chain","provider":"NSS",)"
                             R"("date":"2020-06-01","leaf":"AQID",)"
                             R"("pool":"AQID"})")
                   .ok());
  EXPECT_FALSE(parse_request(R"({"op":"verify_chain","provider":"NSS",)"
                             R"("date":"2020-06-01","leaf":["AQID"],)"
                             R"("pool":[]})")
                   .ok());
  // Invalid / empty Base64 payloads.
  EXPECT_FALSE(parse_request(R"({"op":"verify_chain","provider":"NSS",)"
                             R"("date":"2020-06-01","leaf":"@!","pool":[]})")
                   .ok());
  EXPECT_FALSE(parse_request(R"({"op":"verify_chain","provider":"NSS",)"
                             R"("date":"2020-06-01","leaf":"","pool":[]})")
                   .ok());
  EXPECT_FALSE(parse_request(R"({"op":"verify_chain","provider":"NSS",)"
                             R"("date":"2020-06-01","leaf":"AQID",)"
                             R"("pool":["@!"]})")
                   .ok());
  // Certificate fields are unknown for every other op.
  EXPECT_FALSE(parse_request(R"({"op":"stats","pool":[]})").ok());
  EXPECT_FALSE(parse_request(R"({"op":"stats","leaf":"AQID"})").ok());
}

TEST(ParseRequest, VerifyChainEnforcesPoolAndSizeCaps) {
  // One entry over the pool-count cap.
  std::string many = R"({"op":"verify_chain","provider":"NSS",)"
                     R"("date":"2020-06-01","leaf":"AQID","pool":[)";
  for (std::size_t i = 0; i <= kMaxPoolCerts; ++i) {
    if (i > 0) many += ',';
    many += "\"BAUG\"";
  }
  many += "]}";
  auto over = parse_request(many);
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.error().find("pool carries more than"), std::string::npos);
  // Verify ops get the wide per-request budget: the same whitespace padding
  // that sinks a stats request (EnforcesByteAndFieldCaps) is fine here.
  std::string padded =
      R"({"op":"verify_chain","provider":"NSS","date":"2020-06-01",)"
      R"("leaf":"AQID","pool":[]})" +
      std::string(kMaxRequestBytes, ' ');
  auto ok = parse_request(padded);
  EXPECT_TRUE(ok.ok()) << ok.error();
  std::string too_fat =
      R"({"op":"verify_chain","provider":"NSS","date":"2020-06-01",)"
      R"("leaf":"AQID","pool":[]})" +
      std::string(kMaxVerifyRequestBytes, ' ');
  EXPECT_FALSE(parse_request(too_fat).ok());
}

// --- Canonicalization -----------------------------------------------------

TEST(CanonicalRequest, MaterializesDefaultsAndFixesOrder) {
  // scope omitted and fields deliberately out of order.
  auto r = parse_request(R"({"date":"2020-06-01","provider":"NSS",)"
                         R"("fp":")" + kFp + R"(","op":"is_trusted"})");
  ASSERT_TRUE(r.ok()) << r.error();
  const std::string canonical = canonical_request(r.value());
  EXPECT_EQ(canonical,
            R"({"op":"is_trusted","date":"2020-06-01","fp":")" + kFp +
                R"(","provider":"NSS","scope":"tls"})");
  // Semantically equal spellings share one canonical form (the cache key).
  auto explicit_scope =
      parse_request(R"({"op":"is_trusted","provider":"NSS","fp":")" + kFp +
                    R"(","date":"2020-06-01","scope":"tls"})");
  ASSERT_TRUE(explicit_scope.ok());
  EXPECT_EQ(canonical_request(explicit_scope.value()), canonical);
}

TEST(CanonicalRequest, PoolOrderDoesNotLeakIntoTheCacheKey) {
  auto a = parse_request(
      R"({"op":"verify_chain","provider":"NSS","date":"2020-06-01",)"
      R"("leaf":"AQID","pool":["Bw==","BAUG"]})");
  auto b = parse_request(
      R"({"op":"verify_chain","provider":"NSS","date":"2020-06-01",)"
      R"("leaf":"AQID","pool":["BAUG","Bw==","BAUG"]})");
  ASSERT_TRUE(a.ok()) << a.error();
  ASSERT_TRUE(b.ok()) << b.error();
  const std::string canonical = canonical_request(a.value());
  EXPECT_EQ(canonical_request(b.value()), canonical);
  EXPECT_EQ(canonical,
            R"({"op":"verify_chain","date":"2020-06-01","leaf":"AQID",)"
            R"("pool":["BAUG","Bw=="],"provider":"NSS","scope":"tls"})");
}

TEST(CanonicalRequest, IsAFixedPoint) {
  const char* lines[] = {
      R"({"op":"stats"})",
      R"({"op":"server_stats"})",
      R"({"op":"diff","provider":"Debian","date_a":"2015-01-01","date_b":"2020-01-01","scope":"present"})",
      R"({"op":"agent_store","user_agent":"Chrome Mobile","os":"Android","date":"2020-06-01"})",
      R"({"op":"verify_chain","provider":"NSS","date":"2020-06-01","leaf":"AQID","pool":["Bw==","BAUG"]})",
      R"({"op":"first_rejected_at","provider":"Microsoft","leaf":"AQID","pool":[]})",
      R"({"op":"agreement_at","date":"2020-06-01"})",
      R"({"op":"agreement_at","scope":"present","date":"2020-06-01"})",
      R"({"op":"ct_coverage","provider":"CtLog0","date":"2020-06-01","scope":"email"})",
      R"({"op":"ct_coverage","date":"2020-06-01","provider":"CtLog0"})",
  };
  for (const char* line : lines) {
    auto first = parse_request(line);
    ASSERT_TRUE(first.ok()) << line << ": " << first.error();
    const std::string c1 = canonical_request(first.value());
    auto second = parse_request(c1);
    ASSERT_TRUE(second.ok()) << c1 << ": " << second.error();
    EXPECT_EQ(canonical_request(second.value()), c1);
  }
}

TEST(AppendJsonString, EscapesControlBytesAndQuotes) {
  std::string out;
  append_json_string(out, "a\"b\\c\nd\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
}

// --- Batch envelopes ------------------------------------------------------

TEST(LooksLikeBatch, MatchesExactlyTheEnvelopeOpening) {
  EXPECT_TRUE(looks_like_batch(R"({"op":"batch","requests":[]})"));
  EXPECT_TRUE(looks_like_batch("  { \"op\" : \"batch\" ,"));  // ws-tolerant
  EXPECT_FALSE(looks_like_batch(R"({"op":"stats"})"));
  EXPECT_FALSE(looks_like_batch(R"({"requests":[],"op":"batch"})"));
  EXPECT_FALSE(looks_like_batch(""));
  EXPECT_FALSE(looks_like_batch("batch"));
}

TEST(ParseBatchRequest, SplitsItemsAsViewsIntoTheLine) {
  const std::string line =
      R"({"op":"batch","requests":[{"op":"stats"},{"op":"server_stats"}]})";
  auto items = parse_batch_request(line);
  ASSERT_TRUE(items.ok()) << items.error();
  ASSERT_EQ(items.value().size(), 2u);
  EXPECT_EQ(items.value()[0], R"({"op":"stats"})");
  EXPECT_EQ(items.value()[1], R"({"op":"server_stats"})");
  // The views alias the input, not copies.
  EXPECT_GE(items.value()[0].data(), line.data());
  EXPECT_LE(items.value()[1].data() + items.value()[1].size(),
            line.data() + line.size());
}

TEST(ParseBatchRequest, SplitsLandscapeOpsAndTheirItemsParse) {
  const std::string line =
      R"({"op":"batch","requests":[{"op":"agreement_at","date":"2020-06-01"},)"
      R"({"op":"ct_coverage","provider":"CtLog0","date":"2020-06-01","scope":"present"}]})";
  auto items = parse_batch_request(line);
  ASSERT_TRUE(items.ok()) << items.error();
  ASSERT_EQ(items.value().size(), 2u);
  auto first = parse_request(items.value()[0]);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_EQ(first.value().op, Op::kAgreementAt);
  auto second = parse_request(items.value()[1]);
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_EQ(second.value().op, Op::kCtCoverage);
  EXPECT_EQ(second.value().scope, Scope::kPresent);
}

TEST(ParseBatchRequest, EmptyRequestListIsValid) {
  auto items = parse_batch_request(R"({"op":"batch","requests":[]})");
  ASSERT_TRUE(items.ok()) << items.error();
  EXPECT_TRUE(items.value().empty());
}

TEST(ParseBatchRequest, FramesItemsWithStringAwareBraceMatching) {
  // A brace inside a string value must not close the item early.
  const std::string line =
      R"({"op":"batch","requests":[{"op":"store_at","provider":"a}b","date":"2020-01-01"}]})";
  auto items = parse_batch_request(line);
  ASSERT_TRUE(items.ok()) << items.error();
  ASSERT_EQ(items.value().size(), 1u);
  EXPECT_EQ(items.value()[0],
            R"({"op":"store_at","provider":"a}b","date":"2020-01-01"})");
}

TEST(ParseBatchRequest, ReturnsNestedBatchesUnvalidated) {
  // The splitter frames a nested envelope as one item; rejecting it is the
  // engine's per-slot job (QueryEngine.NestedBatchErrorsInItsOwnSlot).
  auto items = parse_batch_request(
      R"({"op":"batch","requests":[{"op":"batch","requests":[]}]})");
  ASSERT_TRUE(items.ok()) << items.error();
  ASSERT_EQ(items.value().size(), 1u);
  EXPECT_TRUE(looks_like_batch(items.value()[0]));
}

TEST(ParseBatchRequest, RejectsMalformedFraming) {
  const char* bad[] = {
      R"({"op":"batch"})",                             // no requests field
      R"({"op":"batch","requests":{}})",               // not an array
      R"({"requests":[],"op":"batch"})",               // wrong field order
      R"({"op":"batch","requests":[{"op":"stats"})",   // unterminated array
      R"({"op":"batch","requests":[{"op":"stats"}])",  // unterminated object
      R"({"op":"batch","requests":["x"]})",            // item not an object
      R"({"op":"batch","requests":[{"op":"st)",        // unterminated item
      R"({"op":"batch","requests":[{},{}]} trailing)", // trailing bytes
      R"({"op":"batch","requests":[{} {}]})",          // missing comma
  };
  for (const char* line : bad) {
    EXPECT_FALSE(parse_batch_request(line).ok()) << line;
  }
}

TEST(ParseBatchRequest, EnforcesEnvelopeCaps) {
  // More than kMaxBatchRequests items.
  std::string many = R"({"op":"batch","requests":[)";
  for (std::size_t i = 0; i <= kMaxBatchRequests; ++i) {
    if (i > 0) many += ',';
    many += R"({"op":"stats"})";
  }
  many += "]}";
  ASSERT_LE(many.size(), kMaxBatchBytes);
  auto over_count = parse_batch_request(many);
  ASSERT_FALSE(over_count.ok());
  EXPECT_NE(over_count.error().find("more than"), std::string::npos);

  // One item over the per-item byte cap (the splitter allows anything up
  // to kMaxVerifyRequestBytes — the widest per-op budget — and leaves the
  // tighter per-op cap to parse_request).
  std::string fat_item = R"({"op":"batch","requests":[{"op":"stats","x":")" +
                         std::string(kMaxVerifyRequestBytes, 'a') + "\"}]}";
  ASSERT_LE(fat_item.size(), kMaxBatchBytes);
  auto over_item = parse_batch_request(fat_item);
  ASSERT_FALSE(over_item.ok());
  EXPECT_NE(over_item.error().find("exceeds"), std::string::npos);

  // A verify-sized item passes the splitter but a non-verify op of the
  // same size still fails per-op validation.
  std::string mid_item = R"({"op":"batch","requests":[{"op":"stats")" +
                         std::string(kMaxRequestBytes, ' ') + "}]}";
  ASSERT_LE(mid_item.size(), kMaxBatchBytes);
  auto mid = parse_batch_request(mid_item);
  ASSERT_TRUE(mid.ok()) << mid.error();
  ASSERT_EQ(mid.value().size(), 1u);
  EXPECT_FALSE(parse_request(mid.value()[0]).ok());

  // The whole line over the envelope byte cap fails before any parsing.
  std::string fat_line(kMaxBatchBytes + 1, ' ');
  EXPECT_FALSE(parse_batch_request(fat_line).ok());
}

}  // namespace
}  // namespace rs::query
