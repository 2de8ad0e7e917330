#include "src/formats/portable.h"

#include <gtest/gtest.h>

#include "src/encoding/base64.h"
#include "src/util/hex.h"
#include "src/util/strings.h"
#include "src/x509/builder.h"

namespace rs::formats {
namespace {

using rs::store::TrustEntry;
using rs::store::TrustLevel;
using rs::store::TrustPurpose;
using rs::util::Date;

std::shared_ptr<const rs::x509::Certificate> make_cert(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("RSTS Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
}

TrustEntry rich_entry(std::uint64_t seed) {
  TrustEntry e = rs::store::make_anchor_for(
      make_cert(seed), {TrustPurpose::kServerAuth});
  e.trust_for(TrustPurpose::kServerAuth).distrust_after = Date::ymd(2020, 6, 1);
  e.trust_for(TrustPurpose::kEmailProtection).level = TrustLevel::kDistrusted;
  return e;
}

TEST(Rsts, FullFidelityRoundTrip) {
  const std::vector<TrustEntry> entries = {rich_entry(1), rich_entry(2)};
  const std::string text = write_rsts(entries);
  auto parsed = parse_rsts(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_TRUE(parsed.value().warnings.empty())
      << parsed.value().warnings.front();
  ASSERT_EQ(parsed.value().entries.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& in = entries[i];
    const auto& back = parsed.value().entries[i];
    EXPECT_EQ(back.certificate->der(), in.certificate->der());
    for (TrustPurpose p : rs::store::kAllPurposes) {
      EXPECT_EQ(back.trust_for(p).level, in.trust_for(p).level);
      EXPECT_EQ(back.trust_for(p).distrust_after,
                in.trust_for(p).distrust_after);
    }
  }
}

TEST(Rsts, PreservesWhatPemLoses) {
  // This is the format's reason to exist: the §6 failure mode fixed.
  const TrustEntry e = rich_entry(3);
  auto parsed = parse_rsts(write_rsts({e}));
  ASSERT_TRUE(parsed.ok());
  const auto& back = parsed.value().entries.at(0);
  EXPECT_TRUE(back.is_partially_distrusted_tls());
  EXPECT_EQ(back.trust_for(TrustPurpose::kEmailProtection).level,
            TrustLevel::kDistrusted);
  EXPECT_FALSE(back.is_anchor_for(TrustPurpose::kCodeSigning));
}

TEST(Rsts, HeaderValidation) {
  EXPECT_FALSE(parse_rsts("").ok());
  EXPECT_FALSE(parse_rsts("BOGUS 1\n").ok());
  EXPECT_FALSE(parse_rsts("RSTS\n").ok());
  EXPECT_FALSE(parse_rsts("RSTS one\n").ok());
  EXPECT_FALSE(parse_rsts("RSTS 99\n").ok());
  auto empty = parse_rsts("RSTS 1\n");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().entries.empty());
}

TEST(Rsts, CommentsAndBlankLinesIgnored) {
  std::string text = write_rsts({rich_entry(4)});
  text.insert(text.find("root"), "# leading comment\n\n");
  auto parsed = parse_rsts(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().entries.size(), 1u);
}

TEST(Rsts, Sha256PinRejectsSubstitutedCert) {
  // Swap the cert line for another root's DER while keeping the pin.
  const std::string a = write_rsts({rich_entry(5)});
  const std::string b = write_rsts({rich_entry(6)});
  auto cert_line = [](const std::string& doc) {
    for (const auto& line : rs::util::split_lines(doc)) {
      const auto t = rs::util::trim(line);
      if (rs::util::starts_with(t, "cert ")) return std::string(t);
    }
    return std::string();
  };
  std::string tampered = a;
  const std::string a_cert = cert_line(a);
  const std::string b_cert = cert_line(b);
  tampered.replace(tampered.find(a_cert), a_cert.size(), b_cert);
  auto parsed = parse_rsts(tampered);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().entries.empty());
  ASSERT_FALSE(parsed.value().warnings.empty());
  EXPECT_NE(parsed.value().warnings[0].find("pin mismatch"),
            std::string::npos);
}

TEST(Rsts, Sha256PinCheckedOnPoolHits) {
  // The pool already holds root A, so A's cert line in B's block is a hit
  // that skips decoding; B's pin must still reject it.
  const TrustEntry a = rich_entry(8);
  const TrustEntry b = rich_entry(9);
  CertPool pool;
  auto warm = parse_rsts(write_rsts({a}), pool);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm.value().entries.size(), 1u);

  std::string tampered = write_rsts({b});
  const std::string b_text = rs::encoding::base64_encode(b.certificate->der());
  tampered.replace(tampered.find(b_text), b_text.size(),
                   rs::encoding::base64_encode(a.certificate->der()));
  const std::size_t hits = pool.counts().hits;
  auto parsed = parse_rsts(tampered, pool);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(pool.counts().hits, hits + 1);
  EXPECT_TRUE(parsed.value().entries.empty());
  ASSERT_EQ(parsed.value().warnings.size(), 1u);
  EXPECT_NE(parsed.value().warnings[0].find("pin mismatch"),
            std::string::npos);
}

TEST(Rsts, UnknownKeysWarnButParse) {
  std::string text = write_rsts({rich_entry(7)});
  text.insert(text.find("  sha256"), "  future-field some value\n");
  auto parsed = parse_rsts(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().entries.size(), 1u);
  ASSERT_FALSE(parsed.value().warnings.empty());
  EXPECT_NE(parsed.value().warnings[0].find("future-field"),
            std::string::npos);
}

TEST(Rsts, OmittedTrustDefaultsToMustVerify) {
  std::string text = write_rsts({rich_entry(8)});
  // Strip every trust line.
  std::string stripped;
  for (const auto& line : rs::util::split_lines(text)) {
    if (rs::util::starts_with(rs::util::trim(line), "trust ")) continue;
    stripped += std::string(line) + "\n";
  }
  auto parsed = parse_rsts(stripped);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().entries.size(), 1u);
  for (TrustPurpose p : rs::store::kAllPurposes) {
    EXPECT_EQ(parsed.value().entries[0].trust_for(p).level,
              TrustLevel::kMustVerify);
  }
}

TEST(Rsts, MissingPinRejectsEntry) {
  std::string text = write_rsts({rich_entry(14)});
  // Strip the sha256 line entirely.
  std::string stripped;
  for (const auto& line : rs::util::split_lines(text)) {
    if (rs::util::starts_with(rs::util::trim(line), "sha256 ")) continue;
    stripped += std::string(line) + "\n";
  }
  auto parsed = parse_rsts(stripped);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().entries.empty());
  ASSERT_FALSE(parsed.value().warnings.empty());
  EXPECT_NE(parsed.value().warnings[0].find("without sha256 pin"),
            std::string::npos);
}

TEST(Rsts, UnterminatedBlockIsError) {
  std::string text = write_rsts({rich_entry(9)});
  text.resize(text.rfind("end"));
  auto parsed = parse_rsts(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error().find("unterminated"), std::string::npos);
}

TEST(Rsts, BadBase64SkipsEntryKeepsOthers) {
  std::string text = write_rsts({rich_entry(10), rich_entry(11)});
  const std::size_t pos = text.find("cert ") + 5;
  text[pos] = '!';
  auto parsed = parse_rsts(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().entries.size(), 1u);
  EXPECT_FALSE(parsed.value().warnings.empty());
}

TEST(Rsts, DoubleRoundTripIsStable) {
  const std::string once = write_rsts({rich_entry(12), rich_entry(13)});
  auto parsed = parse_rsts(once);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(write_rsts(parsed.value().entries), once);
}

TEST(Rsts, LabelCannotInjectLines) {
  // A distrusted root whose CN spells out a second, trusted root block
  // (with a valid pin and cert of another certificate).  Written verbatim,
  // the label's newlines would end the block early and the document would
  // read back as two entries, a TLS anchor the store never held and the
  // original root, with a warning for the certless block left in front.
  const auto other = make_cert(21);
  rs::x509::Name n;
  n.add_common_name("Innocent\nend\nroot\n  sha256 " +
                    rs::util::hex_encode(other->sha256()) + "\n  cert " +
                    rs::encoding::base64_encode(other->der()) +
                    "\n  trust server-auth trusted-delegator\nend\nroot");
  TrustEntry evil;
  evil.certificate = std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(20).build());
  for (TrustPurpose p : rs::store::kAllPurposes) {
    evil.trust_for(p).level = TrustLevel::kDistrusted;
  }

  const std::string text = write_rsts({evil});
  auto parsed = parse_rsts(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_TRUE(parsed.value().warnings.empty())
      << parsed.value().warnings.front();
  ASSERT_EQ(parsed.value().entries.size(), 1u);
  const auto& back = parsed.value().entries[0];
  EXPECT_EQ(back.certificate->der(), evil.certificate->der());
  for (TrustPurpose p : rs::store::kAllPurposes) {
    EXPECT_EQ(back.trust_for(p).level, TrustLevel::kDistrusted);
  }
  // The label keeps every byte but the control bytes.
  EXPECT_NE(text.find("  label Innocentendroot  sha256 "), std::string::npos);
}

}  // namespace
}  // namespace rs::formats
