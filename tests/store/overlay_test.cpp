#include "src/store/overlay.h"

#include <gtest/gtest.h>

#include "src/x509/builder.h"

namespace rs::store {
namespace {

using rs::util::Date;

std::shared_ptr<const rs::x509::Certificate> make_cert(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("Overlay Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
}

Snapshot snap(Date date, std::vector<TrustEntry> entries) {
  Snapshot s;
  s.provider = "P";
  s.date = date;
  s.entries = std::move(entries);
  return s;
}

/// TLS anchors of `s` that `overlay` revokes at the snapshot's date
/// (`revoked`) or leaves effective, counted through is_revoked.
std::size_t tls_anchors_where(const Snapshot& s, const TrustOverlay& overlay,
                              bool revoked) {
  std::size_t n = 0;
  for (const auto& e : s.entries) {
    if (e.is_tls_anchor() &&
        overlay.is_revoked(e.certificate->sha256(), s.date) == revoked) {
      ++n;
    }
  }
  return n;
}

TEST(TrustOverlay, RevocationIsDateGated) {
  auto cert = make_cert(1);
  TrustOverlay overlay("Apple");
  overlay.add({cert->sha256(), Date::ymd(2020, 6, 1), "valid.apple.com", 0});

  EXPECT_FALSE(overlay.is_revoked(cert->sha256(), Date::ymd(2020, 5, 31)));
  EXPECT_TRUE(overlay.is_revoked(cert->sha256(), Date::ymd(2020, 6, 1)));
  EXPECT_TRUE(overlay.is_revoked(cert->sha256(), Date::ymd(2021, 1, 1)));
  EXPECT_FALSE(overlay.is_revoked(make_cert(2)->sha256(),
                                  Date::ymd(2021, 1, 1)));
}

TEST(TrustOverlay, FindReturnsRecord) {
  auto cert = make_cert(3);
  TrustOverlay overlay("Apple");
  overlay.add({cert->sha256(), Date::ymd(2015, 6, 30), "valid.apple.com",
               1429});
  const auto* rec = overlay.find(cert->sha256(), Date::ymd(2016, 1, 1));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->source, "valid.apple.com");
  EXPECT_EQ(rec->whitelisted_leaves, 1429u);
  EXPECT_EQ(overlay.find(cert->sha256(), Date::ymd(2015, 6, 29)), nullptr);
}

TEST(TrustOverlay, EffectiveAnchorsSubtractRevocations) {
  auto good = make_cert(4);
  auto revoked = make_cert(5);
  TrustOverlay overlay("Apple");
  overlay.add({revoked->sha256(), Date::ymd(2019, 1, 1), "valid.apple.com", 0});

  const Snapshot before = snap(
      Date::ymd(2018, 6, 1),
      {make_tls_anchor(good), make_tls_anchor(revoked)});
  EXPECT_EQ(tls_anchors_where(before, overlay, false), 2u);
  EXPECT_EQ(tls_anchors_where(before, overlay, true), 0u);

  const Snapshot after = snap(
      Date::ymd(2020, 6, 1),
      {make_tls_anchor(good), make_tls_anchor(revoked)});
  EXPECT_EQ(tls_anchors_where(after, overlay, false), 1u);
  EXPECT_FALSE(overlay.is_revoked(good->sha256(), after.date));
  EXPECT_EQ(tls_anchors_where(after, overlay, true), 1u);
  EXPECT_NE(overlay.find(revoked->sha256(), after.date), nullptr);
}

TEST(TrustOverlay, NonTlsEntriesIgnored) {
  auto email_only = make_anchor_for(make_cert(6),
                                    {TrustPurpose::kEmailProtection});
  TrustOverlay overlay("Apple");
  const Snapshot s = snap(Date::ymd(2020, 1, 1), {email_only});
  EXPECT_EQ(tls_anchors_where(s, overlay, false), 0u);
  EXPECT_EQ(tls_anchors_where(s, overlay, true), 0u);
}

TEST(TrustOverlay, EmptyOverlayIsIdentity) {
  auto cert = make_cert(7);
  TrustOverlay overlay("X");
  EXPECT_TRUE(overlay.empty());
  const Snapshot s = snap(Date::ymd(2020, 1, 1), {make_tls_anchor(cert)});
  EXPECT_EQ(tls_anchors_where(s, overlay, false), 1u);
  EXPECT_EQ(overlay.find(cert->sha256(), s.date), nullptr);
}

}  // namespace
}  // namespace rs::store
