#include "src/store/database.h"

#include <gtest/gtest.h>

#include "src/x509/builder.h"

namespace rs::store {
namespace {

using rs::util::Date;

std::shared_ptr<const rs::x509::Certificate> make_cert(std::uint64_t seed) {
  rs::x509::Name n;
  n.add_common_name("DB Root " + std::to_string(seed));
  return std::make_shared<const rs::x509::Certificate>(
      rs::x509::CertificateBuilder().subject(n).key_seed(seed).build());
}

Snapshot snap(std::string provider, Date date, std::vector<TrustEntry> entries) {
  Snapshot s;
  s.provider = std::move(provider);
  s.date = date;
  s.entries = std::move(entries);
  return s;
}

StoreDatabase make_db() {
  auto shared = make_cert(1);
  auto a_only = make_cert(2);
  auto removed = make_cert(3);

  StoreDatabase db;
  {
    ProviderHistory h("A");
    h.add(snap("A", Date::ymd(2019, 1, 1),
               {make_tls_anchor(shared), make_tls_anchor(removed)}));
    h.add(snap("A", Date::ymd(2020, 1, 1),
               {make_tls_anchor(shared), make_tls_anchor(a_only)}));
    db.add(std::move(h));
  }
  {
    ProviderHistory h("B");
    h.add(snap("B", Date::ymd(2019, 6, 1), {make_tls_anchor(shared)}));
    db.add(std::move(h));
  }
  return db;
}

TEST(StoreDatabase, ProvidersAndCounts) {
  const StoreDatabase db = make_db();
  EXPECT_EQ(db.provider_count(), 2u);
  EXPECT_EQ(db.total_snapshots(), 3u);
  const auto names = db.providers();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "A");
  EXPECT_EQ(names[1], "B");
  EXPECT_NE(db.find("A"), nullptr);
  EXPECT_EQ(db.find("Z"), nullptr);
}

TEST(StoreDatabase, AddReplacesExistingProvider) {
  StoreDatabase db = make_db();
  ProviderHistory h("A");
  h.add(snap("A", Date::ymd(2021, 1, 1), {}));
  db.add(std::move(h));
  EXPECT_EQ(db.provider_count(), 2u);
  EXPECT_EQ(db.find("A")->size(), 1u);
}

TEST(StoreDatabase, CertificateLookup) {
  const StoreDatabase db = make_db();
  auto shared = make_cert(1);
  auto found = db.certificate(shared->sha256());
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->sha256(), shared->sha256());
  EXPECT_EQ(db.certificate(make_cert(99)->sha256()), nullptr);
}

TEST(StoreDatabase, TlsPresenceIntervals) {
  const StoreDatabase db = make_db();
  auto shared = make_cert(1);
  const auto presence = db.tls_presence(shared->sha256());
  ASSERT_EQ(presence.size(), 2u);
  EXPECT_EQ(presence[0].provider, "A");
  EXPECT_EQ(presence[0].first_seen, Date::ymd(2019, 1, 1));
  EXPECT_EQ(presence[0].last_seen, Date::ymd(2020, 1, 1));
  EXPECT_TRUE(presence[0].in_latest);

  auto removed = make_cert(3);
  const auto removed_presence = db.tls_presence(removed->sha256());
  ASSERT_EQ(removed_presence.size(), 1u);
  EXPECT_EQ(removed_presence[0].last_seen, Date::ymd(2019, 1, 1));
  EXPECT_FALSE(removed_presence[0].in_latest);
}

TEST(StoreDatabase, EverSets) {
  const StoreDatabase db = make_db();
  EXPECT_EQ(db.all_tls_roots_ever().size(), 3u);
}

}  // namespace
}  // namespace rs::store
