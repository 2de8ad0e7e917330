#include "src/store/database.h"

#include <gtest/gtest.h>

#include "src/store/membership.h"
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

// A database's certificates are looked up through its interned universe.
TEST(StoreDatabase, CertificateLookup) {
  const StoreDatabase db = make_db();
  const auto interner = CertInterner::from_database(db);
  const auto id = interner.id_of(make_cert(1)->sha256());
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(interner.digest_of(*id), make_cert(1)->sha256());
  EXPECT_EQ(interner.id_of(make_cert(99)->sha256()), std::nullopt);
}

// Ever-sets are OR-accumulated membership rows.
TEST(StoreDatabase, EverSets) {
  const StoreDatabase db = make_db();
  const auto table = MembershipTable::build(db);
  IdSet ever_tls;
  for (const auto& [name, history] : db.histories()) {
    (void)name;
    for (const auto& row : table.lane(history)) {
      ever_tls |= in_scope(row, Scope::kTls);
    }
  }
  EXPECT_EQ(ever_tls.size(), 3u);
}

}  // namespace
}  // namespace rs::store
