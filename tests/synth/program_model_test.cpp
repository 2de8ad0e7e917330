#include "src/synth/program_model.h"

#include <gtest/gtest.h>

namespace rs::synth {
namespace {

using rs::store::TrustPurpose;
using rs::util::Date;

RootSpec spec(const std::string& id) {
  RootSpec s;
  s.id = id;
  s.common_name = id + " CN";
  s.organization = "Org";
  s.not_before = Date::ymd(2005, 1, 1);
  s.not_after = Date::ymd(2035, 1, 1);
  return s;
}

// The cursor's state after advancing to `when`.
std::vector<rs::store::TrustEntry> state_at(TimelineCursor& cursor, Date when) {
  cursor.advance_to(when);
  return cursor.entries();
}

TEST(CertFactory, MemoizesAndIsDeterministic) {
  CertFactory f1(1), f2(1), f3(2);
  const auto s = spec("a");
  auto c1 = f1.get(s);
  auto c1_again = f1.get(s);
  EXPECT_EQ(c1.get(), c1_again.get());  // same object
  EXPECT_EQ(f1.built_count(), 1u);
  EXPECT_EQ(c1->der(), f2.get(s)->der());      // same seed, same bytes
  EXPECT_NE(c1->der(), f3.get(s)->der());      // different factory seed
  EXPECT_EQ(f1.find("missing"), nullptr);
  EXPECT_NE(f1.find("a"), nullptr);
}

TEST(Timeline, IncludeRemoveLifecycle) {
  CertFactory f(1);
  Timeline t;
  t.add_spec(spec("a"));
  t.include(Date::ymd(2010, 1, 1), "a");
  t.remove(Date::ymd(2015, 1, 1), "a");

  TimelineCursor cursor(t, f);
  EXPECT_TRUE(state_at(cursor, Date::ymd(2009, 12, 31)).empty());
  EXPECT_EQ(state_at(cursor, Date::ymd(2010, 1, 1)).size(), 1u);
  EXPECT_EQ(state_at(cursor, Date::ymd(2014, 12, 31)).size(), 1u);
  EXPECT_TRUE(state_at(cursor, Date::ymd(2015, 1, 1)).empty());
}

TEST(Timeline, IncludePurposesRespected) {
  CertFactory f(1);
  Timeline t;
  t.add_spec(spec("a"));
  t.include(Date::ymd(2010, 1, 1), "a", {TrustPurpose::kEmailProtection});
  TimelineCursor cursor(t, f);
  const auto entries = state_at(cursor, Date::ymd(2012, 1, 1));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_FALSE(entries[0].is_tls_anchor());
  EXPECT_TRUE(entries[0].is_anchor_for(TrustPurpose::kEmailProtection));
}

TEST(Timeline, DistrustAfterApplied) {
  CertFactory f(1);
  Timeline t;
  t.add_spec(spec("a"));
  t.include(Date::ymd(2010, 1, 1), "a");
  t.set_server_distrust_after(Date::ymd(2020, 4, 15), "a",
                              Date::ymd(2020, 1, 1));
  TimelineCursor cursor(t, f);
  const auto before = state_at(cursor, Date::ymd(2020, 4, 14));
  EXPECT_FALSE(before[0].is_partially_distrusted_tls());
  const auto after = state_at(cursor, Date::ymd(2020, 4, 15));
  EXPECT_TRUE(after[0].is_partially_distrusted_tls());
  EXPECT_EQ(after[0].trust_for(TrustPurpose::kServerAuth).distrust_after,
            Date::ymd(2020, 1, 1));
}

TEST(Timeline, DistrustPurposesKeepsEntryPresent) {
  CertFactory f(1);
  Timeline t;
  t.add_spec(spec("a"));
  t.include(Date::ymd(2010, 1, 1), "a",
            {TrustPurpose::kServerAuth, TrustPurpose::kEmailProtection});
  t.distrust(Date::ymd(2018, 1, 1), "a", {TrustPurpose::kServerAuth});
  TimelineCursor cursor(t, f);
  const auto entries = state_at(cursor, Date::ymd(2019, 1, 1));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_FALSE(entries[0].is_tls_anchor());
  EXPECT_EQ(entries[0].trust_for(TrustPurpose::kServerAuth).level,
            rs::store::TrustLevel::kDistrusted);
  EXPECT_TRUE(entries[0].is_anchor_for(TrustPurpose::kEmailProtection));
}

TEST(Timeline, ReIncludeAfterRemoveResetsTrust) {
  CertFactory f(1);
  Timeline t;
  t.add_spec(spec("a"));
  t.include(Date::ymd(2010, 1, 1), "a");
  t.set_server_distrust_after(Date::ymd(2012, 1, 1), "a", Date::ymd(2011, 1, 1));
  t.remove(Date::ymd(2014, 1, 1), "a");
  t.include(Date::ymd(2016, 1, 1), "a");
  TimelineCursor cursor(t, f);
  const auto entries = state_at(cursor, Date::ymd(2017, 1, 1));
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_FALSE(entries[0].is_partially_distrusted_tls());
}

TEST(Timeline, ActionsOnAbsentRootsAreNoOps) {
  CertFactory f(1);
  Timeline t;
  t.add_spec(spec("a"));
  t.remove(Date::ymd(2010, 1, 1), "a");
  t.set_server_distrust_after(Date::ymd(2011, 1, 1), "a", Date::ymd(2011, 1, 1));
  TimelineCursor cursor(t, f);
  EXPECT_TRUE(state_at(cursor, Date::ymd(2012, 1, 1)).empty());
}

TEST(Timeline, EntryOrderIsFirstInclusionOrder) {
  CertFactory f(1);
  Timeline t;
  t.add_spec(spec("a"));
  t.add_spec(spec("b"));
  t.add_spec(spec("c"));
  t.include(Date::ymd(2012, 1, 1), "b");
  t.include(Date::ymd(2010, 1, 1), "c");
  t.include(Date::ymd(2011, 1, 1), "a");
  TimelineCursor cursor(t, f);
  const auto entries = state_at(cursor, Date::ymd(2013, 1, 1));
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].certificate->subject().common_name(), "c CN");
  EXPECT_EQ(entries[1].certificate->subject().common_name(), "a CN");
  EXPECT_EQ(entries[2].certificate->subject().common_name(), "b CN");
}

}  // namespace
}  // namespace rs::synth
