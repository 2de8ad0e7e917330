#include "src/util/date.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace rs::util {
namespace {

TEST(Date, EpochIsDayZero) {
  EXPECT_EQ(Date::ymd(1970, 1, 1).days_since_epoch(), 0);
}

TEST(Date, KnownOffsets) {
  EXPECT_EQ(Date::ymd(1970, 1, 2).days_since_epoch(), 1);
  EXPECT_EQ(Date::ymd(1969, 12, 31).days_since_epoch(), -1);
  EXPECT_EQ(Date::ymd(2000, 3, 1).days_since_epoch(), 11017);
  EXPECT_EQ(Date::ymd(2021, 11, 2).days_since_epoch(), 18933);
}

TEST(Date, CivilRoundTripAcrossCenturyBoundaries) {
  for (int year : {1950, 1999, 2000, 2001, 2049, 2050, 2100}) {
    for (int month : {1, 2, 6, 12}) {
      for (int day : {1, 28}) {
        const Date d = Date::ymd(year, month, day);
        const CivilDate c = d.civil();
        EXPECT_EQ(c.year, year);
        EXPECT_EQ(c.month, month);
        EXPECT_EQ(c.day, day);
      }
    }
  }
}

TEST(Date, LeapYearRules) {
  EXPECT_TRUE(is_leap_year(2000));   // divisible by 400
  EXPECT_FALSE(is_leap_year(1900));  // divisible by 100 only
  EXPECT_TRUE(is_leap_year(2004));
  EXPECT_FALSE(is_leap_year(2021));
}

TEST(Date, DaysInMonthHonoursLeapFebruary) {
  EXPECT_EQ(days_in_month(2000, 2), 29);
  EXPECT_EQ(days_in_month(1900, 2), 28);
  EXPECT_EQ(days_in_month(2021, 4), 30);
  EXPECT_EQ(days_in_month(2021, 12), 31);
  EXPECT_EQ(days_in_month(2021, 13), 0);
}

TEST(Date, FromCivilRejectsInvalid) {
  EXPECT_FALSE(Date::from_civil({2021, 2, 29}).has_value());
  EXPECT_FALSE(Date::from_civil({2021, 0, 1}).has_value());
  EXPECT_FALSE(Date::from_civil({2021, 13, 1}).has_value());
  EXPECT_FALSE(Date::from_civil({2021, 4, 31}).has_value());
  EXPECT_TRUE(Date::from_civil({2020, 2, 29}).has_value());
}

TEST(Date, ParseAcceptsIsoOnly) {
  EXPECT_EQ(Date::parse("2021-11-02"), Date::ymd(2021, 11, 2));
  EXPECT_FALSE(Date::parse("2021-11-2").has_value());
  EXPECT_FALSE(Date::parse("2021/11/02").has_value());
  EXPECT_FALSE(Date::parse("21-11-02").has_value());
  EXPECT_FALSE(Date::parse("2021-13-02").has_value());
  EXPECT_FALSE(Date::parse("").has_value());
  EXPECT_FALSE(Date::parse("2021-02-29").has_value());
}

// "YYYY-MM-DD" means eight ASCII digits: std::from_chars would take a
// leading '-', so a signed year once parsed as a negative one.
TEST(Date, ParseRejectsSigns) {
  EXPECT_FALSE(Date::parse("-001-01-01").has_value());
  EXPECT_FALSE(Date::parse("-999-12-31").has_value());
  EXPECT_FALSE(Date::parse("+001-01-01").has_value());
  EXPECT_FALSE(Date::parse("2020--1-01").has_value());
  EXPECT_FALSE(Date::parse("2020-01--1").has_value());
  EXPECT_FALSE(Date::parse(" 020-01-01").has_value());
  EXPECT_EQ(Date::parse("0000-01-01"), Date::from_days(Date::kMinIsoDays));
  EXPECT_EQ(Date::parse("9999-12-31"), Date::from_days(Date::kMaxIsoDays));
}

TEST(Date, ToStringPadsFields) {
  EXPECT_EQ(Date::ymd(2005, 5, 9).to_string(), "2005-05-09");
}

// Years 0000-9999 take the fixed-width path; every other day keeps the
// printf form ("%04d-%02d-%02d"), so to_string is the same for any Date.
TEST(Date, ToStringMatchesPrintfOnEveryYear) {
  const auto printf_form = [](const Date& d) {
    const CivilDate c = d.civil();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", c.year, c.month, c.day);
    return std::string(buf);
  };
  for (const std::int64_t days :
       {Date::kMinIsoDays - 400, Date::kMinIsoDays - 1, Date::kMinIsoDays,
        std::int64_t{-1}, std::int64_t{0}, std::int64_t{18262},
        Date::kMaxIsoDays, Date::kMaxIsoDays + 1, Date::kMaxIsoDays + 4000,
        std::int64_t{-800000}, std::int64_t{3000000}}) {
    const Date d = Date::from_days(days);
    EXPECT_EQ(d.to_string(), printf_form(d)) << days;
  }
  for (std::int64_t days = Date::kMinIsoDays - 2000;
       days <= Date::kMaxIsoDays + 2000; days += 331) {
    const Date d = Date::from_days(days);
    ASSERT_EQ(d.to_string(), printf_form(d)) << days;
    std::string out = "x";
    d.append_to(out);
    ASSERT_EQ(out, "x" + printf_form(d)) << days;
  }
  EXPECT_EQ(Date::from_days(Date::kMinIsoDays - 1).to_string(), "-001-12-31");
  EXPECT_EQ(Date::from_days(Date::kMaxIsoDays + 1).to_string(), "10000-01-01");
}

TEST(Date, ParseToStringRoundTrip) {
  for (std::int64_t days = -10000; days <= 30000; days += 997) {
    const Date d = Date::from_days(days);
    EXPECT_EQ(Date::parse(d.to_string()), d) << d.to_string();
  }
}

TEST(Date, WeekdayKnownValues) {
  EXPECT_EQ(Date::ymd(1970, 1, 1).weekday(), 4);   // Thursday
  EXPECT_EQ(Date::ymd(2021, 11, 2).weekday(), 2);  // IMC '21 opened a Tuesday
  EXPECT_EQ(Date::ymd(2000, 1, 1).weekday(), 6);   // Saturday
}

TEST(Date, ArithmeticAndDifference) {
  const Date a = Date::ymd(2021, 1, 1);
  EXPECT_EQ(a + 31, Date::ymd(2021, 2, 1));
  EXPECT_EQ(a - 1, Date::ymd(2020, 12, 31));
  EXPECT_EQ(Date::ymd(2021, 12, 31) - a, 364);
}

TEST(Date, AddMonthsClampsDay) {
  EXPECT_EQ(Date::ymd(2021, 1, 31).add_months(1), Date::ymd(2021, 2, 28));
  EXPECT_EQ(Date::ymd(2020, 1, 31).add_months(1), Date::ymd(2020, 2, 29));
  EXPECT_EQ(Date::ymd(2021, 3, 15).add_months(-3), Date::ymd(2020, 12, 15));
  EXPECT_EQ(Date::ymd(2021, 6, 30).add_months(12), Date::ymd(2022, 6, 30));
  EXPECT_EQ(Date::ymd(2021, 6, 30).add_months(0), Date::ymd(2021, 6, 30));
}

TEST(Date, AddMonthsAcrossYearBoundaries) {
  EXPECT_EQ(Date::ymd(2020, 11, 15).add_months(3), Date::ymd(2021, 2, 15));
  EXPECT_EQ(Date::ymd(2021, 2, 15).add_months(-3), Date::ymd(2020, 11, 15));
}

TEST(Date, YearsBetween) {
  EXPECT_NEAR(years_between(Date::ymd(2019, 1, 1), Date::ymd(2021, 1, 1)), 2.0,
              0.01);
  EXPECT_NEAR(years_between(Date::ymd(2021, 1, 1), Date::ymd(2019, 1, 1)),
              -2.0, 0.01);
}

TEST(Date, OrderingIsTotal) {
  EXPECT_LT(Date::ymd(2011, 10, 6), Date::ymd(2017, 7, 27));
  EXPECT_GT(Date::ymd(2021, 5, 1), Date::ymd(2021, 4, 30));
  EXPECT_EQ(Date::ymd(2021, 5, 1), *Date::parse("2021-05-01"));
}

// Property: days_since_epoch is strictly monotone in civil order.
TEST(DateProperty, MonotoneOverSweep) {
  Date prev = Date::ymd(1949, 12, 31);
  for (int year = 1950; year <= 2060; ++year) {
    for (int month = 1; month <= 12; ++month) {
      const Date d = Date::ymd(year, month, 1);
      EXPECT_GT(d, prev);
      prev = d;
    }
  }
}

}  // namespace
}  // namespace rs::util
