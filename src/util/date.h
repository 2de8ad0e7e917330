// Civil-calendar date arithmetic for root-store snapshot timelines.
//
// Root-store measurement reasons about dates at day granularity across a
// 1950..2050 window (X.509 UTCTime pivots at 2050).  A Date is a thin value
// type over a days-since-Unix-epoch count, with proleptic-Gregorian civil
// conversions (Howard Hinnant's algorithms) implemented from scratch.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rs::util {

/// A civil (year, month, day) triple.  Month is 1..12, day 1..31.
struct CivilDate {
  int year = 1970;
  int month = 1;
  int day = 1;

  friend auto operator<=>(const CivilDate&, const CivilDate&) = default;
};

/// True if `year` is a leap year in the proleptic Gregorian calendar.
bool is_leap_year(int year) noexcept;

/// Number of days in `month` (1..12) of `year`.
int days_in_month(int year, int month) noexcept;

/// True if (year, month, day) names a real civil date.
bool is_valid_civil(const CivilDate& c) noexcept;

/// Calendar date as a count of days since 1970-01-01 (may be negative).
///
/// Supports ordering, day arithmetic, and conversion to/from civil triples
/// and ISO-8601 strings.  Default-constructed Date is the Unix epoch.
class Date {
 public:
  constexpr Date() = default;

  /// Wraps an explicit days-since-epoch count.
  static constexpr Date from_days(std::int64_t days) noexcept {
    Date d;
    d.days_ = days;
    return d;
  }

  /// Builds from a civil triple; invalid triples return nullopt.
  static std::optional<Date> from_civil(const CivilDate& c) noexcept;

  /// Convenience: from_civil({y, m, d}) that asserts validity.
  /// Intended for literals in tests and curated scenario data.
  static Date ymd(int year, int month, int day);

  /// The days parse() can produce: 0000-01-01 .. 9999-12-31.
  static constexpr std::int64_t kMinIsoDays = -719528;
  static constexpr std::int64_t kMaxIsoDays = 2932896;

  /// Parses "YYYY-MM-DD" (eight ASCII digits; no sign, no space); returns
  /// nullopt on any deviation.
  static std::optional<Date> parse(std::string_view iso);

  constexpr std::int64_t days_since_epoch() const noexcept { return days_; }

  /// Civil triple for this date.
  CivilDate civil() const noexcept;

  int year() const noexcept { return civil().year; }
  int month() const noexcept { return civil().month; }
  int day() const noexcept { return civil().day; }

  /// True for the days parse() can produce (kMinIsoDays..kMaxIsoDays).
  constexpr bool has_iso_year() const noexcept {
    return days_ >= kMinIsoDays && days_ <= kMaxIsoDays;
  }

  /// Appends to_string()'s text to `out` — the one date formatter.  Years
  /// 0000-9999 are written in place; any other day keeps the printf form
  /// "%04d-%02d-%02d".
  void append_to(std::string& out) const;

  /// ISO-8601 "YYYY-MM-DD".
  std::string to_string() const;

  /// Day-of-week, 0 = Sunday .. 6 = Saturday.
  int weekday() const noexcept;

  /// Adds (or subtracts) whole days.
  constexpr Date operator+(std::int64_t days) const noexcept {
    return from_days(days_ + days);
  }
  constexpr Date operator-(std::int64_t days) const noexcept {
    return from_days(days_ - days);
  }
  /// Whole days between two dates (this - other).
  constexpr std::int64_t operator-(const Date& other) const noexcept {
    return days_ - other.days_;
  }

  /// Adds `n` civil months, clamping the day to the target month's length
  /// (2021-01-31 + 1 month = 2021-02-28).  `n` may be negative.
  Date add_months(int n) const noexcept;

  friend constexpr auto operator<=>(const Date&, const Date&) = default;

 private:
  std::int64_t days_ = 0;
};

/// Fractional years between two dates (b - a), using 365.2425-day years.
double years_between(const Date& a, const Date& b) noexcept;

}  // namespace rs::util
