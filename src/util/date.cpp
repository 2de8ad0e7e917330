#include "src/util/date.h"

#include <array>
#include <cassert>
#include <cstdio>

namespace rs::util {

bool is_leap_year(int year) noexcept {
  return year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
}

int days_in_month(int year, int month) noexcept {
  static constexpr std::array<int, 12> kDays = {31, 28, 31, 30, 31, 30,
                                                31, 31, 30, 31, 30, 31};
  if (month < 1 || month > 12) return 0;
  if (month == 2 && is_leap_year(year)) return 29;
  return kDays[static_cast<std::size_t>(month - 1)];
}

bool is_valid_civil(const CivilDate& c) noexcept {
  return c.month >= 1 && c.month <= 12 && c.day >= 1 &&
         c.day <= days_in_month(c.year, c.month);
}

namespace {

// days_from_civil / civil_from_days per Howard Hinnant's public-domain
// chrono-compatible algorithms.
std::int64_t days_from_civil(int y, int m, int d) noexcept {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);             // [0, 399]
  const unsigned doy =
      static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;            // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

CivilDate civil_from_days(std::int64_t z) noexcept {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);          // [0, 146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;             // [0, 399]
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);          // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                               // [0, 11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;                       // [1, 31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                            // [1, 12]
  return CivilDate{static_cast<int>(y + (m <= 2)), static_cast<int>(m),
                   static_cast<int>(d)};
}

}  // namespace

std::optional<Date> Date::from_civil(const CivilDate& c) noexcept {
  if (!is_valid_civil(c)) return std::nullopt;
  return from_days(days_from_civil(c.year, c.month, c.day));
}

Date Date::ymd(int year, int month, int day) {
  auto d = from_civil(CivilDate{year, month, day});
  assert(d.has_value() && "Date::ymd called with an invalid civil date");
  return *d;
}

std::optional<Date> Date::parse(std::string_view iso) {
  // Exactly "YYYY-MM-DD": 4-2-2 ASCII digits with '-' separators.
  if (iso.size() != 10 || iso[4] != '-' || iso[7] != '-') return std::nullopt;
  const auto number = [iso](std::size_t at, std::size_t len, int& out) {
    out = 0;
    for (std::size_t i = at; i < at + len; ++i) {
      if (iso[i] < '0' || iso[i] > '9') return false;
      out = out * 10 + (iso[i] - '0');
    }
    return true;
  };
  int y = 0, m = 0, d = 0;
  if (!number(0, 4, y) || !number(5, 2, m) || !number(8, 2, d)) {
    return std::nullopt;
  }
  return from_civil(CivilDate{y, m, d});
}

CivilDate Date::civil() const noexcept { return civil_from_days(days_); }

void Date::append_to(std::string& out) const {
  const CivilDate c = civil();
  if (!has_iso_year()) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", c.year, c.month, c.day);
    out += buf;
    return;
  }
  const std::size_t at = out.size();
  out.resize(at + 10);
  char* p = out.data() + at;
  const auto digit = [](int v) { return static_cast<char>('0' + v); };
  p[0] = digit(c.year / 1000);
  p[1] = digit(c.year / 100 % 10);
  p[2] = digit(c.year / 10 % 10);
  p[3] = digit(c.year % 10);
  p[4] = '-';
  p[5] = digit(c.month / 10);
  p[6] = digit(c.month % 10);
  p[7] = '-';
  p[8] = digit(c.day / 10);
  p[9] = digit(c.day % 10);
}

std::string Date::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

int Date::weekday() const noexcept {
  // 1970-01-01 was a Thursday (4).
  std::int64_t w = (days_ + 4) % 7;
  if (w < 0) w += 7;
  return static_cast<int>(w);
}

Date Date::add_months(int n) const noexcept {
  CivilDate c = civil();
  const int total = c.year * 12 + (c.month - 1) + n;
  int y = total / 12;
  int m = total % 12;
  if (m < 0) {
    m += 12;
    --y;
  }
  ++m;
  const int dim = days_in_month(y, m);
  const int d = c.day > dim ? dim : c.day;
  return *from_civil(CivilDate{y, m, d});
}

double years_between(const Date& a, const Date& b) noexcept {
  return static_cast<double>(b - a) / 365.2425;
}

}  // namespace rs::util
