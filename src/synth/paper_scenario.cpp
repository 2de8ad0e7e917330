#include "src/synth/paper_scenario.h"

#include <algorithm>
#include <cassert>

#include "src/crypto/prng.h"
#include "src/obs/span.h"
#include "src/synth/paper_reference.h"
#include "src/synth/user_agents.h"

namespace rs::synth {

using rs::store::TrustPurpose;
using rs::util::Date;
using rs::x509::SignatureScheme;

namespace {

// ---------------------------------------------------------------------------
// Program constants (Table 2 ranges, Table 3 purge dates).
// ---------------------------------------------------------------------------

struct ProgramDates {
  Date start;
  Date end;
  Date weak_rsa_purge;  // 1024-bit removal (Table 3)
  Date md5_purge;       // MD5 removal (Table 3)
  int include_delay_base;    // days from CA creation to inclusion
  int include_delay_spread;
  int expiry_retention;      // days an expired root lingers
  double adoption;           // fraction of the shared pool the program trusts
};

ProgramDates nss_dates() {
  return {Date::ymd(2000, 10, 15), Date::ymd(2021, 5, 15),
          Date::ymd(2015, 10, 15), Date::ymd(2016, 2, 15), 60, 240, 45, 1.0};
}
ProgramDates apple_dates() {
  return {Date::ymd(2002, 8, 15), Date::ymd(2021, 2, 15),
          Date::ymd(2015, 9, 15), Date::ymd(2016, 9, 15), 90, 300, 400, 0.8};
}
ProgramDates microsoft_dates() {
  return {Date::ymd(2006, 12, 15), Date::ymd(2021, 3, 15),
          Date::ymd(2017, 9, 15), Date::ymd(2018, 3, 15), 45, 360, 1500, 1.0};
}
ProgramDates java_dates() {
  return {Date::ymd(2018, 3, 15), Date::ymd(2021, 2, 15),
          Date::ymd(2021, 2, 15), Date::ymd(2019, 2, 15), 0, 0, 120, 1.0};
}

// NSS 3.53 analog: Symantec partial distrust lands, TWCA/SK ID removed.
const Date kNssV53 = Date::ymd(2020, 4, 15);
const Date kSymantecCutoff = Date::ymd(2020, 1, 1);

// ---------------------------------------------------------------------------
// Mainstream CA pool.
// ---------------------------------------------------------------------------

enum class PurposeProfile { kTlsEmail, kTlsOnly, kEmailOnly };

struct PoolRoot {
  RootSpec spec;
  PurposeProfile profile = PurposeProfile::kTlsEmail;
};

std::string pool_name(std::size_t i, int generation) {
  static constexpr const char* kFirst[] = {
      "Trust",  "Secure", "Global",  "Prime", "Atlas", "Cyber", "Sona",
      "Veri",   "Digi",   "Netz",    "First", "Uni",   "Omni",  "Star",
      "Blue",   "Apex",   "Nova",    "Terra", "Quanta", "Shield"};
  static constexpr const char* kSecond[] = {
      "Corp", "Sign", "Cert", "Trust", "Path", "Anchor", "Sec",
      "ID",   "Net",  "Guard", "Link", "Root", "Key",    "Gate"};
  std::string base = std::string(kFirst[i % 20]) + kSecond[(i / 20) % 14];
  base += " Root CA " + std::to_string(i + 1);
  if (generation > 1) base += " G" + std::to_string(generation);
  return base;
}

std::string pool_country(rs::crypto::Prng& rng) {
  static constexpr const char* kCountries[] = {"US", "DE", "GB", "JP", "FR",
                                               "ES", "NL", "CH", "SE", "BE"};
  return kCountries[rng.uniform(10)];
}

/// Generates the shared commercial CA pool (plus modern successors for
/// every weak/MD5 root, so purges do not shrink the stores).
std::vector<PoolRoot> make_mainstream_pool(std::uint64_t seed) {
  std::vector<PoolRoot> pool;
  rs::crypto::Prng rng = rs::crypto::Prng::from_label(seed, "mainstream-pool");

  constexpr std::size_t kPoolSize = 140;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    PoolRoot root;
    RootSpec& s = root.spec;
    s.id = "mainstream-" + std::to_string(i + 1);
    s.common_name = pool_name(i, 1);
    s.organization = s.common_name.substr(0, s.common_name.find(" Root"));
    s.country = pool_country(rng);

    const int year = 1996 + static_cast<int>(i * 24 / kPoolSize);  // 1996..2019
    const int month = 1 + static_cast<int>(rng.uniform(12));
    const int day = 1 + static_cast<int>(rng.uniform(28));
    s.not_before = Date::ymd(year, month, day);

    int validity_years = 20;
    if (year < 2001) {
      s.scheme = rng.chance(0.5) ? SignatureScheme::kMd5Rsa
                                 : SignatureScheme::kSha1Rsa;
      s.rsa_bits = rng.chance(0.3) ? 512 : 1024;
      s.version1 = rng.chance(0.6);
      validity_years = 12 + static_cast<int>(rng.uniform(8));
    } else if (year < 2006) {
      s.scheme = SignatureScheme::kSha1Rsa;
      s.rsa_bits = rng.chance(0.45) ? 1024 : 2048;
      validity_years = 14 + static_cast<int>(rng.uniform(10));
    } else if (year < 2012) {
      s.scheme = SignatureScheme::kSha1Rsa;
      s.rsa_bits = 2048;
      validity_years = 14 + static_cast<int>(rng.uniform(10));
    } else {
      s.scheme = rng.chance(0.15) ? SignatureScheme::kEcdsaSha256
                                  : SignatureScheme::kSha256Rsa;
      s.rsa_bits = rng.chance(0.25) ? 4096 : 2048;
      validity_years = 15 + static_cast<int>(rng.uniform(11));
    }
    s.not_after = s.not_before.add_months(12 * validity_years);

    const double roll = rng.uniform01();
    root.profile = roll < 0.75   ? PurposeProfile::kTlsEmail
                   : roll < 0.92 ? PurposeProfile::kTlsOnly
                                 : PurposeProfile::kEmailOnly;
    pool.push_back(root);

    // Modern successor for every weak/MD5 root (same CA, generation 2).
    const bool needs_successor = s.rsa_bits < 2048 ||
                                 s.scheme == SignatureScheme::kMd5Rsa;
    if (needs_successor) {
      PoolRoot succ;
      RootSpec& g2 = succ.spec;
      g2.id = s.id + "-g2";
      g2.common_name = pool_name(i, 2);
      g2.organization = s.organization;
      g2.country = s.country;
      g2.not_before =
          Date::ymd(2009 + static_cast<int>(i % 6), 1 + static_cast<int>(rng.uniform(12)),
                    1 + static_cast<int>(rng.uniform(28)));
      g2.not_after = g2.not_before.add_months(12 * 25);
      g2.scheme = SignatureScheme::kSha256Rsa;
      g2.rsa_bits = 2048;
      succ.profile = root.profile;
      pool.push_back(succ);
    }
  }
  return pool;
}

std::vector<TrustPurpose> purposes_of(PurposeProfile p) {
  switch (p) {
    case PurposeProfile::kTlsEmail:
      return {TrustPurpose::kServerAuth, TrustPurpose::kEmailProtection};
    case PurposeProfile::kTlsOnly:
      return {TrustPurpose::kServerAuth};
    case PurposeProfile::kEmailOnly:
      return {TrustPurpose::kEmailProtection};
  }
  return {TrustPurpose::kServerAuth};
}

/// Includes the pool into one program's timeline under its policy dates.
void include_pool(Timeline& t, const ProgramDates& d,
                  const std::vector<PoolRoot>& pool, std::uint64_t seed,
                  const std::string& program) {
  rs::crypto::Prng rng =
      rs::crypto::Prng::from_label(seed, "include:" + program);
  for (const auto& root : pool) {
    const RootSpec& s = root.spec;
    // Draw the per-root randomness unconditionally so one program's policy
    // never perturbs another program's stream.
    const bool adopted = rng.chance(d.adoption);
    const std::int64_t spread =
        d.include_delay_spread > 0
            ? static_cast<std::int64_t>(rng.uniform(
                  static_cast<std::uint64_t>(d.include_delay_spread)))
            : 0;
    // CCADB-era CAs (2018+) are vetted once and adopted everywhere with a
    // common short delay; older CAs follow each program's own policy.
    const bool modern = s.not_before >= Date::ymd(2018, 1, 1);
    if (!modern && !adopted) continue;  // programs don't trust every CA
    Date include = modern ? s.not_before + 150
                          : s.not_before + d.include_delay_base + spread;
    if (include < d.start) include = d.start;
    if (include >= d.end || include >= s.not_after - 90) continue;

    t.add_spec(s);
    t.include(include, s.id, purposes_of(root.profile));
    // Expiry-driven removal (retention models Table 3's expired counts).
    t.remove(s.not_after + d.expiry_retention, s.id);
    // Hygiene purges (Table 3).
    if (s.rsa_bits < 2048 && d.weak_rsa_purge > include) {
      t.remove(d.weak_rsa_purge, s.id);
    }
    if (s.scheme == SignatureScheme::kMd5Rsa && d.md5_purge > include) {
      t.remove(d.md5_purge, s.id);
    }
  }
}

// ---------------------------------------------------------------------------
// Long-lived legacy roots that pin the Table 3 purge dates exactly.
// ---------------------------------------------------------------------------

std::vector<RootSpec> legacy_md5_roots() {
  std::vector<RootSpec> out;
  for (int i = 1; i <= 4; ++i) {
    RootSpec s;
    s.id = "legacy-md5-" + std::to_string(i);
    s.common_name = "Heritage MD5 Root CA " + std::to_string(i);
    s.organization = "Heritage Trust";
    s.not_before = Date::ymd(1998, i, 10);
    s.not_after = Date::ymd(2027, i, 10);
    s.scheme = SignatureScheme::kMd5Rsa;
    s.rsa_bits = 2048;  // avoid coupling with the 1024-bit purge
    s.version1 = true;
    out.push_back(s);
  }
  return out;
}

std::vector<RootSpec> legacy_weak_roots() {
  std::vector<RootSpec> out;
  for (int i = 1; i <= 6; ++i) {
    RootSpec s;
    s.id = "legacy-1024-" + std::to_string(i);
    s.common_name = "Heritage 1024 Root CA " + std::to_string(i);
    s.organization = "Heritage Trust";
    s.not_before = Date::ymd(2001, i, 20);
    s.not_after = Date::ymd(2028, i, 20);
    s.scheme = SignatureScheme::kSha1Rsa;
    s.rsa_bits = 1024;
    out.push_back(s);
  }
  return out;
}

void include_legacy(Timeline& t, const ProgramDates& d) {
  for (const auto& s : legacy_md5_roots()) {
    t.add_spec(s);
    t.include(d.start, s.id,
              {TrustPurpose::kServerAuth, TrustPurpose::kEmailProtection});
    t.remove(d.md5_purge, s.id);
  }
  for (const auto& s : legacy_weak_roots()) {
    t.add_spec(s);
    t.include(d.start, s.id,
              {TrustPurpose::kServerAuth, TrustPurpose::kEmailProtection});
    t.remove(d.weak_rsa_purge, s.id);
  }
}

// ---------------------------------------------------------------------------
// Incident roots (Table 4 / Table 7).
// ---------------------------------------------------------------------------

struct IncidentSpecs {
  std::vector<RootSpec> specs;
};

IncidentSpecs incident_root_specs() {
  IncidentSpecs out;
  auto add = [&](std::string id, std::string cn, std::string org, int year,
                 SignatureScheme scheme = SignatureScheme::kSha1Rsa) {
    RootSpec s;
    s.id = std::move(id);
    s.common_name = std::move(cn);
    s.organization = std::move(org);
    s.not_before = Date::ymd(year, 6, 1);
    s.not_after = Date::ymd(year + 25, 6, 1);
    s.scheme = scheme;
    s.rsa_bits = 2048;
    out.specs.push_back(std::move(s));
  };
  add("diginotar-root", "DigiNotar Root CA", "DigiNotar", 2007);
  add("cnnic-root-1", "CNNIC ROOT", "CNNIC", 2007);
  add("cnnic-root-2", "China Internet Network Information Center EV Root",
      "CNNIC", 2010);
  for (int i = 1; i <= 3; ++i) {
    add("startcom-root-" + std::to_string(i),
        "StartCom Certification Authority G" + std::to_string(i), "StartCom",
        2005 + i);
  }
  for (int i = 1; i <= 4; ++i) {
    add("wosign-root-" + std::to_string(i),
        "Certification Authority of WoSign G" + std::to_string(i), "WoSign",
        2008 + i);
  }
  add("procert-root", "PSCProcert", "PROCERT", 2010);
  add("certinomis-root", "Certinomis - Root CA", "Certinomis", 2013,
      SignatureScheme::kSha256Rsa);
  for (int i = 1; i <= 13; ++i) {
    add("symantec-root-" + std::to_string(i),
        i == 12 ? "GeoTrust Universal CA 2"
                : "Symantec Class 3 Root CA G" + std::to_string(i),
        "Symantec / VeriSign", 1998 + (i % 9));
  }
  add("taiwan-grca-root", "Government Root Certification Authority",
      "Government of Taiwan", 2002);
  add("twca-root", "TWCA Root Certification Authority", "TAIWAN-CA", 2008);
  add("skid-root", "EE Certification Centre Root CA", "SK ID Solutions", 2010);
  add("addtrust-root", "AddTrust External CA Root", "AddTrust AB", 2000);
  // AddTrust famously expired on 2020-05-30.
  out.specs.back().not_after = Date::ymd(2020, 5, 30);
  return out;
}

/// Date each incident root entered NSS (and roughly the other programs).
Date incident_include_date(const std::string& id) {
  if (id.rfind("symantec-", 0) == 0) return Date::ymd(2004, 3, 15);
  if (id == "diginotar-root") return Date::ymd(2008, 5, 15);
  if (id.rfind("cnnic-", 0) == 0) return Date::ymd(2010, 9, 15);
  if (id.rfind("startcom-", 0) == 0) return Date::ymd(2009, 4, 15);
  if (id.rfind("wosign-", 0) == 0) return Date::ymd(2011, 7, 15);
  if (id == "procert-root") return Date::ymd(2010, 11, 15);
  if (id == "certinomis-root") return Date::ymd(2015, 2, 15);
  if (id == "taiwan-grca-root") return Date::ymd(2012, 6, 15);
  if (id == "twca-root") return Date::ymd(2012, 3, 15);
  if (id == "skid-root") return Date::ymd(2011, 10, 15);
  if (id == "addtrust-root") return Date::ymd(2002, 1, 15);
  return Date::ymd(2010, 1, 15);
}

bool provider_in(const std::vector<std::string>& xs, const std::string& x) {
  return std::find(xs.begin(), xs.end(), x) != xs.end();
}

/// Wires incident roots into an independent program's timeline.
void include_incidents(Timeline& t, const std::string& program,
                       const ProgramDates& d,
                       const std::vector<Incident>& incidents,
                       const IncidentSpecs& specs) {
  for (const auto& s : specs.specs) t.add_spec(s);

  // Track the ids handled via incident responses so defaults don't re-add.
  for (const auto& inc : incidents) {
    if (provider_in(inc.never_included, program)) continue;
    // Response row for this program, if any.
    const PaperResponse* resp = nullptr;
    for (const auto& r : inc.responses) {
      if (r.provider == program) resp = &r;
    }
    // A response's cert_count below the incident's root count means the
    // program only ever carried that many of the roots (e.g. Microsoft
    // included 2 of the 3 StartCom roots).
    const std::size_t carried =
        (program != "NSS" && resp != nullptr)
            ? std::min<std::size_t>(
                  static_cast<std::size_t>(resp->cert_count),
                  inc.root_ids.size())
            : inc.root_ids.size();
    for (std::size_t k = 0; k < carried; ++k) {
      const std::string& id = inc.root_ids[k];
      Date include = incident_include_date(id);
      if (include < d.start) include = d.start;
      t.include(include, id,
                {TrustPurpose::kServerAuth, TrustPurpose::kEmailProtection});
      // Apple's valid.apple.com responses revoke without removing: the
      // root stays in the shipped store and the distrust lives in the
      // provider's TrustOverlay (built in build_paper_scenario).
      const bool out_of_band =
          resp != nullptr &&
          resp->note.find("valid.apple.com") != std::string::npos;
      if (program == "NSS") {
        t.remove(inc.nss_removal, id);
      } else if (resp != nullptr && resp->trusted_until && !out_of_band) {
        t.remove(*resp->trusted_until + 1, id);
      }
      // trusted_until == nullopt (or no response row): root kept.
    }
  }
}

/// Roots tied to NSS-internal actions that the other programs also carry.
void include_nss_side_roots(Timeline& t, const ProgramDates& d) {
  for (const char* id : {"twca-root", "skid-root", "addtrust-root"}) {
    Date include = incident_include_date(id);
    if (include < d.start) include = d.start;
    t.include(include, id,
              {TrustPurpose::kServerAuth, TrustPurpose::kEmailProtection});
  }
}

/// NSS-only extra incident machinery: Symantec partial distrust (v53),
/// TWCA / SK ID / AddTrust / Taiwan GRCA removals.
void nss_special_actions(Timeline& t, const IncidentSpecs& specs) {
  (void)specs;
  for (int i = 1; i <= 12; ++i) {
    t.set_server_distrust_after(kNssV53, "symantec-root-" + std::to_string(i),
                                kSymantecCutoff);
  }
  t.remove(kNssV53, "twca-root");
  t.remove(kNssV53, "skid-root");
  // AddTrust expired 2020-05-30; NSS dropped it shortly after.
  t.remove(Date::ymd(2020, 6, 15), "addtrust-root");
}

// ---------------------------------------------------------------------------
// Program-specific extra pools and exclusives (Table 6).
// ---------------------------------------------------------------------------

/// Roots TLS-trusted by both Apple and Microsoft but never by NSS/Java.
std::vector<RootSpec> widetrust_pool() {
  std::vector<RootSpec> out;
  for (int i = 1; i <= 24; ++i) {
    RootSpec s;
    s.id = "widetrust-" + std::to_string(i);
    s.common_name = "Regional Commerce Root CA " + std::to_string(i);
    s.organization = "Regional Commerce CA";
    s.country = i % 2 ? "KR" : "BR";
    s.not_before = Date::ymd(2005 + (i % 13), 3, 5);
    s.not_after = s.not_before.add_months(12 * 22);
    s.scheme = s.not_before.year() >= 2012 ? SignatureScheme::kSha256Rsa
                                           : SignatureScheme::kSha1Rsa;
    out.push_back(s);
  }
  return out;
}

/// Apple-specific legacy roots: CAs Apple carried for its older platform
/// ecosystem.  All expire (and age out, given Apple's ~400-day retention)
/// before Apple's newest snapshot, so they never appear in the Table 6
/// latest-snapshot exclusivity computation — they only differentiate
/// Apple's historical snapshots in Figure 1.
std::vector<RootSpec> apple_legacy_pool() {
  std::vector<RootSpec> out;
  for (int i = 1; i <= 30; ++i) {
    RootSpec s;
    s.id = "apple-legacy-" + std::to_string(i);
    s.common_name = "Platform Heritage Root " + std::to_string(i);
    s.organization = "Platform Heritage CA";
    s.not_before = Date::ymd(1999 + (i % 6), 1 + (i % 12), 7);
    s.not_after = s.not_before.add_months(12 * (12 + i % 4));  // <= 2019
    s.scheme = SignatureScheme::kSha1Rsa;
    s.rsa_bits = 2048;
    out.push_back(s);
  }
  return out;
}

/// Roots Apple keeps trusting after Microsoft dropped them (2014-2016
/// policy cleanups).  Because Microsoft *ever* TLS-trusted them, they are
/// not Table-6 exclusives — they just keep Apple's modern snapshots
/// distinct from the NSS family in Figure 1.
std::vector<RootSpec> apple_retained_pool() {
  std::vector<RootSpec> out;
  for (int i = 1; i <= 25; ++i) {
    RootSpec s;
    s.id = "apple-retained-" + std::to_string(i);
    s.common_name = "Continuity Services Root " + std::to_string(i);
    s.organization = "Continuity CA";
    s.not_before = Date::ymd(2003 + (i % 10), 1 + (i % 12), 11);
    s.not_after = s.not_before.add_months(12 * 25);
    s.scheme = s.not_before.year() >= 2012 ? SignatureScheme::kSha256Rsa
                                           : SignatureScheme::kSha1Rsa;
    out.push_back(s);
  }
  return out;
}

/// Microsoft's email/code-signing-only population (size filler; never TLS).
std::vector<RootSpec> ms_purpose_pool() {
  std::vector<RootSpec> out;
  for (int i = 1; i <= 90; ++i) {
    RootSpec s;
    s.id = "ms-purpose-" + std::to_string(i);
    s.common_name = "Enterprise Document Root " + std::to_string(i);
    s.organization = "Enterprise PKI Services";
    s.not_before = Date::ymd(1997 + (i % 22), 1 + (i % 12), 3);
    s.not_after = s.not_before.add_months(12 * (12 + i % 9));
    s.scheme = s.not_before.year() >= 2012 ? SignatureScheme::kSha256Rsa
                                           : SignatureScheme::kSha1Rsa;
    out.push_back(s);
  }
  return out;
}

struct ExclusivePlan {
  RootSpec spec;
  ExclusiveRootMeta meta;
  Date include;
  /// Also email-trusted by these other programs (does not break Table 6's
  /// TLS-exclusivity).
  std::vector<std::string> email_elsewhere;
};

std::vector<ExclusivePlan> exclusive_plans() {
  std::vector<ExclusivePlan> out;
  auto add = [&](std::string id, std::string program, std::string ca,
                 std::string nss_status, std::string details, int year,
                 std::vector<std::string> email_elsewhere = {},
                 SignatureScheme scheme = SignatureScheme::kSha256Rsa) {
    ExclusivePlan p;
    p.spec.id = id;
    p.spec.common_name = ca + " Root";
    p.spec.organization = ca;
    p.spec.not_before = Date::ymd(year, 4, 2);
    p.spec.not_after = p.spec.not_before.add_months(12 * 25);
    p.spec.scheme = scheme;
    p.meta = ExclusiveRootMeta{std::move(id), std::move(program), std::move(ca),
                               std::move(nss_status), std::move(details)};
    p.include = Date::ymd(year + 1, 2, 10);
    p.email_elsewhere = std::move(email_elsewhere);
    out.push_back(std::move(p));
  };

  // NSS (1): new Microsec ECC root.
  add("nss-excl-microsec-ecc", "NSS", "Microsec", "Accepted",
      "New elliptic curve root accompanying an existing trusted root", 2018,
      {}, SignatureScheme::kEcdsaSha256);

  // Apple (13): 6 email-only elsewhere, 5 Apple services, 2 distrusted
  // elsewhere.
  add("apple-excl-venezuela", "Apple", "Gov. of Venezuela", "Denied",
      "Super-CA concerns; Microsoft email trust disallowed 2020-02", 2015,
      {"Microsoft"});
  add("apple-excl-certipost", "Apple", "Certipost", "-",
      "CA requested cross-sign revocation: ceased TLS issuance", 2012);
  add("apple-excl-anf", "Apple", "ANF", "-",
      "Microsoft trusts same issuer for email, distrust after 2019-02", 2013,
      {"Microsoft"});
  add("apple-excl-echoworx", "Apple", "Echoworx", "-",
      "Microsoft trusted for email", 2011, {"Microsoft"});
  add("apple-excl-nets", "Apple", "Nets.eu", "-", "Microsoft trusted for email",
      2012, {"Microsoft"});
  add("apple-excl-digicert-c1", "Apple", "DigiCert", "Accepted",
      "Trusted by Microsoft and NSS for email", 2013,
      {"Microsoft", "NSS"});
  add("apple-excl-digicert-c2", "Apple", "DigiCert", "Accepted",
      "Trusted by Microsoft and NSS for email", 2013,
      {"Microsoft", "NSS"});
  add("apple-excl-dtrust", "Apple", "D-TRUST", "Accepted",
      "Microsoft/NSS trusted for email", 2014, {"Microsoft", "NSS"});
  for (int i = 1; i <= 5; ++i) {
    add("apple-excl-services-" + std::to_string(i), "Apple", "Apple", "-",
        "Custom Apple services (FairPlay, Developer ID)", 2009 + i);
  }

  // Microsoft (30).
  add("ms-excl-edicom", "Microsoft", "EDICOM", "Denied",
      "Inadequate audits, issuance concerns, CA unresponsiveness", 2014);
  add("ms-excl-emonitoring", "Microsoft", "e-monitoring.at", "Denied",
      "CA certificate violations of the BRs and RFC 5280", 2015);
  add("ms-excl-brazil", "Microsoft", "Gov. of Brazil", "Denied",
      "Super CA concerns, insufficient auditing / disclosure", 2010);
  add("ms-excl-tunisia1", "Microsoft", "Gov. of Tunisia", "Denied",
      "Repeated misissuance exposed during public discussion", 2013);
  add("ms-excl-korea", "Microsoft", "Gov. of Korea", "Denied",
      "Rejected due to confidential, unrestrained subCAs", 2012);
  add("ms-excl-camerfirma", "Microsoft", "AC Camerfirma", "Denied",
      "Numerous issues led to May 2021 removal of all Camerfirma roots", 2014);
  add("ms-excl-postsignum", "Microsoft", "PostSignum", "Abandoned",
      "New PostSignum root inclusion attempt running into issues", 2011);
  add("ms-excl-oati", "Microsoft", "OATI", "Abandoned",
      "No response in 3 years", 2013);
  add("ms-excl-multicert", "Microsoft", "MULTICERT", "Abandoned",
      "External subCA concerns and other misissuance", 2014);
  add("ms-excl-digidentity", "Microsoft", "Digidentity", "Retracted", "", 2019);
  add("ms-excl-tunisia2", "Microsoft", "Gov. of Tunisia", "Pending",
      "Community concerns about added-value of the root", 2019);
  add("ms-excl-secom1", "Microsoft", "SECOM", "Pending",
      "Pending since 2016 due to ongoing issue resolution", 2016);
  add("ms-excl-secom2", "Microsoft", "SECOM", "Pending",
      "Pending since 2016 due to ongoing issue resolution", 2016);
  add("ms-excl-chunghwa", "Microsoft", "Chunghwa Telecom", "Pending", "", 2019);
  add("ms-excl-fina", "Microsoft", "Fina", "Pending", "", 2018);
  add("ms-excl-telia", "Microsoft", "Telia", "Pending",
      "< 100 leaf certificates in CT", 2020);
  add("ms-excl-netlock", "Microsoft", "NETLOCK Kft.", "-",
      "Cross-signed by Microsoft Code Verification Root", 2015);
  add("ms-excl-spain-mtin", "Microsoft", "Gov. of Spain, MTIN", "-",
      "Expired Nov 2019, no intermediates/children in CT", 2009);
  add("ms-excl-finland", "Microsoft", "Gov. of Finland", "-",
      "Previously abandoned NSS inclusion for a different root", 2010);
  add("ms-excl-cisco", "Microsoft", "Cisco", "-",
      "< 100 leaf certificates in CT; older root rejected by NSS", 2012);
  add("ms-excl-halcom", "Microsoft", "Halcom D.D.", "-",
      "< 100 leaf certificates in CT", 2013);
  add("ms-excl-spain-reg", "Microsoft", "Spain Commercial Reg.", "-",
      "< 100 leaf certificates in CT", 2012);
  add("ms-excl-nisz", "Microsoft", "NISZ", "-",
      "< 200 leaf certificates in CT", 2016);
  add("ms-excl-trustfactory", "Microsoft", "TrustFactory", "-",
      "< 100 leaf certificates in CT", 2018);
  add("ms-excl-digicert-wifi", "Microsoft", "DigiCert", "-",
      "WiFi Alliance Passpoint roaming", 2016);
  add("ms-excl-digicert-balt", "Microsoft", "DigiCert", "-",
      "Trusted intermediate in NSS/Apple/Java via Baltimore CyberTrust", 2014);
  add("ms-excl-sectigo", "Microsoft", "Sectigo", "-",
      "Apple/NSS trusted issuer through different root certificate", 2017);
  add("ms-excl-asseco-1", "Microsoft", "Asseco/e-monitoring.at", "Approved",
      "Recently approved by NSS, awaiting addition", 2020);
  add("ms-excl-asseco-2", "Microsoft", "Asseco/e-monitoring.at", "Approved",
      "Recently approved by NSS, awaiting addition", 2020);
  add("ms-excl-asseco-3", "Microsoft", "Asseco/e-monitoring.at", "Approved",
      "Recently approved by NSS, awaiting addition", 2020);
  return out;
}

// ---------------------------------------------------------------------------
// Snapshot date helpers.
// ---------------------------------------------------------------------------

std::vector<Date> monthly_dates(Date from, Date to, int step_months, int day) {
  std::vector<Date> out;
  Date d = Date::ymd(from.year(), from.month(), day);
  if (d < from) d = d.add_months(1);
  while (d <= to) {
    out.push_back(d);
    d = d.add_months(step_months);
  }
  return out;
}

std::vector<Date> evenly_spaced(Date from, Date to, int count) {
  std::vector<Date> out;
  if (count <= 1) {
    out.push_back(from);
    return out;
  }
  const double span = static_cast<double>(to - from);
  for (int i = 0; i < count; ++i) {
    out.push_back(from + static_cast<std::int64_t>(
                             span * static_cast<double>(i) / (count - 1)));
  }
  return out;
}

/// Dates at which this provider's Table 4 responses land (snapshot exactly
/// on the last-trusted day so measured lags match the catalog).
std::vector<Date> response_dates(const std::string& provider,
                                 const std::vector<Incident>& incidents) {
  std::vector<Date> out;
  for (const auto& inc : incidents) {
    for (const auto& r : inc.responses) {
      if (r.provider == provider && r.trusted_until) {
        out.push_back(*r.trusted_until);
        out.push_back(*r.trusted_until + 1);
      }
    }
  }
  return out;
}

rs::store::ProviderHistory materialize_program(
    const Timeline& t, CertFactory& factory, const std::string& name,
    std::vector<Date> dates, Date start, Date end) {
  std::sort(dates.begin(), dates.end());
  dates.erase(std::unique(dates.begin(), dates.end()), dates.end());

  rs::store::ProviderHistory history(name);
  int version = 0;
  // The sorted, unique digests of the previous snapshot: no universe
  // exists yet to intern against.
  std::vector<rs::crypto::Sha256Digest> previous;
  bool first = true;
  TimelineCursor replay(t, factory);
  for (Date d : dates) {
    if (d < start || d > end) continue;
    replay.advance_to(d);
    rs::store::Snapshot snap;
    snap.provider = name;
    snap.date = d;
    snap.entries = replay.entries();
    std::vector<rs::crypto::Sha256Digest> current;
    current.reserve(snap.entries.size());
    for (const auto& e : snap.entries) {
      current.push_back(e.certificate->sha256());
    }
    std::sort(current.begin(), current.end());
    current.erase(std::unique(current.begin(), current.end()), current.end());
    if (first || current != previous) {
      ++version;
      previous = std::move(current);
      first = false;
    }
    snap.version = "3." + std::to_string(version);
    history.add(std::move(snap));
  }
  return history;
}

// Derivative overrides from the incident catalog responses.
void add_response_overrides(DerivativePolicy& policy,
                            const std::vector<Incident>& incidents) {
  for (const auto& inc : incidents) {
    const bool never =
        provider_in(inc.never_included, policy.name) ||
        // Debian/Ubuntu responses are recorded under both names.
        (provider_in(inc.never_included, "Debian/Ubuntu") &&
         (policy.name == "Debian" || policy.name == "Ubuntu"));
    if (never) {
      for (const auto& id : inc.root_ids) {
        policy.overrides.push_back({id, {}, {}, {}, {}, /*always_absent=*/true});
      }
      continue;
    }
    for (const auto& r : inc.responses) {
      if (r.provider != policy.name) continue;
      const std::size_t carried = std::min<std::size_t>(
          static_cast<std::size_t>(r.cert_count), inc.root_ids.size());
      for (std::size_t k = 0; k < inc.root_ids.size(); ++k) {
        const std::string& id = inc.root_ids[k];
        DerivativeOverride ov;
        ov.root_id = id;
        if (k >= carried) {
          ov.always_absent = true;  // provider never carried this root
        } else {
          ov.present_from = incident_include_date(id);
          if (r.trusted_until) {
            ov.present_until = *r.trusted_until;
            ov.absent_from = *r.trusted_until + 1;
          }
        }
        policy.overrides.push_back(std::move(ov));
      }
    }
  }
}

}  // namespace

PaperScenario build_paper_scenario(std::uint64_t seed) {
  rs::obs::Span span("synth/paper_scenario");
  auto factory = std::make_shared<CertFactory>(seed);
  const auto incidents = incident_catalog();
  const auto inc_specs = incident_root_specs();
  const auto pool = make_mainstream_pool(seed);
  const auto wide = widetrust_pool();
  const auto purpose_pool = ms_purpose_pool();
  const auto exclusives = exclusive_plans();

  std::map<std::string, Timeline> timelines;
  Timeline& nss = timelines["NSS"];
  Timeline& apple = timelines["Apple"];
  Timeline& microsoft = timelines["Microsoft"];
  Timeline& java = timelines["Java"];

  const ProgramDates nd = nss_dates();
  const ProgramDates ad = apple_dates();
  const ProgramDates md = microsoft_dates();
  const ProgramDates jd = java_dates();

  // --- Independent programs ----------------------------------------------
  include_pool(nss, nd, pool, seed, "NSS");
  include_pool(apple, ad, pool, seed, "Apple");
  include_pool(microsoft, md, pool, seed, "Microsoft");
  include_legacy(nss, nd);
  include_legacy(apple, ad);
  include_legacy(microsoft, md);

  // Java: a curated subset of the pool active at program start, plus the
  // 2018-08 churn outlier (remove 9, add 21) from §4.
  {
    include_legacy(java, jd);
    std::vector<const PoolRoot*> active;
    for (const auto& r : pool) {
      if (r.spec.not_before <= jd.start && jd.start < r.spec.not_after &&
          r.profile != PurposeProfile::kEmailOnly) {
        active.push_back(&r);
      }
    }
    std::size_t idx = 0;
    std::vector<const PoolRoot*> initial, batch2;
    for (const auto* r : active) {
      if (idx % 2 == 0) initial.push_back(r);
      else if (batch2.size() < 21) batch2.push_back(r);
      ++idx;
    }
    for (const auto* r : initial) {
      java.add_spec(r->spec);
      java.include(jd.start, r->spec.id, purposes_of(r->profile));
      java.remove(r->spec.not_after + jd.expiry_retention, r->spec.id);
      if (r->spec.rsa_bits < 2048) java.remove(jd.weak_rsa_purge, r->spec.id);
      if (r->spec.scheme == SignatureScheme::kMd5Rsa) {
        java.remove(jd.md5_purge, r->spec.id);
      }
    }
    const Date churn = Date::ymd(2018, 8, 15);
    for (std::size_t i = 0; i < initial.size() && i < 9; ++i) {
      java.remove(churn, initial[i * (initial.size() / 9)]->spec.id);
    }
    for (const auto* r : batch2) {
      java.add_spec(r->spec);
      java.include(churn, r->spec.id, purposes_of(r->profile));
      java.remove(r->spec.not_after + jd.expiry_retention, r->spec.id);
      if (r->spec.rsa_bits < 2048) java.remove(jd.weak_rsa_purge, r->spec.id);
      if (r->spec.scheme == SignatureScheme::kMd5Rsa) {
        java.remove(jd.md5_purge, r->spec.id);
      }
    }
  }

  // Wide-trust pool: Apple + Microsoft TLS.
  for (const auto& s : wide) {
    for (Timeline* t : {&apple, &microsoft}) {
      const Date start = t == &apple ? ad.start : md.start;
      Date include = s.not_before + 120;
      if (include < start) include = start;
      t->add_spec(s);
      t->include(include, s.id,
                 {TrustPurpose::kServerAuth, TrustPurpose::kEmailProtection});
      t->remove(s.not_after + (t == &apple ? ad : md).expiry_retention, s.id);
    }
  }

  // Apple legacy platform roots (historical differentiation; all age out).
  for (const auto& s : apple_legacy_pool()) {
    Date include = s.not_before + 60;
    if (include < ad.start) include = ad.start;
    if (include >= s.not_after - 90) continue;
    apple.add_spec(s);
    apple.include(include, s.id,
                  {TrustPurpose::kServerAuth, TrustPurpose::kEmailProtection});
    apple.remove(s.not_after + ad.expiry_retention, s.id);
  }

  // Apple-retained roots: Apple keeps them; Microsoft carried them for a
  // while and dropped them in 2014-2016 cleanups.
  {
    int cleanup = 0;
    for (const auto& s : apple_retained_pool()) {
      Date apple_include = s.not_before + 150;
      if (apple_include < ad.start) apple_include = ad.start;
      apple.add_spec(s);
      apple.include(apple_include, s.id,
                    {TrustPurpose::kServerAuth, TrustPurpose::kEmailProtection});
      apple.remove(s.not_after + ad.expiry_retention, s.id);

      Date ms_include = s.not_before + 200;
      if (ms_include < md.start) ms_include = md.start;
      microsoft.add_spec(s);
      microsoft.include(ms_include, s.id,
                        {TrustPurpose::kServerAuth,
                         TrustPurpose::kEmailProtection});
      microsoft.remove(Date::ymd(2014 + cleanup % 3, 3 + cleanup % 7, 15),
                       s.id);
      ++cleanup;
    }
  }

  // Microsoft email/code-signing population.
  for (const auto& s : purpose_pool) {
    Date include = s.not_before + 90;
    if (include < md.start) include = md.start;
    if (include >= md.end) continue;
    microsoft.add_spec(s);
    microsoft.include(include, s.id,
                      {TrustPurpose::kEmailProtection,
                       TrustPurpose::kCodeSigning});
    microsoft.remove(s.not_after + md.expiry_retention, s.id);
  }

  // Exclusives (Table 6).
  std::vector<ExclusiveRootMeta> exclusive_meta;
  for (const auto& p : exclusives) {
    Timeline& owner = timelines.at(p.meta.program);
    owner.add_spec(p.spec);
    owner.include(p.include, p.spec.id,
                  {TrustPurpose::kServerAuth, TrustPurpose::kEmailProtection});
    for (const auto& other : p.email_elsewhere) {
      Timeline& t = timelines.at(other);
      t.add_spec(p.spec);
      t.include(p.include + 200, p.spec.id, {TrustPurpose::kEmailProtection});
    }
    exclusive_meta.push_back(p.meta);
  }

  // Incident roots.
  include_incidents(nss, "NSS", nd, incidents, inc_specs);
  include_incidents(apple, "Apple", ad, incidents, inc_specs);
  include_incidents(microsoft, "Microsoft", md, incidents, inc_specs);
  include_incidents(java, "Java", jd, incidents, inc_specs);
  include_nss_side_roots(nss, nd);
  include_nss_side_roots(apple, ad);
  include_nss_side_roots(microsoft, md);
  nss_special_actions(nss, inc_specs);

  // --- Materialize the four programs --------------------------------------
  rs::store::StoreDatabase db;
  {
    // Monthly snapshots (the paper's ~225 NSS versions) plus the exact
    // dates security actions landed, so removal timing is day-accurate.
    std::vector<Date> dates = monthly_dates(nd.start, nd.end, 1, 15);
    for (const auto& inc : incidents) dates.push_back(inc.nss_removal);
    dates.push_back(kNssV53);
    dates.push_back(nd.md5_purge);
    dates.push_back(nd.weak_rsa_purge);
    dates.push_back(Date::ymd(2020, 6, 15));  // AddTrust drop
    db.add(materialize_program(nss, *factory, "NSS", std::move(dates),
                               nd.start, nd.end));
  }
  {
    std::vector<Date> dates = monthly_dates(ad.start, ad.end, 2, 12);
    // The 2012-10..2014-01 stagnation gap behind the Figure 1 outlier.
    std::erase_if(dates, [](Date d) {
      return d > Date::ymd(2012, 10, 20) && d < Date::ymd(2014, 2, 1);
    });
    dates.push_back(Date::ymd(2014, 2, 12));
    dates.push_back(ad.md5_purge);
    dates.push_back(ad.weak_rsa_purge);
    for (Date d : response_dates("Apple", incidents)) dates.push_back(d);
    db.add(materialize_program(apple, *factory, "Apple", std::move(dates),
                               ad.start, ad.end));
  }
  {
    std::vector<Date> dates = monthly_dates(md.start, md.end, 2, 20);
    dates.push_back(md.md5_purge);
    dates.push_back(md.weak_rsa_purge);
    for (Date d : response_dates("Microsoft", incidents)) dates.push_back(d);
    db.add(materialize_program(microsoft, *factory, "Microsoft",
                               std::move(dates), md.start, md.end));
  }
  {
    std::vector<Date> dates = {
        Date::ymd(2018, 3, 15), Date::ymd(2018, 8, 15), Date::ymd(2019, 2, 15),
        Date::ymd(2019, 8, 15), Date::ymd(2020, 3, 15), Date::ymd(2020, 9, 15),
        Date::ymd(2021, 2, 15)};
    db.add(materialize_program(java, *factory, "Java", std::move(dates),
                               jd.start, jd.end));
  }

  // --- Derivative-only root blueprints ------------------------------------
  std::map<std::string, RootSpec> extra_specs;
  {
    auto add_extra = [&](std::string id, std::string cn, std::string org,
                         int year) {
      RootSpec s;
      s.id = id;
      s.common_name = std::move(cn);
      s.organization = std::move(org);
      s.not_before = Date::ymd(year, 2, 14);
      s.not_after = s.not_before.add_months(12 * 25);
      s.scheme = year < 2012 ? SignatureScheme::kSha1Rsa
                             : SignatureScheme::kSha256Rsa;
      extra_specs.emplace(std::move(id), std::move(s));
    };
    add_extra("debianextra-brazil", "Autoridade Certificadora Raiz Brasileira",
              "Brazilian National Institute of IT", 2002);
    add_extra("debianextra-debian-1", "Debian SMTP CA", "Debian", 2003);
    add_extra("debianextra-debian-2", "Debian Root CA", "Debian", 2003);
    add_extra("debianextra-dcssi", "IGC/A", "Gov. of France DCSSI", 2002);
    for (int i = 1; i <= 9; ++i) {
      add_extra("debianextra-tp-" + std::to_string(i),
                "Certum CA Level " + std::to_string(i), "TP Internet Sp.",
                2002);
    }
    for (int i = 1; i <= 3; ++i) {
      add_extra("debianextra-spi-" + std::to_string(i),
                "SPI CA " + std::to_string(i), "Software in the Public Interest",
                2003);
    }
    for (int i = 1; i <= 3; ++i) {
      add_extra("debianextra-cacert-" + std::to_string(i),
                "CAcert Class " + std::to_string(i), "CAcert", 2003);
    }
    add_extra("amazon-thawte", "Thawte Premium Server CA", "Thawte", 1996);
    add_extra("nodejs-valicert", "ValiCert Class 2 Policy Validation Authority",
              "ValiCert", 1999);
  }

  // --- Derivatives ---------------------------------------------------------
  auto debian_like = [&](const std::string& name, Date start, Date end,
                         int snapshots) {
    DerivativePolicy p;
    p.name = name;
    p.snapshot_dates = evenly_spaced(start, end, snapshots);
    for (Date d : response_dates(name, incidents)) p.snapshot_dates.push_back(d);
    p.lag_days = 140;
    p.lag_jitter_days = 35;
    p.email_conflation_until = Date::ymd(2017, 3, 1);
    // 19 historical non-NSS roots, dropped mid-2015.
    for (const auto& [id, spec] : extra_specs) {
      (void)spec;
      if (id.rfind("debianextra-", 0) == 0) {
        DerivativeOverride ov;
        ov.root_id = id;
        ov.present_from = start;
        ov.present_until = Date::ymd(2015, 6, 30);
        ov.absent_from = Date::ymd(2015, 7, 1);
        p.overrides.push_back(std::move(ov));
      }
    }
    // Symantec: premature removal (11 of 12, GeoTrust Universal CA 2 kept),
    // then re-added after the NuGet breakage complaints.
    for (int i = 1; i <= 11; ++i) {
      DerivativeOverride ov;
      ov.root_id = "symantec-root-" + std::to_string(i);
      ov.absent_from = Date::ymd(2020, 4, 20);
      ov.absent_until = Date::ymd(2020, 6, 19);
      p.overrides.push_back(std::move(ov));
    }
    p.snapshot_dates.push_back(Date::ymd(2020, 4, 25));  // removal visible
    p.snapshot_dates.push_back(Date::ymd(2020, 6, 25));  // re-add visible
    add_response_overrides(p, incidents);
    return p;
  };

  const auto debian_policy =
      debian_like("Debian", Date::ymd(2005, 5, 10), Date::ymd(2021, 1, 10), 33);
  const auto ubuntu_policy =
      debian_like("Ubuntu", Date::ymd(2003, 10, 10), Date::ymd(2021, 1, 10), 32);

  DerivativePolicy amazon_policy;
  {
    DerivativePolicy& p = amazon_policy;
    p.name = "AmazonLinux";
    p.snapshot_dates =
        evenly_spaced(Date::ymd(2016, 10, 5), Date::ymd(2021, 3, 20), 37);
    for (Date d : response_dates(p.name, incidents)) p.snapshot_dates.push_back(d);
    p.lag_days = 400;
    p.lag_jitter_days = 50;
    p.email_conflation_until = Date::ymd(2019, 6, 1);
    // One non-NSS Thawte root, 2016-10 .. 2020-12.
    p.overrides.push_back({"amazon-thawte", Date::ymd(2016, 10, 5),
                           Date::ymd(2020, 12, 10), Date::ymd(2020, 12, 11),
                           {}, false});
    // Sixteen 1024-bit roots re-added after NSS purged them (2016..2018).
    int readded = 0;
    for (const auto& r : pool) {
      if (r.spec.rsa_bits < 2048 && r.spec.not_after > Date::ymd(2019, 1, 1) &&
          readded < 16) {
        p.overrides.push_back({r.spec.id, Date::ymd(2016, 10, 5),
                               Date::ymd(2018, 12, 10), Date::ymd(2018, 12, 11),
                               {}, false});
        ++readded;
      }
    }
    // Thirteen expired / CA-requested removals briefly re-added in 2018.
    int expired_readds = 0;
    for (const auto& r : pool) {
      if (r.spec.not_after < Date::ymd(2018, 1, 1) && expired_readds < 13) {
        p.overrides.push_back({r.spec.id, Date::ymd(2018, 3, 1),
                               Date::ymd(2018, 9, 10), Date::ymd(2018, 9, 11),
                               {}, false});
        ++expired_readds;
      }
    }
    add_response_overrides(p, incidents);
  }

  DerivativePolicy alpine_policy;
  {
    DerivativePolicy& p = alpine_policy;
    p.name = "Alpine";
    p.snapshot_dates =
        evenly_spaced(Date::ymd(2019, 3, 5), Date::ymd(2021, 4, 10), 40);
    for (Date d : response_dates(p.name, incidents)) p.snapshot_dates.push_back(d);
    p.lag_days = 35;
    p.lag_jitter_days = 12;
    p.email_conflation_until = Date::ymd(2020, 6, 1);
    // Manual removal of the expired AddTrust root without an NSS update.
    p.overrides.push_back(
        {"addtrust-root", {}, {}, Date::ymd(2020, 6, 5), {}, false});
    add_response_overrides(p, incidents);
  }

  DerivativePolicy android_policy;
  {
    DerivativePolicy& p = android_policy;
    p.name = "Android";
    p.snapshot_dates =
        evenly_spaced(Date::ymd(2016, 8, 20), Date::ymd(2020, 12, 5), 12);
    for (Date d : response_dates(p.name, incidents)) p.snapshot_dates.push_back(d);
    p.lag_days = 340;
    p.lag_jitter_days = 50;
    p.freeze_effective_after = Date::ymd(2019, 12, 15);
    // Proactive security removals without NSS version updates (§6.2).
    p.overrides.push_back(
        {"procert-root", {}, {}, {}, {}, /*always_absent=*/true});
    for (const char* id : {"wosign-root-1", "wosign-root-2", "wosign-root-3",
                           "wosign-root-4", "startcom-root-1", "startcom-root-2",
                           "startcom-root-3"}) {
      p.overrides.push_back(
          {id, {}, {}, Date::ymd(2017, 12, 6), {}, false});
    }
    add_response_overrides(p, incidents);
  }

  DerivativePolicy node_policy;
  {
    DerivativePolicy& p = node_policy;
    p.name = "NodeJS";
    p.snapshot_dates =
        evenly_spaced(Date::ymd(2015, 1, 20), Date::ymd(2021, 4, 5), 14);
    for (Date d : response_dates(p.name, incidents)) p.snapshot_dates.push_back(d);
    p.lag_days = 165;
    p.lag_jitter_days = 35;
    // TLS-only extraction from the start (node_root_certs.h).
    p.email_conflation_until = std::nullopt;
    // Deprecated ValiCert root re-added for OpenSSL chain building.
    p.overrides.push_back({"nodejs-valicert", Date::ymd(2015, 3, 1), {}, {},
                           {}, false});
    // Skipped NSS v53: TWCA and SK ID removals never applied.
    p.overrides.push_back({"twca-root", incident_include_date("twca-root"),
                           {}, {}, {}, false});
    p.overrides.push_back({"skid-root", incident_include_date("skid-root"),
                           {}, {}, {}, false});
    add_response_overrides(p, incidents);
  }

  for (const DerivativePolicy* policy :
       std::initializer_list<const DerivativePolicy*>{
           &debian_policy, &ubuntu_policy, &amazon_policy, &alpine_policy,
           &android_policy, &node_policy}) {
    db.add(generate_derivative(*policy, nss, *factory, extra_specs));
  }

  // --- Out-of-band trust overlays (§3.1 / §5.2 / §5.3) ---------------------
  // Apple revokes via valid.apple.com without removing from the shipped
  // store: two of the three StartCom roots, the Certinomis root (at an
  // unknown date; we pin it to the paper's "trusted until" + 1), and the
  // Government-of-Venezuela exclusive root.
  std::map<std::string, rs::store::TrustOverlay> overlays;
  {
    rs::store::TrustOverlay apple_overlay("Apple");
    struct OverlayPlan {
      const char* root_id;
      Date effective;
    };
    const OverlayPlan plans[] = {
        {"startcom-root-2", Date::ymd(2018, 9, 16)},
        {"startcom-root-3", Date::ymd(2018, 9, 16)},
        {"certinomis-root", Date::ymd(2021, 1, 2)},
        {"apple-excl-venezuela", Date::ymd(2020, 3, 1)},
    };
    for (const auto& plan : plans) {
      if (auto cert = factory->find(plan.root_id)) {
        apple_overlay.add(rs::store::OverlayRevocation{
            cert->sha256(), plan.effective, "valid.apple.com", 0});
      }
    }
    overlays.emplace("Apple", std::move(apple_overlay));
  }

  span.set_items(db.total_snapshots());
  return PaperScenario(std::move(factory), std::move(db), std::move(timelines),
                       std::move(extra_specs), std::move(exclusive_meta),
                       std::move(overlays));
}

}  // namespace rs::synth
