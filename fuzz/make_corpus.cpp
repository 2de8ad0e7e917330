// Regenerates the checked-in fuzz corpus under fuzz/corpus/.
//
//   make_corpus <output-dir>
//
// Seeds are deterministic (fixed key seeds, fixed dates) so regeneration is
// reproducible; each format gets well-formed stores produced by the
// project's own writers plus hand-crafted malformed inputs covering the
// error paths the harnesses must survive: truncation, oversized length
// prefixes, bad magic/version, non-canonical encodings, deep nesting.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/crypto/sha1.h"
#include "src/encoding/base64.h"
#include "src/formats/authroot_stl.h"
#include "src/formats/certdata.h"
#include "src/formats/jks.h"
#include "src/formats/pem_bundle.h"
#include "src/formats/portable.h"
#include "src/query/index_io.h"
#include "src/query/request.h"
#include "src/query/trust_index.h"
#include "src/synth/chain_gen.h"
#include "src/store/database.h"
#include "src/store/interner.h"
#include "src/store/persist.h"
#include "src/store/snapshot.h"
#include "src/store/trust.h"
#include "src/util/date.h"
#include "src/util/hex.h"
#include "src/x509/builder.h"

namespace {

namespace fs = std::filesystem;
using Bytes = std::vector<std::uint8_t>;

std::vector<rs::store::TrustEntry> sample_entries(int n) {
  std::vector<rs::store::TrustEntry> out;
  for (int i = 0; i < n; ++i) {
    rs::x509::Name name;
    name.add_common_name("Corpus Root " + std::to_string(i));
    out.push_back(rs::store::make_tls_anchor(
        std::make_shared<const rs::x509::Certificate>(
            rs::x509::CertificateBuilder()
                .subject(name)
                .key_seed(static_cast<std::uint64_t>(7000 + i))
                .build())));
  }
  return out;
}

void write_seed(const fs::path& dir, const std::string& name,
                std::span<const std::uint8_t> bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void write_seed(const fs::path& dir, const std::string& name,
                std::string_view text) {
  write_seed(dir, name,
             std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                       text.size()));
}

Bytes nested_sequences(std::size_t levels) {
  Bytes der;
  for (std::size_t i = 0; i < levels; ++i) {
    Bytes wrapped = {0x30};
    if (der.size() < 0x80) {
      wrapped.push_back(static_cast<std::uint8_t>(der.size()));
    } else if (der.size() <= 0xFF) {
      wrapped.push_back(0x81);
      wrapped.push_back(static_cast<std::uint8_t>(der.size()));
    } else {
      wrapped.push_back(0x82);
      wrapped.push_back(static_cast<std::uint8_t>(der.size() >> 8));
      wrapped.push_back(static_cast<std::uint8_t>(der.size() & 0xFF));
    }
    wrapped.insert(wrapped.end(), der.begin(), der.end());
    der = std::move(wrapped);
  }
  return der;
}

// Appends a valid JKS integrity digest so the seed reaches the framing
// parser (same scheme as fuzz_jks.cpp's re-sign pass).
Bytes sign_jks(Bytes body) {
  rs::crypto::Sha1 h;
  for (char c : rs::formats::kDefaultJksPassword) {
    const std::uint8_t pair[2] = {0, static_cast<std::uint8_t>(c)};
    h.update(pair);
  }
  constexpr std::string_view kWhitener = "Mighty Aphrodite";
  h.update({reinterpret_cast<const std::uint8_t*>(kWhitener.data()),
            kWhitener.size()});
  h.update(body);
  const auto digest = h.finish();
  body.insert(body.end(), digest.begin(), digest.end());
  return body;
}

void put_u32(Bytes& out, std::uint32_t v) {
  for (int s = 24; s >= 0; s -= 8) out.push_back(static_cast<std::uint8_t>(v >> s));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  const fs::path root = argv[1];
  const auto entries = sample_entries(3);
  const auto one = sample_entries(1);

  // --- asn1_reader: raw DER through the generic reader walk --------------
  {
    const fs::path dir = root / "asn1_reader";
    write_seed(dir, "cert.der", one[0].certificate->der());
    write_seed(dir, "nested-8.der", nested_sequences(8));
    write_seed(dir, "nested-300.der", nested_sequences(300));
    const Bytes prims = {0x01, 0x01, 0xFF,              // BOOLEAN true
                         0x02, 0x01, 0x2A,              // INTEGER 42
                         0x06, 0x03, 0x55, 0x04, 0x03,  // OID 2.5.4.3
                         0x0C, 0x02, 'h', 'i',          // UTF8String
                         0x05, 0x00};                   // NULL
    write_seed(dir, "primitives.der", prims);
    write_seed(dir, "truncated-length.der", Bytes{0x30, 0x82, 0x01});
    write_seed(dir, "indefinite-length.der", Bytes{0x30, 0x80, 0x00, 0x00});
    write_seed(dir, "overlong-content.der", Bytes{0x04, 0x7F, 0x00});
  }

  // --- base64 ------------------------------------------------------------
  {
    const fs::path dir = root / "base64";
    write_seed(dir, "hello.txt", std::string_view("SGVsbG8gd29ybGQ="));
    write_seed(dir, "wrapped.txt",
               std::string_view("SGVs\nbG8g\nd29y\nbGQh\n"));
    write_seed(dir, "empty.txt", std::string_view(""));
    write_seed(dir, "bad-char.txt", std::string_view("SGVs*G8="));
    write_seed(dir, "bad-length.txt", std::string_view("SGVsbG8"));
    write_seed(dir, "misplaced-pad.txt", std::string_view("SG=sbG8="));
    write_seed(dir, "noncanonical.txt", std::string_view("SGVsbG9="));
    write_seed(dir, "embedded-whitespace.txt",
               std::string_view("SG Vs\tbG8g\r\nd29y\fbGQh\v"));
    write_seed(dir, "pad-two.txt", std::string_view("SGVsbA=="));
    write_seed(dir, "pad-mid-text.txt", std::string_view("SGk=SGVs"));
  }

  // --- pem ---------------------------------------------------------------
  {
    const fs::path dir = root / "pem";
    write_seed(dir, "bundle.pem", rs::formats::write_pem_bundle(entries));
    write_seed(dir, "prose-between-blocks.pem",
               "subject=CN=Example\n" +
                   rs::formats::write_pem_bundle(one) + "trailing prose\n");
    write_seed(dir, "unterminated.pem",
               std::string_view("-----BEGIN CERTIFICATE-----\nAAAA\n"));
    write_seed(dir, "mismatched-end.pem",
               std::string_view("-----BEGIN CERTIFICATE-----\nAAAA\n"
                                "-----END TRUST-----\n"));
    write_seed(dir, "bad-base64.pem",
               std::string_view("-----BEGIN CERTIFICATE-----\n!!!!\n"
                                "-----END CERTIFICATE-----\n"));
    write_seed(dir, "empty-label.pem",
               std::string_view("-----BEGIN -----\n-----END -----\n"));
  }

  // --- certdata ----------------------------------------------------------
  {
    const fs::path dir = root / "certdata";
    const std::string full = rs::formats::write_certdata(entries);
    write_seed(dir, "store.txt", full);
    write_seed(dir, "truncated.txt",
               std::string_view(full).substr(0, full.size() / 2));
    write_seed(dir, "missing-begindata.txt",
               std::string_view("CKA_CLASS CK_OBJECT_CLASS CKO_CERTIFICATE\n"));
    write_seed(dir, "bad-octal.txt",
               std::string_view("BEGINDATA\n"
                                "CKA_CLASS CK_OBJECT_CLASS CKO_CERTIFICATE\n"
                                "CKA_VALUE MULTILINE_OCTAL\n\\999\nEND\n"));
    write_seed(dir, "unterminated-octal.txt",
               std::string_view("BEGINDATA\n"
                                "CKA_CLASS CK_OBJECT_CLASS CKO_CERTIFICATE\n"
                                "CKA_VALUE MULTILINE_OCTAL\n\\101\\102"));
    write_seed(dir, "unknown-trust-level.txt",
               std::string_view("BEGINDATA\n"
                                "CKA_CLASS CK_OBJECT_CLASS CKO_NSS_TRUST\n"
                                "CKA_TRUST_SERVER_AUTH CK_TRUST CKT_BOGUS\n"));
  }

  // --- authroot ----------------------------------------------------------
  {
    const fs::path dir = root / "authroot";
    const auto blob = rs::formats::write_authroot(entries);
    write_seed(dir, "store.stl", blob.stl);
    write_seed(dir, "truncated.stl",
               std::span(blob.stl).first(blob.stl.size() / 2));
    write_seed(dir, "wrong-version.stl",
               Bytes{0x30, 0x03, 0x02, 0x01, 0x07});
    const Bytes short_sha1 = {0x30, 0x0D, 0x02, 0x01, 0x01, 0x30, 0x08,
                              0x30, 0x06, 0x04, 0x02, 0xAB, 0xCD, 0x30,
                              0x00};
    write_seed(dir, "short-subject-id.stl", short_sha1);
    write_seed(dir, "nested-300.stl", nested_sequences(300));
  }

  // --- jks ---------------------------------------------------------------
  {
    const fs::path dir = root / "jks";
    const auto store = rs::formats::write_jks(
        entries, rs::util::Date::ymd(2021, 1, 1));
    write_seed(dir, "store.jks", store);
    write_seed(dir, "truncated.jks", std::span(store).first(store.size() / 3));
    Bytes bad_magic;
    put_u32(bad_magic, 0xDEADBEEFu);
    put_u32(bad_magic, 2);
    put_u32(bad_magic, 0);
    write_seed(dir, "bad-magic.jks", sign_jks(std::move(bad_magic)));
    Bytes overflow_count;
    put_u32(overflow_count, 0xFEEDFEEDu);
    put_u32(overflow_count, 2);
    put_u32(overflow_count, 0xFFFFFFFFu);
    write_seed(dir, "count-overflow.jks", sign_jks(std::move(overflow_count)));
    Bytes alias_overflow;
    put_u32(alias_overflow, 0xFEEDFEEDu);
    put_u32(alias_overflow, 2);
    put_u32(alias_overflow, 1);
    put_u32(alias_overflow, 2);          // trusted-cert tag
    alias_overflow.push_back(0xFF);      // alias length 0xFFFF...
    alias_overflow.push_back(0xFF);      // ...with 1 byte remaining
    alias_overflow.push_back('a');
    write_seed(dir, "alias-overflow.jks", sign_jks(std::move(alias_overflow)));
    write_seed(dir, "empty.jks", Bytes{});
  }

  // --- rsts: the dataset snapshot format ---------------------------------
  {
    const fs::path dir = root / "rsts";
    auto rich = entries;
    rich[1].trust_for(rs::store::TrustPurpose::kServerAuth).distrust_after =
        rs::util::Date::ymd(2020, 6, 1);
    rich[2].trust_for(rs::store::TrustPurpose::kEmailProtection).level =
        rs::store::TrustLevel::kDistrusted;
    const std::string store = rs::formats::write_rsts(rich);
    write_seed(dir, "store.rsts", store);
    const std::string text0 =
        rs::encoding::base64_encode(entries[0].certificate->der());
    const std::string text1 =
        rs::encoding::base64_encode(entries[1].certificate->der());
    std::string swapped = store;  // root 0's cert under root 1's pin
    swapped.replace(swapped.find(text1), text1.size(), text0);
    write_seed(dir, "pin-mismatch.rsts", swapped);
    std::string bad = store;
    bad.replace(bad.find(text0), 4, "!!!!");
    write_seed(dir, "bad-base64.rsts", bad);
    write_seed(dir, "truncated.rsts",
               std::string_view(store).substr(0, store.size() / 2));
    std::string unknown = store;
    unknown.insert(unknown.find("  sha256"),
                   "  future-field some value\n"
                   "  trust server-auth bogus-level\n"
                   "  trust code-signing distrusted colour=blue\n");
    write_seed(dir, "unknown-keys.rsts", unknown);
    // The same certificate in three blocks: pool hits inside one document.
    auto repeated = std::vector{rich[0], rich[1], rich[0]};
    repeated[2] = rs::store::make_anchor_for(
        rich[0].certificate, {rs::store::TrustPurpose::kEmailProtection});
    write_seed(dir, "repeated-cert.rsts", rs::formats::write_rsts(repeated));
    // A distrusted root whose CN spells out a trusted root block for
    // entries[0]: write_rsts must keep it one entry on the round trip.
    rs::x509::Name injecting;
    injecting.add_common_name(
        "Innocent\nend\nroot\n  sha256 " +
        rs::util::hex_encode(entries[0].certificate->sha256()) +
        "\n  cert " + text0 +
        "\n  trust server-auth trusted-delegator\nend\nroot");
    rs::store::TrustEntry distrusted;
    distrusted.certificate = std::make_shared<const rs::x509::Certificate>(
        rs::x509::CertificateBuilder().subject(injecting).key_seed(7100).build());
    for (const auto p : rs::store::kAllPurposes) {
      distrusted.trust_for(p).level = rs::store::TrustLevel::kDistrusted;
    }
    write_seed(dir, "label-injection.rsts",
               rs::formats::write_rsts({distrusted}));
    // Separators and line ends other than one space and "\n", pins in upper
    // case, and `cert` lines the pool lookup must leave to the tokenizer:
    // the parser looks a `cert` line up before it tokenizes it and compares
    // pins without lowercasing them, and must still read these exactly as
    // the reference parser (tests/referee/rsts_reference.h) does.
    const auto replace_all = [](std::string doc, std::string_view from,
                                std::string_view to) {
      for (std::size_t at = doc.find(from); at != std::string::npos;
           at = doc.find(from, at + to.size())) {
        doc.replace(at, from.size(), to);
      }
      return doc;
    };
    write_seed(dir, "tab-separated-cert.rsts",
               replace_all(store, "  cert ", "  cert\t"));
    write_seed(dir, "crlf.rsts", replace_all(store, "\n", "\r\n"));
    write_seed(dir, "vtab-separator.rsts",
               replace_all(replace_all(store, "  cert ", "  cert\v"),
                           "  sha256 ", "\v sha256\v"));
    std::string upper_pin = store;
    for (std::size_t at = upper_pin.find("  sha256 "); at != std::string::npos;
         at = upper_pin.find("  sha256 ", at + 1)) {
      const std::size_t end = upper_pin.find('\n', at);
      std::transform(upper_pin.begin() + static_cast<std::ptrdiff_t>(at) + 9,
                     upper_pin.begin() + static_cast<std::ptrdiff_t>(end),
                     upper_pin.begin() + static_cast<std::ptrdiff_t>(at) + 9,
                     [](char c) {
                       return c >= 'a' && c <= 'f'
                                  ? static_cast<char>(c - 'a' + 'A')
                                  : c;
                     });
    }
    write_seed(dir, "upper-case-pin.rsts", upper_pin);
    write_seed(dir, "two-token-cert.rsts",
               replace_all(store, text0, text0 + " " + text0));
    // Root 0 twice: the second block's `cert` line is a pool hit even on
    // a cold pool, and a bad-base64 line after it must still reject it.
    std::string hit_then_bad = rs::formats::write_rsts({rich[0], rich[0]});
    const std::size_t second = hit_then_bad.find(
        "  cert ", hit_then_bad.find("  cert ") + 1);
    hit_then_bad.insert(hit_then_bad.find('\n', second) + 1, "  cert !!!!\n");
    write_seed(dir, "hit-then-bad-base64.rsts", hit_then_bad);
  }

  // --- persist_load: RSIX trust-index images -----------------------------
  {
    const fs::path dir = root / "persist_load";
    // A minimal but fully populated index: one provider, two snapshots,
    // three roots, one dropped at the second date so the sets derive both
    // closed and still-open runs.
    rs::store::Snapshot first_snap;
    first_snap.provider = "CorpusStore";
    first_snap.date = rs::util::Date::ymd(2020, 1, 1);
    first_snap.version = "1";
    first_snap.entries = sample_entries(3);
    rs::store::Snapshot second_snap = first_snap;
    second_snap.date = rs::util::Date::ymd(2020, 7, 1);
    second_snap.version = "2";
    second_snap.entries.pop_back();
    rs::store::ProviderHistory history("CorpusStore");
    history.add(first_snap);
    history.add(second_snap);
    rs::store::StoreDatabase db;
    db.add(std::move(history));
    const auto index = rs::query::TrustIndex::build(
        db, rs::store::CertInterner::from_database(db));
    const std::string image = rs::query::TrustIndexIO::serialize(index);
    write_seed(dir, "minimal.rsix", std::string_view(image));
    write_seed(dir, "empty-index.rsix",
               std::string_view(
                   rs::query::TrustIndexIO::serialize(rs::query::TrustIndex())));

    // One truncation at the end of each of the three sections, plus a
    // mid-header cut — the boundaries the loader's sweep must reject.
    const auto span = std::span(
        reinterpret_cast<const std::uint8_t*>(image.data()), image.size());
    auto view = rs::store::persist::FileView::parse(span);
    for (const auto& sec : view.value().sections()) {
      const std::size_t end = static_cast<std::size_t>(
          sec.payload.data() - span.data()) + sec.payload.size();
      write_seed(dir,
                 "truncated-after-s" + std::to_string(sec.id) + ".rsix",
                 std::string_view(image).substr(0, end - 1));
    }
    write_seed(dir, "truncated-header.rsix",
               std::string_view(image).substr(0, 20));
    std::string skew = image;
    skew[8] = 0x7F;  // version u32 -> unknown
    write_seed(dir, "version-skew.rsix", std::string_view(skew));
    // Format version 1 (it stored intervals as a fourth section): rejected
    // on its version field alone.
    std::string version_one = image;
    version_one[8] = 1;
    write_seed(dir, "version-one.rsix", std::string_view(version_one));
    write_seed(dir, "not-an-index.rsix",
               std::string_view("RSIX01 but not really\n"));

    // The minimal index over a 64-digest universe whose digests share
    // their first four bytes, so every one falls into the same bucket of
    // the interner's radix index.  The sets still name IDs 0..2, which
    // stay in range.
    std::vector<rs::crypto::Sha256Digest> prefixed(64);
    for (std::size_t i = 0; i < prefixed.size(); ++i) {
      auto& d = prefixed[i];
      d.fill(static_cast<std::uint8_t>(0xC3 ^ i));
      d[0] = d[1] = d[2] = d[3] = 0x5A;
      d[4] = static_cast<std::uint8_t>(i);
    }
    // The minimal image with one section's payload replaced.  Checksums
    // are fresh, so only the loader's semantic checks can object to what
    // the payload says.
    const auto with_section = [&](std::uint32_t id,
                                  const std::string& payload) {
      rs::store::persist::FileBuilder b;
      for (const auto& sec : view.value().sections()) {
        b.add_section(sec.id, sec.id == id ? payload
                                           : std::string(sec.payload.begin(),
                                                         sec.payload.end()));
      }
      return b.finish();
    };
    rs::store::persist::ByteWriter digests;
    rs::store::persist::write_digests(digests, prefixed);
    write_seed(dir, "shared-prefix.rsix",
               std::string_view(with_section(rs::query::kSectionInterner,
                                             digests.data())));

    // Sets that shrink in word count and grow back: 70 roots, then only
    // those with IDs below 64 (a one-word set once trimmed), then all 70
    // again, so runs close in the tail word that the middle set lacks.
    rs::store::Snapshot wide;
    wide.provider = "CorpusStore";
    wide.date = rs::util::Date::ymd(2020, 1, 1);
    wide.version = "1";
    wide.entries = sample_entries(70);
    rs::store::ProviderHistory wide_only("CorpusStore");
    wide_only.add(wide);
    rs::store::StoreDatabase wide_db;
    wide_db.add(std::move(wide_only));
    const auto universe = rs::store::CertInterner::from_database(wide_db);
    rs::store::Snapshot narrow = wide;
    narrow.date = rs::util::Date::ymd(2020, 7, 1);
    narrow.version = "2";
    std::erase_if(narrow.entries, [&](const rs::store::TrustEntry& e) {
      return *universe.id_of(e.certificate->sha256()) >= 64;
    });
    rs::store::Snapshot regrown = wide;
    regrown.date = rs::util::Date::ymd(2021, 1, 1);
    regrown.version = "3";
    rs::store::ProviderHistory shrinking("CorpusStore");
    shrinking.add(wide);
    shrinking.add(narrow);
    shrinking.add(regrown);
    rs::store::StoreDatabase shrinking_db;
    shrinking_db.add(std::move(shrinking));
    write_seed(dir, "shrinking-sets.rsix",
               std::string_view(rs::query::TrustIndexIO::serialize(
                   rs::query::TrustIndex::build(shrinking_db, universe))));

    // Roots that arrive after the first snapshot and stay, and one that
    // leaves and comes back: {0}, {0,1}, {1,2}, {0,1,2}.  A root's
    // first-seen date is then neither the first date nor its last run's.
    const auto late = sample_entries(3);
    rs::store::ProviderHistory arrivals("CorpusStore");
    const std::vector<std::vector<int>> members = {
        {0}, {0, 1}, {1, 2}, {0, 1, 2}};
    for (std::size_t k = 0; k < members.size(); ++k) {
      rs::store::Snapshot snap;
      snap.provider = "CorpusStore";
      snap.date = rs::util::Date::ymd(2020, 1, 1) + static_cast<int>(90 * k);
      snap.version = std::to_string(k + 1);
      for (const int i : members[k]) {
        snap.entries.push_back(late[static_cast<std::size_t>(i)]);
      }
      arrivals.add(std::move(snap));
    }
    rs::store::StoreDatabase arrivals_db;
    arrivals_db.add(std::move(arrivals));
    write_seed(dir, "late-arrivals.rsix",
               std::string_view(rs::query::TrustIndexIO::serialize(
                   rs::query::TrustIndex::build(
                       arrivals_db,
                       rs::store::CertInterner::from_database(arrivals_db)))));
  }

  // --- verify_chain: NDJSON verify requests over synthetic chains --------
  {
    const fs::path dir = root / "verify_chain";
    rs::x509::Name anchor_name;
    anchor_name.add_common_name("Corpus Verify Anchor");
    anchor_name.add_organization("rs_verify");
    rs::synth::ChainGenConfig cfg;
    cfg.anchor = std::make_shared<const rs::x509::Certificate>(
        rs::x509::CertificateBuilder()
            .subject(anchor_name)
            .key_seed(7100)
            .build());
    const auto cases = rs::synth::build_chain_cases(cfg);
    const auto& v = cfg.anchor->validity();
    const rs::util::Date mid =
        v.not_before.date + (v.not_after.date - v.not_before.date) / 2;

    auto request_for = [&](const rs::synth::ChainCase& c, rs::query::Op op,
                           std::optional<rs::util::Date> date,
                           rs::query::Scope scope) {
      rs::query::Request r;
      r.op = op;
      r.provider = "CorpusStore";
      r.date = date;
      r.scope = scope;
      r.leaf = c.leaf->der();
      for (const auto& cert : c.pool) r.pool.push_back(cert->der());
      std::sort(r.pool.begin(), r.pool.end());
      r.pool.erase(std::unique(r.pool.begin(), r.pool.end()), r.pool.end());
      return rs::query::canonical_request(r);
    };
    for (const char* name :
         {"straight", "deep", "cross_sign", "pathlen_violation",
          "non_ca_intermediate", "missing_intermediate", "untrusted_root",
          "mixed_case"}) {
      for (const auto& c : cases) {
        if (c.name != name) continue;
        write_seed(dir, std::string(name) + ".req",
                   request_for(c, rs::query::Op::kVerifyChain, mid,
                               rs::query::Scope::kTls));
      }
    }
    for (const auto& c : cases) {
      if (c.name == "email_leaf") {
        write_seed(dir, "email-scope.req",
                   request_for(c, rs::query::Op::kVerifyChain, mid,
                               rs::query::Scope::kEmail));
      }
      if (c.name == "straight") {
        write_seed(dir, "flip-scan.req",
                   request_for(c, rs::query::Op::kFirstRejectedAt,
                               std::nullopt, rs::query::Scope::kTls));
        // Raw DER (not a request line) drives the bare-certificate mode.
        write_seed(dir, "raw-leaf.der", c.leaf->der());
        // Valid base64 of truncated DER: the request parses, the
        // certificate must be rejected without crashing.
        auto half = c.leaf->der();
        half.resize(half.size() / 2);
        rs::query::Request r;
        r.op = rs::query::Op::kVerifyChain;
        r.provider = "CorpusStore";
        r.date = mid;
        r.scope = rs::query::Scope::kTls;
        r.leaf = std::move(half);
        write_seed(dir, "truncated-leaf.req", rs::query::canonical_request(r));
      }
    }
  }

  std::printf("corpus written to %s\n", root.string().c_str());
  return 0;
}
