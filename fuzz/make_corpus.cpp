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
  }

  // --- persist_load: RSIX trust-index images -----------------------------
  {
    const fs::path dir = root / "persist_load";
    // A minimal but fully populated index: one provider, two snapshots,
    // three roots, one dropped at the second date so the interval section
    // carries both closed and still-open runs.
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

    // One truncation at the end of each of the four sections, plus a
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
    write_seed(dir, "not-an-index.rsix",
               std::string_view("RSIX01 but not really\n"));
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
