// Fuzz target: rs::formats::parse_rsts, the RSTS reader behind every
// dataset snapshot (`report --from DIR`, `dataset verify`) and `convert`.
//
// Invariants for any text:
//   1. parsing it twice through one CertPool gives the same result both
//      times: the second pass serves every certificate from the pool
//      (text-keyed hits skip base64 decoding), and its entries, warnings
//      and errors must match the cold pass exactly;
//   2. accepted entries, written with write_rsts and parsed again, give the
//      same entries (DER, per-purpose trust, order), since RSTS is the
//      full-fidelity format;
//   3. the parse agrees with the reference parser of
//      tests/referee/rsts_reference.h, cold and warm: the same verdict,
//      error, warnings and entries, and CertPool counts (parses, hits) that
//      match pass for pass.
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/fuzz_harness.h"
#include "src/formats/cert_pool.h"
#include "src/formats/portable.h"
#include "tests/referee/rsts_reference.h"

namespace {

bool same_entries(const std::vector<rs::store::TrustEntry>& a,
                  const std::vector<rs::store::TrustEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].certificate->der() != b[i].certificate->der()) return false;
    if (a[i].purposes != b[i].purposes) return false;
  }
  return true;
}

using Parsed = rs::util::Result<rs::formats::ParsedStore>;

bool same_parse(const Parsed& a, const Parsed& b) {
  if (a.ok() != b.ok()) return false;
  if (!a.ok()) return a.error() == b.error();
  return a.value().warnings == b.value().warnings &&
         same_entries(a.value().entries, b.value().entries);
}

bool same_counts(const rs::formats::CertPool& a,
                 const rs::formats::CertPool& b) {
  return a.counts().parses == b.counts().parses &&
         a.counts().hits == b.counts().hits && a.size() == b.size();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  rs::formats::CertPool pool;
  rs::formats::CertPool ref_pool;
  const auto cold = rs::formats::parse_rsts(text, pool);
  RS_FUZZ_ASSERT(same_parse(cold, rs::referee::rsts::parse(text, ref_pool)),
                 "cold parse disagrees with the reference parser");
  RS_FUZZ_ASSERT(same_counts(pool, ref_pool),
                 "cold pool counts disagree with the reference parser");
  const auto warm = rs::formats::parse_rsts(text, pool);
  RS_FUZZ_ASSERT(same_parse(warm, rs::referee::rsts::parse(text, ref_pool)),
                 "warm parse disagrees with the reference parser");
  RS_FUZZ_ASSERT(same_counts(pool, ref_pool),
                 "warm pool counts disagree with the reference parser");
  RS_FUZZ_ASSERT(cold.ok() == warm.ok(), "warm pool changed the verdict");
  if (!cold.ok()) {
    RS_FUZZ_ASSERT(cold.error() == warm.error(), "warm pool changed the error");
    return 0;
  }
  const auto& entries = cold.value().entries;
  RS_FUZZ_ASSERT(cold.value().warnings == warm.value().warnings,
                 "warm pool changed the warnings");
  RS_FUZZ_ASSERT(same_entries(entries, warm.value().entries),
                 "warm pool changed the entries");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    RS_FUZZ_ASSERT(entries[i].certificate == warm.value().entries[i].certificate,
                   "warm pass decoded a certificate the pool held");
  }

  const auto again = rs::formats::parse_rsts(rs::formats::write_rsts(entries));
  RS_FUZZ_ASSERT(again.ok(), "write_rsts output rejected by parser");
  RS_FUZZ_ASSERT(same_entries(entries, again.value().entries),
                 "rsts roundtrip changed the entries");
  return 0;
}
