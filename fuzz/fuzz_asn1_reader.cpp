// Fuzz target: rs::asn1::Reader, the strict DER decoder underneath every
// binary snapshot format (X.509, authroot.stl).
//
// Walks the input as a DER forest: constructed elements are descended via
// the tag-specific sub-reader APIs (exercising the nesting-depth cap),
// primitives are decoded through every typed accessor that matches their
// tag.  Any byte string must produce values or diagnostics, never a crash.
#include <span>

#include "fuzz/fuzz_harness.h"
#include "src/asn1/reader.h"
#include "src/asn1/tag.h"

namespace {

using rs::asn1::Reader;
using rs::asn1::UniversalTag;

void decode_primitive(Reader& r, std::uint8_t tag) {
  switch (tag) {
    case rs::asn1::primitive(UniversalTag::kBoolean):
      (void)r.read_boolean();
      return;
    case rs::asn1::primitive(UniversalTag::kInteger):
      // Both widths share the tag; try the narrow one first on a scratch
      // copy so the wide decode still sees the element.
      {
        Reader probe = r;
        (void)probe.read_small_integer();
      }
      (void)r.read_big_integer();
      return;
    case rs::asn1::primitive(UniversalTag::kOid):
      (void)r.read_oid();
      return;
    case rs::asn1::primitive(UniversalTag::kOctetString):
      (void)r.read_octet_string();
      return;
    case rs::asn1::primitive(UniversalTag::kBitString):
      (void)r.read_bit_string();
      return;
    case rs::asn1::primitive(UniversalTag::kNull):
      (void)r.read_null();
      return;
    case rs::asn1::primitive(UniversalTag::kUtf8String):
    case rs::asn1::primitive(UniversalTag::kPrintableString):
    case rs::asn1::primitive(UniversalTag::kIa5String):
    case rs::asn1::primitive(UniversalTag::kT61String):
      (void)r.read_string();
      return;
    default:
      (void)r.read_any();
      return;
  }
}

// Recursive walk; recursion is bounded by Reader::kMaxDepth, which is
// exactly the property this harness pressure-tests with nested input.
void walk(Reader r) {
  while (!r.at_end()) {
    const std::size_t before = r.remaining();
    const auto tag = r.peek_tag();
    if (!tag.ok()) return;
    const std::uint8_t t = tag.value();
    if (t == rs::asn1::constructed(UniversalTag::kSequence)) {
      auto sub = r.read_sequence();
      if (!sub.ok()) return;
      walk(sub.value());
    } else if (t == rs::asn1::constructed(UniversalTag::kSet)) {
      auto sub = r.read_set();
      if (!sub.ok()) return;
      walk(sub.value());
    } else if ((t & 0xE0) == (0x80 | rs::asn1::kConstructed)) {
      auto sub = r.read_context(t & 0x1F);
      if (!sub.ok()) return;
      walk(sub.value());
    } else {
      decode_primitive(r, t);
    }
    // A failed decode leaves the cursor untouched; stop instead of spinning.
    if (r.remaining() == before) return;
    RS_FUZZ_ASSERT(r.remaining() < before, "reader cursor moved backwards");
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  walk(Reader(std::span(data, size)));
  return 0;
}
