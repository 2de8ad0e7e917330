// Fuzz target: rs::encoding::base64_decode, which sits under every PEM body
// the pipeline ingests.
//
// Decodes in both strict and whitespace-tolerant modes, and each mode must
// agree with the reference codec of tests/referee/base64_reference.h: the
// same accept or reject and the same bytes.  When a decode succeeds,
// re-encoding must reproduce the compacted input exactly (the decoder
// rejects non-canonical encodings, so decode ∘ encode is identity), and
// the encoder must agree with the reference encoder.
#include <cctype>
#include <string>
#include <string_view>

#include "fuzz/fuzz_harness.h"
#include "src/encoding/base64.h"
#include "tests/referee/base64_reference.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);

  const auto strict =
      rs::encoding::base64_decode(text, {.allow_whitespace = false});
  RS_FUZZ_ASSERT(strict == rs::referee::base64::decode(text, false),
                 "strict decode disagrees with the reference decoder");
  const auto tolerant =
      rs::encoding::base64_decode(text, {.allow_whitespace = true});
  RS_FUZZ_ASSERT(tolerant == rs::referee::base64::decode(text, true),
                 "tolerant decode disagrees with the reference decoder");
  RS_FUZZ_ASSERT(rs::encoding::base64_encode({data, size}) ==
                     rs::referee::base64::encode({data, size}),
                 "encoder disagrees with the reference encoder");
  if (!tolerant) return 0;

  std::string compact;
  for (char c : text) {
    if (!std::isspace(static_cast<unsigned char>(c))) compact.push_back(c);
  }
  const std::string reencoded = rs::encoding::base64_encode(*tolerant);
  RS_FUZZ_ASSERT(reencoded == compact,
                 "decode/encode roundtrip changed the text");
  return 0;
}
