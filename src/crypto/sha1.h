// SHA-1 (FIPS 180-4), implemented from scratch.
//
// SHA-1 is deprecated for signatures but remains the identifier of record in
// several root-store formats: authroot.stl keys entries by SHA-1, NSS trust
// objects carry CKA_CERT_SHA1_HASH, and JKS v2 uses a SHA-1 integrity digest.
#pragma once

#include <bit>
#include <cstdint>

#include "src/crypto/block_hash.h"
#include "src/crypto/digest.h"

namespace rs::crypto {

/// Incremental SHA-1 hasher: `update`, `finish` and the one-shot `hash`
/// come from BlockHash.
class Sha1 : public BlockHash<Sha1, 5, std::endian::big> {
 public:
  Sha1() noexcept;

 private:
  friend BlockHash;
  void compress(const std::uint8_t* block) noexcept;
};

}  // namespace rs::crypto
