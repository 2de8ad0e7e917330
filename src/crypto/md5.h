// MD5 (RFC 1321), implemented from scratch.
//
// MD5 is cryptographically broken; it exists here only because legacy
// root-store formats (NSS certdata.txt trust objects) identify certificates
// by MD5 fingerprint, and because Table 3 of the paper measures when each
// root program purged MD5-signed roots.
#pragma once

#include <bit>
#include <cstdint>

#include "src/crypto/block_hash.h"
#include "src/crypto/digest.h"

namespace rs::crypto {

/// Incremental MD5 hasher: `update`, `finish` and the one-shot `hash`
/// come from BlockHash.
class Md5 : public BlockHash<Md5, 4, std::endian::little> {
 public:
  Md5() noexcept;

 private:
  friend BlockHash;
  void compress(const std::uint8_t* block) noexcept;
};

}  // namespace rs::crypto
