// SHA-256 (FIPS 180-4), implemented from scratch.
//
// SHA-256 fingerprints are the canonical certificate identity throughout the
// measurement pipeline (Jaccard sets, exclusive-root analysis, Table 6 ids).
#pragma once

#include <bit>
#include <cstdint>

#include "src/crypto/block_hash.h"
#include "src/crypto/digest.h"

namespace rs::crypto {

/// Incremental SHA-256 hasher: `update`, `finish` and the one-shot `hash`
/// come from BlockHash.
class Sha256 : public BlockHash<Sha256, 8, std::endian::big> {
 public:
  Sha256() noexcept;

 private:
  friend BlockHash;
  void compress(const std::uint8_t* block) noexcept;
};

}  // namespace rs::crypto
