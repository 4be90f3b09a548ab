// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used by the
// persistent page store to detect on-disk corruption. Every stored extent
// — superblock, object table, object blobs, data pages — carries a CRC
// over its full padded length, so a single flipped bit anywhere in a page
// file surfaces as Status::Corruption instead of undefined behaviour.
// Computed sliced by 8 (eight table lookups per 8 input bytes), which is
// bit-identical to the bytewise table CRC and about five times faster. The
// SSE4.2 crc32 instruction is not an option: it computes CRC-32C, a
// different polynomial, and would change the on-disk format.

#ifndef MSQ_COMMON_CRC32_H_
#define MSQ_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace msq {

/// CRC-32 of `len` bytes, continuing from `seed` (pass 0 for a fresh
/// checksum; chain calls by passing the previous result).
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

}  // namespace msq

#endif  // MSQ_COMMON_CRC32_H_
