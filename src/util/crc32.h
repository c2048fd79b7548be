// CRC-32 (IEEE 802.3 polynomial) for datagram integrity checks.
//
// UDP's 16-bit checksum was considered too weak for multi-megabyte striped
// transfers; every Swift datagram carries a CRC-32 over its payload so a
// corrupted packet is treated exactly like a lost one (retransmitted).
//
// Every striped byte pays several CRC passes (wire encode and decode, the
// agent's at-rest seal or verify), so the kernel sets a ceiling on the whole
// data path. Two kernels compute the same reflected 0xEDB88320 CRC,
// bit-identical to the textbook byte-at-a-time loop:
//   * "pclmul" — PCLMULQDQ carry-less-multiply folding, 64 bytes per step,
//     on x86-64 CPUs with PCLMULQDQ and SSE4.1;
//   * "slice8" — portable slicing-by-8 tables, eight bytes per step. It is
//     the fallback everywhere else and also finishes the pclmul kernel's
//     short inputs and sub-16-byte tails.
// The kernel is picked once, on first use, from the CPU's feature bits
// (__builtin_cpu_supports). There is no build option or runtime flag.

#ifndef SWIFT_SRC_UTIL_CRC32_H_
#define SWIFT_SRC_UTIL_CRC32_H_

#include <cstdint>
#include <span>

namespace swift {

// One-shot CRC of a buffer.
uint32_t Crc32(std::span<const uint8_t> data);

// Incremental interface: crc = Crc32Update(crc, chunk) starting from
// Crc32Init(), finished with Crc32Final().
uint32_t Crc32Init();
uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data);
uint32_t Crc32Final(uint32_t state);

// Test hook: force the portable slice8 kernel (compare SIMD vs portable
// output). Returns the previous setting. Not thread-safe against concurrent
// CRCs.
bool SetCrcSimdEnabled(bool enabled);
// Which kernel Crc32Update currently dispatches to, for bench labels.
const char* Crc32KernelName();

}  // namespace swift

#endif  // SWIFT_SRC_UTIL_CRC32_H_
