#include "src/util/crc32.h"

#include <array>
#include <atomic>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#define SWIFT_CRC_X86 1
#endif

namespace swift {

namespace {

constexpr uint32_t kPolynomial = 0xEDB88320u;  // reflected IEEE 802.3

// tables[0] is the classic byte-at-a-time table. tables[k][b] is the CRC
// contribution of byte b followed by k zero bytes, so slicing-by-8 folds
// eight input bytes per step with eight independent lookups.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

SliceTables BuildTables() {
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? (c >> 1) ^ kPolynomial : c >> 1;
    }
    tables[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < tables.size(); ++k) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

const SliceTables& Tables() {
  static const SliceTables tables = BuildTables();
  return tables;
}

// Little-endian load without alignment or aliasing assumptions; compilers
// emit one mov on little-endian targets.
uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24;
}

uint32_t Crc32UpdateSlice8(uint32_t state, const uint8_t* p, size_t n) {
  const SliceTables& t = Tables();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ state;
    const uint32_t hi = LoadLe32(p + 4);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
            t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    state = t[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

#ifdef SWIFT_CRC_X86

// Carry-less multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), in the
// bit-reflected domain of 0xEDB88320. Four 128-bit lanes fold 64 bytes per
// step; the lanes then fold into one, 16 bytes at a time, and a Barrett
// reduction brings the 128-bit remainder down to the 32-bit state. The
// sub-16-byte tail, and inputs too short to fill the four lanes, go through
// slicing-by-8. The constants are x^k mod P(x), reflected:
//   k1 = x^(4*128+32), k2 = x^(4*128-32)  fold by 512 bits
//   k3 = x^(128+32),   k4 = x^(128-32)    fold by 128 bits
//   k5 = x^64                             fold 96 bits to 64
//   P' and mu = floor(x^64 / P)           Barrett reduction
//
// Folds the 128-bit remainder `acc` forward past `next`, by k3/k4.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold128(__m128i acc, __m128i next,
                                                                __m128i k3k4) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k3k4, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k3k4, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

__attribute__((target("pclmul,sse4.1"))) uint32_t Crc32UpdatePclmul(uint32_t state,
                                                                    const uint8_t* p,
                                                                    size_t n) {
  if (n < 64) {
    return Crc32UpdateSlice8(state, p, n);
  }
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const size_t tail = n & 15;
  n -= tail;

  __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  __m128i x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
  __m128i x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32));
  __m128i x4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(state)));
  p += 64;
  n -= 64;

  for (; n >= 64; p += 64, n -= 64) {
    const __m128i lo1 = _mm_clmulepi64_si128(x1, k1k2, 0x00);
    const __m128i lo2 = _mm_clmulepi64_si128(x2, k1k2, 0x00);
    const __m128i lo3 = _mm_clmulepi64_si128(x3, k1k2, 0x00);
    const __m128i lo4 = _mm_clmulepi64_si128(x4, k1k2, 0x00);
    x1 = _mm_clmulepi64_si128(x1, k1k2, 0x11);
    x2 = _mm_clmulepi64_si128(x2, k1k2, 0x11);
    x3 = _mm_clmulepi64_si128(x3, k1k2, 0x11);
    x4 = _mm_clmulepi64_si128(x4, k1k2, 0x11);
    x1 = _mm_xor_si128(_mm_xor_si128(x1, lo1),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    x2 = _mm_xor_si128(_mm_xor_si128(x2, lo2),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16)));
    x3 = _mm_xor_si128(_mm_xor_si128(x3, lo3),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32)));
    x4 = _mm_xor_si128(_mm_xor_si128(x4, lo4),
                       _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48)));
  }

  // Fold the four lanes, then any remaining 16-byte blocks, into x1.
  x1 = Fold128(x1, x2, k3k4);
  x1 = Fold128(x1, x3, k3k4);
  x1 = Fold128(x1, x4, k3k4);
  for (; n >= 16; p += 16, n -= 16) {
    x1 = Fold128(x1, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), k3k4);
  }

  // 128 -> 64 bits.
  x2 = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2);
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  // Barrett reduction to 32 bits.
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  x2 = _mm_clmulepi64_si128(_mm_and_si128(x2, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  state = static_cast<uint32_t>(_mm_extract_epi32(x1, 1));
  return Crc32UpdateSlice8(state, p, tail);
}

#endif  // SWIFT_CRC_X86

using UpdateFn = uint32_t (*)(uint32_t, const uint8_t*, size_t);

struct KernelChoice {
  UpdateFn fn;
  const char* name;
};

KernelChoice DetectKernel() {
#ifdef SWIFT_CRC_X86
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1")) {
    return {Crc32UpdatePclmul, "pclmul"};
  }
#endif
  return {Crc32UpdateSlice8, "slice8"};
}

const KernelChoice& DetectedKernel() {
  static const KernelChoice choice = DetectKernel();
  return choice;
}

std::atomic<bool> g_simd_enabled{true};

}  // namespace

uint32_t Crc32Init() { return 0xFFFFFFFFu; }

uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data) {
  const UpdateFn fn = g_simd_enabled.load(std::memory_order_relaxed) ? DetectedKernel().fn
                                                                     : Crc32UpdateSlice8;
  return fn(state, data.data(), data.size());
}

uint32_t Crc32Final(uint32_t state) { return state ^ 0xFFFFFFFFu; }

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Final(Crc32Update(Crc32Init(), data));
}

bool SetCrcSimdEnabled(bool enabled) {
  return g_simd_enabled.exchange(enabled, std::memory_order_relaxed);
}

const char* Crc32KernelName() {
  return g_simd_enabled.load(std::memory_order_relaxed) ? DetectedKernel().name : "slice8";
}

}  // namespace swift
