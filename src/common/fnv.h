#ifndef P2PDT_COMMON_FNV_H_
#define P2PDT_COMMON_FNV_H_

#include <cstdint>
#include <cstring>

namespace p2pdt {

/// 64-bit FNV-1a, the digest behind every fingerprint the harnesses and the
/// prediction cache compute. Values are mixed least significant byte first
/// by shifting, so a digest does not depend on the host's byte order.
struct Fnv64 {
  uint64_t state = 0xcbf29ce484222325ull;

  /// Mixes the low `bytes` bytes of `v`.
  void Mix(uint64_t v, int bytes = 8) {
    for (int i = 0; i < bytes; ++i) {
      state ^= (v >> (8 * i)) & 0xFF;
      state *= 0x100000001b3ull;
    }
  }
  /// Mixes the bit pattern of `v`.
  void MixDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }
};

}  // namespace p2pdt

#endif  // P2PDT_COMMON_FNV_H_
