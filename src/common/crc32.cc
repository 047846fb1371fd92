#include "common/crc32.h"

#include <array>

namespace sgq {
namespace {

// Slicing-by-8: table k maps a byte to its CRC contribution k positions
// further from the end of an 8-byte block, so one block costs eight
// independent lookups instead of eight dependent shift/lookup steps.
// Table 0 is the classic byte-at-a-time table of the reflected polynomial.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables MakeTables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

/// Little-endian u32 at `p`, assembled bytewise: no alignment or
/// byte-order assumption (compilers fuse it into one load on x86/ARM).
inline std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// a(x) * b(x) modulo the polynomial, both reflected (bit 31 = x^0).
std::uint32_t MultModP(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) product ^= b;
    b = (b & 1) ? (0xEDB88320u ^ (b >> 1)) : (b >> 1);
  }
  return product;
}

}  // namespace

std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint64_t len_b) {
  // Appending len_b bytes multiplies A's CRC register by x^(8 * len_b);
  // the pre/post conditioning cancels out of the sum. `power` walks
  // x^8, x^16, x^32, ... by squaring.
  std::uint32_t shift = 1u << 31;   // x^0
  std::uint32_t power = 1u << 23;   // x^8
  for (; len_b != 0; len_b >>= 1) {
    if (len_b & 1) shift = MultModP(power, shift);
    power = MultModP(power, power);
  }
  return MultModP(shift, crc_a) ^ crc_b;
}

std::uint32_t Crc32(const void* data, std::size_t len, std::uint32_t crc) {
  static const Tables kT = MakeTables();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  for (; len >= 8; len -= 8, p += 8) {
    const std::uint32_t lo = LoadLe32(p) ^ crc;
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = kT[7][lo & 0xFFu] ^ kT[6][(lo >> 8) & 0xFFu] ^
          kT[5][(lo >> 16) & 0xFFu] ^ kT[4][lo >> 24] ^
          kT[3][hi & 0xFFu] ^ kT[2][(hi >> 8) & 0xFFu] ^
          kT[1][(hi >> 16) & 0xFFu] ^ kT[0][hi >> 24];
  }
  for (; len > 0; --len, ++p) {
    crc = kT[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace sgq
