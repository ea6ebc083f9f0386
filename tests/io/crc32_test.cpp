// CRC-32 differential tests: the slice-by-8 kernel must agree with a
// bitwise reference of the reflected IEEE polynomial for every length,
// every start alignment, and chunked (seeded) continuation — the three
// ways WAL records and container sections reach it.
#include "io/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace sybil::io {
namespace {

/// One bit at a time, straight from the polynomial: no tables to share
/// a bug with the kernel under test.
std::uint32_t crc32_bitwise(std::span<const std::byte> bytes,
                            std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::byte b : bytes) {
    c ^= static_cast<std::uint32_t>(b);
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return c ^ 0xFFFFFFFFu;
}

/// Deterministic pseudo-random bytes (xorshift), so a failure names a
/// reproducible length and offset.
std::vector<std::byte> noise(std::size_t n) {
  std::vector<std::byte> out(n);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::byte& b : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::byte>(x >> 24);
  }
  return out;
}

TEST(Crc32, KnownCheckValue) {
  const std::string_view text = "123456789";
  const auto bytes = std::as_bytes(std::span(text.data(), text.size()));
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<std::byte> buf = noise(600 + 8);
  for (std::size_t offset = 0; offset <= 8; ++offset) {
    for (std::size_t len = 0; len + offset <= buf.size() && len <= 600;
         ++len) {
      const std::span<const std::byte> s(buf.data() + offset, len);
      ASSERT_EQ(crc32(s), crc32_bitwise(s))
          << "length " << len << ", offset " << offset;
    }
  }
}

TEST(Crc32, ChainedSeedsMatchOneShot) {
  const std::vector<std::byte> buf = noise(600);
  const std::span<const std::byte> all(buf);
  const std::uint32_t whole = crc32_bitwise(all);
  for (std::size_t cut = 0; cut <= buf.size(); cut += 7) {
    const std::uint32_t head = crc32(all.first(cut));
    EXPECT_EQ(crc32(all.subspan(cut), head), whole) << "cut " << cut;
    EXPECT_EQ(crc32(all.subspan(cut), head),
              crc32_bitwise(all.subspan(cut), head))
        << "cut " << cut;
  }
  // Arbitrary seeds, not only CRCs of a prefix.
  for (const std::uint32_t seed : {0x1u, 0xDEADBEEFu, 0xFFFFFFFFu}) {
    for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 40u, 599u}) {
      EXPECT_EQ(crc32(all.first(len), seed), crc32_bitwise(all.first(len), seed))
          << "seed " << seed << ", length " << len;
    }
  }
}

}  // namespace
}  // namespace sybil::io
