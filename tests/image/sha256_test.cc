#include "image/sha256.h"

#include <gtest/gtest.h>

#include <string>

namespace sm::image {
namespace {

std::vector<arch::u8> bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(hex_digest(sha256(bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_digest(sha256(bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      hex_digest(sha256(bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, LongInputCrossesBlockBoundaries) {
  // One million 'a' characters (FIPS 180 test vector).
  const std::vector<arch::u8> a(1'000'000, 'a');
  EXPECT_EQ(hex_digest(sha256(a)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShotAtEveryChunkAlignment) {
  // The exit-digest path streams page-sized pieces through the
  // incremental hasher; irregular chunk sizes must hit every
  // partial-block carry case (mid-block, exact block, multi-block with
  // remainder) and still match the one-shot digest.
  const std::vector<arch::u8> a(1'000'000, 'a');
  const std::string want = hex_digest(sha256(a));
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{63},
                                  std::size_t{64}, std::size_t{65},
                                  std::size_t{4096}, std::size_t{9973}}) {
    Sha256 h;
    for (std::size_t off = 0; off < a.size(); off += chunk)
      h.update(std::span(a).subspan(off, std::min(chunk, a.size() - off)));
    EXPECT_EQ(hex_digest(h.final()), want) << "chunk=" << chunk;
  }
}

TEST(Sha256, ExitDigestUpdatePatternsMatchOneShot) {
  // The exit digest feeds (4-byte va, 32-byte page hash) pairs, and each
  // page hash is one 4 KiB update: staged partial blocks, block top-ups
  // and padding must all match hashing the concatenation in one call.
  std::vector<arch::u8> page(4096);
  for (std::size_t i = 0; i < page.size(); ++i)
    page[i] = static_cast<arch::u8>(i * 7 + 3);
  for (const std::size_t pages : {std::size_t{1}, std::size_t{2},
                                  std::size_t{7}, std::size_t{140}}) {
    Sha256 pairs;
    Sha256 pages_with_va;
    std::vector<arch::u8> pairs_flat;
    std::vector<arch::u8> pages_flat;
    for (std::size_t n = 0; n < pages; ++n) {
      page[n % page.size()] ^= 0x5A;
      const Digest page_hash = sha256(page);
      const arch::u32 va = 0x08048000u + static_cast<arch::u32>(n) * 4096u;
      const arch::u8 va_bytes[4] = {
          static_cast<arch::u8>(va), static_cast<arch::u8>(va >> 8),
          static_cast<arch::u8>(va >> 16), static_cast<arch::u8>(va >> 24)};
      pairs.update(va_bytes);
      pairs.update(page_hash);
      pairs_flat.insert(pairs_flat.end(), va_bytes, va_bytes + 4);
      pairs_flat.insert(pairs_flat.end(), page_hash.begin(), page_hash.end());
      pages_with_va.update(va_bytes);
      pages_with_va.update(page);
      pages_flat.insert(pages_flat.end(), va_bytes, va_bytes + 4);
      pages_flat.insert(pages_flat.end(), page.begin(), page.end());
    }
    EXPECT_EQ(pairs.final(), sha256(pairs_flat)) << "pages=" << pages;
    EXPECT_EQ(pages_with_va.final(), sha256(pages_flat)) << "pages=" << pages;
  }
}

TEST(Sha256, PaddingAtEveryTailLength) {
  // Message lengths 0..129 put the 0x80 byte at every offset of the
  // final block, including 55/56 (one vs two padding blocks) and 63/64.
  // Byte-at-a-time streaming must agree with the one-shot digest, and
  // two known lengths pin the value itself.
  std::vector<arch::u8> msg;
  for (std::size_t len = 0; len < 130; ++len) {
    Sha256 h;
    for (arch::u8 b : msg) h.update({&b, 1});
    EXPECT_EQ(h.final(), sha256(msg)) << "len=" << len;
    msg.push_back(static_cast<arch::u8>('a' + len % 26));
  }
  EXPECT_EQ(hex_digest(sha256(std::vector<arch::u8>(55, 'a'))),
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
  EXPECT_EQ(hex_digest(sha256(std::vector<arch::u8>(64, 'a'))),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
}

TEST(HmacSha256, Rfc4231Vector1) {
  const std::vector<arch::u8> key(20, 0x0b);
  EXPECT_EQ(hex_digest(hmac_sha256(key, bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Vector2) {
  EXPECT_EQ(hex_digest(hmac_sha256(bytes("Jefe"),
                                   bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  const std::vector<arch::u8> key(131, 0xaa);
  EXPECT_EQ(hex_digest(hmac_sha256(
                key, bytes("Test Using Larger Than Block-Size Key - Hash "
                           "Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

}  // namespace
}  // namespace sm::image
