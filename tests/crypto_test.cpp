// Unit tests for bscrypto: SHA-256 against FIPS/NIST vectors, Hash256
// arithmetic and compact-bits codec, merkle trees with mutation detection.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "crypto/hash256.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

namespace {

using bscrypto::Hash256;
using bscrypto::Sha256;
using bsutil::ByteVec;

std::string HashHex(const std::string& input) {
  const auto digest = Sha256::Hash(bsutil::ToBytes(input));
  return bsutil::HexEncode(digest);
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 / NIST CAVS vectors)

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HashHex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HashHex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(HashHex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  const ByteVec chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.Update(chunk);
  std::array<std::uint8_t, 32> digest;
  hasher.Finalize(digest);
  EXPECT_EQ(bsutil::HexEncode(digest),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64 bytes: exercises the padding path that adds a full extra block.
  const std::string input(64, 'x');
  const auto one_shot = Sha256::Hash(bsutil::ToBytes(input));
  Sha256 incremental;
  incremental.Update(bsutil::ToBytes(input.substr(0, 13)));
  incremental.Update(bsutil::ToBytes(input.substr(13)));
  std::array<std::uint8_t, 32> digest;
  incremental.Finalize(digest);
  EXPECT_EQ(digest, one_shot);
}

TEST(Sha256Test, IncrementalMatchesOneShotAcrossSplits) {
  const std::string input =
      "the quick brown fox jumps over the lazy dog repeatedly and at length";
  const auto expected = Sha256::Hash(bsutil::ToBytes(input));
  for (std::size_t split = 0; split <= input.size(); split += 7) {
    Sha256 hasher;
    hasher.Update(bsutil::ToBytes(input.substr(0, split)));
    hasher.Update(bsutil::ToBytes(input.substr(split)));
    std::array<std::uint8_t, 32> digest;
    hasher.Finalize(digest);
    EXPECT_EQ(digest, expected) << "split at " << split;
  }
}

TEST(Sha256Test, DoubleShaKnownVector) {
  // HashD("hello") = sha256(sha256("hello")).
  EXPECT_EQ(bsutil::HexEncode(Sha256::HashD(bsutil::ToBytes("hello"))),
            "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50");
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 hasher;
  hasher.Update(bsutil::ToBytes("garbage"));
  hasher.Reset();
  hasher.Update(bsutil::ToBytes("abc"));
  std::array<std::uint8_t, 32> digest;
  hasher.Finalize(digest);
  EXPECT_EQ(bsutil::HexEncode(digest),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// ---------------------------------------------------------------------------
// SHA-256 kernels: the active kernel (SHA-NI where the CPU has it) held
// against the scalar reference. Without SHA-NI the SHA-NI checks skip; the
// active-kernel checks still run.

namespace detail = bscrypto::detail;

struct NistVector {
  ByteVec input;
  const char* digest;
};

std::vector<NistVector> NistVectors() {
  return {
      {bsutil::ToBytes(""),
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {bsutil::ToBytes("abc"),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {bsutil::ToBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {bsutil::ToBytes("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                       "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {ByteVec(1'000'000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

ByteVec RandomBytes(bsutil::Rng& rng, std::size_t len) {
  ByteVec out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.Next());
  return out;
}

/// Every length 0..1024 with seeded random contents, through Hash and HashD.
/// The incremental hasher pads in its own code, so it pins the one-shot
/// padding too; HashD is held against two chained one-shot hashes, which
/// pins its fixed second-pass block.
void ExpectAgreesWithScalarAtEveryLength(
    const std::function<Sha256::Digest(bsutil::ByteSpan)>& hash,
    const std::function<Sha256::Digest(bsutil::ByteSpan)>& hash_d) {
  bsutil::Rng rng(0x5a256);
  for (std::size_t len = 0; len <= 1024; ++len) {
    const ByteVec data = RandomBytes(rng, len);
    const Sha256::Digest reference = detail::Hash(detail::TransformScalar, data);
    Sha256::Digest incremental;
    Sha256().Update(data).Finalize(incremental);
    ASSERT_EQ(incremental, reference) << "len " << len;
    ASSERT_EQ(hash(data), reference) << "len " << len;
    ASSERT_EQ(hash_d(data), detail::Hash(detail::TransformScalar, reference)) << "len " << len;
  }
}

TEST(Sha256Kernel, ScalarReferenceMatchesNistVectors) {
  for (const NistVector& v : NistVectors()) {
    EXPECT_EQ(bsutil::HexEncode(detail::Hash(detail::TransformScalar, v.input)), v.digest);
  }
}

TEST(Sha256Kernel, ShaniMatchesNistVectors) {
  const detail::Kernel shani = detail::ShaniKernel();
  if (shani == nullptr) GTEST_SKIP() << "no SHA-NI kernel in this build or on this CPU";
  for (const NistVector& v : NistVectors()) {
    EXPECT_EQ(bsutil::HexEncode(detail::Hash(shani, v.input)), v.digest);
  }
}

TEST(Sha256Kernel, ShaniMatchesScalarAtEveryLength) {
  const detail::Kernel shani = detail::ShaniKernel();
  if (shani == nullptr) GTEST_SKIP() << "no SHA-NI kernel in this build or on this CPU";
  ExpectAgreesWithScalarAtEveryLength(
      [&](bsutil::ByteSpan d) { return detail::Hash(shani, d); },
      [&](bsutil::ByteSpan d) { return detail::HashD(shani, d); });
}

TEST(Sha256Kernel, ShaniMatchesScalarOnRandomStatesAndBlockRuns) {
  // The raw compression function, from arbitrary chaining states and over
  // runs of 1-20 blocks, so no state the padding never reaches goes unchecked.
  const detail::Kernel shani = detail::ShaniKernel();
  if (shani == nullptr) GTEST_SKIP() << "no SHA-NI kernel in this build or on this CPU";
  bsutil::Rng rng(0xb10c5);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint32_t expected[8], actual[8];
    for (int i = 0; i < 8; ++i) {
      expected[i] = actual[i] = static_cast<std::uint32_t>(rng.Next());
    }
    const std::size_t blocks = 1 + rng.Below(20);
    const ByteVec data = RandomBytes(rng, 64 * blocks);
    detail::TransformScalar(expected, data.data(), blocks);
    shani(actual, data.data(), blocks);
    for (int i = 0; i < 8; ++i) ASSERT_EQ(actual[i], expected[i]) << "trial " << trial;
  }
}

TEST(Sha256Kernel, ActiveMatchesScalarAtEveryLength) {
  ExpectAgreesWithScalarAtEveryLength(
      [](bsutil::ByteSpan d) { return Sha256::Hash(d); },
      [](bsutil::ByteSpan d) { return Sha256::HashD(d); });
}

TEST(Sha256Kernel, ActiveIncrementalSplitsMatchScalar) {
  // Random inputs fed to the incremental hasher in 1-6 random pieces, so
  // partial buffers, whole-block runs and empty updates all meet.
  bsutil::Rng rng(0x1ac5);
  for (int trial = 0; trial < 500; ++trial) {
    const ByteVec data = RandomBytes(rng, rng.Below(1025));
    Sha256 hasher;
    std::size_t offset = 0;
    const std::size_t pieces = 1 + rng.Below(6);
    for (std::size_t p = 0; p + 1 < pieces; ++p) {
      const std::size_t take = rng.Below(data.size() - offset + 1);
      hasher.Update(bsutil::ByteSpan(data.data() + offset, take));
      offset += take;
    }
    hasher.Update(bsutil::ByteSpan(data.data() + offset, data.size() - offset));
    Sha256::Digest digest;
    hasher.Finalize(digest);
    ASSERT_EQ(digest, detail::Hash(detail::TransformScalar, data))
        << "trial " << trial << " len " << data.size();
  }
}

TEST(Sha256Kernel, ImplementationNamesTheActiveKernel) {
  const bool shani = detail::ShaniKernel() != nullptr;
  EXPECT_STREQ(Sha256::Implementation(), shani ? "shani" : "scalar");
  EXPECT_EQ(detail::ActiveKernel(), shani ? detail::ShaniKernel() : detail::TransformScalar);
}

// ---------------------------------------------------------------------------
// Hash256

TEST(Hash256Test, HexRoundTripPreservesDisplayOrientation) {
  const std::string hex =
      "00000000000000000008a89e854d57e5667df88f1cdef6fde2fbca1de5b639ad";
  const Hash256 h = Hash256::FromHex(hex);
  EXPECT_EQ(h.ToHex(), hex);
  // Little-endian storage: most-significant (display-leading) bytes at the end.
  EXPECT_EQ(h.Bytes()[31], 0x00);
  EXPECT_EQ(h.Bytes()[0], 0xad);
}

TEST(Hash256Test, MalformedHexYieldsZero) {
  EXPECT_TRUE(Hash256::FromHex("xyz").IsZero());
  EXPECT_TRUE(Hash256::FromHex("abcd").IsZero());  // wrong length
}

TEST(Hash256Test, NumericOrdering) {
  const Hash256 small = Hash256::FromHex(
      "0000000000000000000000000000000000000000000000000000000000000001");
  const Hash256 big = Hash256::FromHex(
      "1000000000000000000000000000000000000000000000000000000000000000");
  EXPECT_LT(small, big);
  EXPECT_GT(big, small);
  EXPECT_EQ(small, small);
}

TEST(Hash256Test, CompactRoundTripMainnetGenesisBits) {
  // 0x1d00ffff is the Bitcoin mainnet genesis difficulty.
  bool negative = false, overflow = false;
  const Hash256 target = Hash256::FromCompact(0x1d00ffff, &negative, &overflow);
  EXPECT_FALSE(negative);
  EXPECT_FALSE(overflow);
  EXPECT_EQ(target.ToHex(),
            "00000000ffff0000000000000000000000000000000000000000000000000000");
  EXPECT_EQ(target.ToCompact(), 0x1d00ffffu);
}

TEST(Hash256Test, CompactRegtestBits) {
  const Hash256 target = Hash256::FromCompact(0x207fffff);
  EXPECT_EQ(target.ToHex(),
            "7fffff0000000000000000000000000000000000000000000000000000000000");
  EXPECT_EQ(target.ToCompact(), 0x207fffffu);
}

TEST(Hash256Test, CompactNegativeFlag) {
  bool negative = false, overflow = false;
  (void)Hash256::FromCompact(0x01800000 | 0x12, &negative, &overflow);
  // Sign bit set with nonzero mantissa.
  bool neg2 = false;
  (void)Hash256::FromCompact(0x04923456, &neg2, nullptr);
  EXPECT_TRUE(([&] {
    bool n = false;
    (void)Hash256::FromCompact(0x04800001, &n, nullptr);
    return n;
  })());
}

TEST(Hash256Test, CompactOverflowFlag) {
  bool negative = false, overflow = false;
  (void)Hash256::FromCompact(0xff123456, &negative, &overflow);
  EXPECT_TRUE(overflow);
}

TEST(Hash256Test, CompactZeroMantissa) {
  bool negative = false, overflow = false;
  const Hash256 target = Hash256::FromCompact(0x00000000, &negative, &overflow);
  EXPECT_TRUE(target.IsZero());
  EXPECT_FALSE(negative);
  EXPECT_FALSE(overflow);
}

TEST(Hash256Test, SerializeRoundTrip) {
  const Hash256 h = Hash256::FromHex(
      "00000000000000000008a89e854d57e5667df88f1cdef6fde2fbca1de5b639ad");
  bsutil::Writer w;
  h.Serialize(w);
  EXPECT_EQ(w.Size(), 32u);
  bsutil::Reader r(w.Data());
  EXPECT_EQ(Hash256::Deserialize(r), h);
}

// ---------------------------------------------------------------------------
// Merkle

Hash256 LeafFrom(int i) {
  ByteVec data = {static_cast<std::uint8_t>(i), static_cast<std::uint8_t>(i >> 8)};
  return Hash256{Sha256::HashD(data)};
}

TEST(MerkleTest, EmptyIsZero) {
  EXPECT_TRUE(bscrypto::MerkleRoot({}).IsZero());
}

TEST(MerkleTest, SingleLeafIsItself) {
  const Hash256 leaf = LeafFrom(1);
  EXPECT_EQ(bscrypto::MerkleRoot({leaf}), leaf);
}

TEST(MerkleTest, TwoLeavesCombine) {
  const Hash256 a = LeafFrom(1), b = LeafFrom(2);
  std::uint8_t concat[64];
  std::copy(a.Bytes().begin(), a.Bytes().end(), concat);
  std::copy(b.Bytes().begin(), b.Bytes().end(), concat + 32);
  const Hash256 expected{Sha256::HashD(bsutil::ByteSpan(concat, 64))};
  EXPECT_EQ(bscrypto::MerkleRoot({a, b}), expected);
}

TEST(MerkleTest, OddCountDuplicatesLastWithoutMutationFlag) {
  bool mutated = true;
  const Hash256 root3 = bscrypto::MerkleRoot({LeafFrom(1), LeafFrom(2), LeafFrom(3)},
                                             &mutated);
  EXPECT_FALSE(mutated);  // self-padding is not mutation
  // Odd-padding means [1,2,3] == [1,2,3,3] (the CVE-2012-2459 ambiguity).
  const Hash256 root4 =
      bscrypto::MerkleRoot({LeafFrom(1), LeafFrom(2), LeafFrom(3), LeafFrom(3)});
  EXPECT_EQ(root3, root4);
}

TEST(MerkleTest, DuplicatePairFlagsMutation) {
  bool mutated = false;
  (void)bscrypto::MerkleRoot({LeafFrom(1), LeafFrom(1)}, &mutated);
  EXPECT_TRUE(mutated);
}

TEST(MerkleTest, DuplicatePairDeepInTreeFlagsMutation) {
  bool mutated = false;
  (void)bscrypto::MerkleRoot({LeafFrom(1), LeafFrom(2), LeafFrom(5), LeafFrom(5)},
                             &mutated);
  EXPECT_TRUE(mutated);
}

TEST(MerkleTest, DistinctLeavesNotMutated) {
  bool mutated = true;
  (void)bscrypto::MerkleRoot(
      {LeafFrom(1), LeafFrom(2), LeafFrom(3), LeafFrom(4), LeafFrom(5)}, &mutated);
  EXPECT_FALSE(mutated);
}

TEST(MerkleTest, RootDependsOnOrder) {
  const auto r1 = bscrypto::MerkleRoot({LeafFrom(1), LeafFrom(2)});
  const auto r2 = bscrypto::MerkleRoot({LeafFrom(2), LeafFrom(1)});
  EXPECT_NE(r1, r2);
}

class MerkleSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(MerkleSizeSweep, RootIsStableAndNonZero) {
  std::vector<Hash256> leaves;
  for (int i = 0; i < GetParam(); ++i) leaves.push_back(LeafFrom(i));
  const Hash256 root_a = bscrypto::MerkleRoot(leaves);
  const Hash256 root_b = bscrypto::MerkleRoot(leaves);
  EXPECT_EQ(root_a, root_b);
  EXPECT_FALSE(root_a.IsZero());
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleSizeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 15, 16, 33, 100, 255));

}  // namespace
