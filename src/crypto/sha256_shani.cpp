// SHA-256 compression with the x86 SHA extensions (SHA-NI), written from
// Intel's description of SHA256RNDS2, SHA256MSG1 and SHA256MSG2. Built only
// on x86-64, with -msha -msse4.1 on this file alone; sha256.cpp calls it only
// after CPUID reports both features.
//
// SHA256RNDS2 runs two rounds on the state split as ABEF and CDGH (A in the
// top lane) and takes W[t]+K[t] for both rounds in the low 64 bits of its
// third operand. Four rounds per message quad take two calls, and the two
// state registers swap roles after each call. SHA256MSG1 and SHA256MSG2 derive
// the next four schedule words W[t..t+3] from the previous sixteen.
#include <immintrin.h>

#include "crypto/sha256_shani.hpp"

namespace bscrypto::detail {

void TransformShani(std::uint32_t* state, const std::uint8_t* data,
                    std::size_t blocks) {
  // Reverses the bytes of each 32-bit lane: the message words are big-endian.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  const __m128i* k = reinterpret_cast<const __m128i*>(kRoundConstants);

  // {A,B,C,D} and {E,F,G,H} (lane 0 first) into ABEF and CDGH.
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)), kByteSwap);
    }
#pragma GCC unroll 16
    for (int q = 0; q < 16; ++q) {
      // From the fifth quad on, t = 4q and w[q % 4] holds W[t-16..t-13]; it
      // becomes W[t..t+3] = W[t-16..] + s0(W[t-15..]) + W[t-7..] + s1(W[t-2..]).
      if (q >= 4) {
        const __m128i w7 = _mm_alignr_epi8(w[(q + 3) & 3], w[(q + 2) & 3], 4);
        const __m128i partial =
            _mm_add_epi32(_mm_sha256msg1_epu32(w[q & 3], w[(q + 1) & 3]), w7);
        w[q & 3] = _mm_sha256msg2_epu32(partial, w[(q + 3) & 3]);
      }
      __m128i wk = _mm_add_epi32(w[q & 3], _mm_loadu_si128(k + q));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  // ABEF and CDGH back into {A,B,C,D} and {E,F,G,H}.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

}  // namespace bscrypto::detail
