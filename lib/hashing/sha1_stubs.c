/* SHA-1 (RFC 3174) on the x86-64 SHA extensions.

   p2pindex_sha1_available probes cpuid for the SHA, SSSE3 and SSE4.1
   instruction sets; Sha1 binds digest_string to p2pindex_sha1_digest only
   when it answers true, and to its OCaml reference otherwise.  On every
   other platform the probe answers false and the digest stub is never
   called.

   The kernel compresses the string's whole 64-byte blocks where they lie
   and the one or two padded tail blocks (the rest of the string, the 0x80
   marker, zeros and the 64-bit bit length) in a stack buffer.  The 20-byte
   result is the only allocation, and it comes last: nothing reads the
   argument after it, so no root needs registering. */

#include <stdint.h>
#include <string.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#include <cpuid.h>
#include <immintrin.h>

/* Rounds 4i .. 4i+3: fold group i's schedule words into the E carried
   from the previous group, save the ABCD the next group's E derives from,
   and run four rounds with the group's function [f] (0..3). */
#define GROUP(f, e_in, e_out, w)               \
  e_in = _mm_sha1nexte_epu32(e_in, w);         \
  e_out = abcd;                                \
  abcd = _mm_sha1rnds4_epu32(abcd, e_in, f)

/* The schedule W[i] = msg2(msg1(W[i-4], W[i-3]) ^ W[i-2], W[i-1]), spread
   over the groups: four registers hold W[i] in slot i mod 4. */
#define MSG1(a, b) a = _mm_sha1msg1_epu32(a, b)
#define MSG2(a, b) a = _mm_sha1msg2_epu32(a, b)
#define XOR(a, b) a = _mm_xor_si128(a, b)

/* Compress [blocks] 64-byte blocks at [data] into [state] (h0..h4). */
__attribute__((target("sha,ssse3,sse4.1")))
static void sha1_compress(uint32_t state[5], const uint8_t *data, size_t blocks)
{
  /* Reverses all 16 bytes: the block's first big-endian word lands in the
     top lane, where SHA1RNDS4 expects A. */
  const __m128i swap = _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)state), 0x1B);
  __m128i e0 = _mm_set_epi32((int)state[4], 0, 0, 0);
  __m128i e1, m0, m1, m2, m3;

  for (; blocks > 0; blocks--, data += 64) {
    const __m128i abcd_save = abcd, e_save = e0;

    m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)data), swap);
    e0 = _mm_add_epi32(e0, m0);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);

    m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(data + 16)), swap);
    GROUP(0, e1, e0, m1); MSG1(m0, m1);
    m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(data + 32)), swap);
    GROUP(0, e0, e1, m2); MSG1(m1, m2); XOR(m0, m2);
    m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(data + 48)), swap);
    GROUP(0, e1, e0, m3); MSG2(m0, m3); MSG1(m2, m3); XOR(m1, m3);

    GROUP(0, e0, e1, m0); MSG2(m1, m0); MSG1(m3, m0); XOR(m2, m0);
    GROUP(1, e1, e0, m1); MSG2(m2, m1); MSG1(m0, m1); XOR(m3, m1);
    GROUP(1, e0, e1, m2); MSG2(m3, m2); MSG1(m1, m2); XOR(m0, m2);
    GROUP(1, e1, e0, m3); MSG2(m0, m3); MSG1(m2, m3); XOR(m1, m3);
    GROUP(1, e0, e1, m0); MSG2(m1, m0); MSG1(m3, m0); XOR(m2, m0);
    GROUP(1, e1, e0, m1); MSG2(m2, m1); MSG1(m0, m1); XOR(m3, m1);
    GROUP(2, e0, e1, m2); MSG2(m3, m2); MSG1(m1, m2); XOR(m0, m2);
    GROUP(2, e1, e0, m3); MSG2(m0, m3); MSG1(m2, m3); XOR(m1, m3);
    GROUP(2, e0, e1, m0); MSG2(m1, m0); MSG1(m3, m0); XOR(m2, m0);
    GROUP(2, e1, e0, m1); MSG2(m2, m1); MSG1(m0, m1); XOR(m3, m1);
    GROUP(2, e0, e1, m2); MSG2(m3, m2); MSG1(m1, m2); XOR(m0, m2);
    GROUP(3, e1, e0, m3); MSG2(m0, m3); MSG1(m2, m3); XOR(m1, m3);
    GROUP(3, e0, e1, m0); MSG2(m1, m0); MSG1(m3, m0); XOR(m2, m0);
    GROUP(3, e1, e0, m1); MSG2(m2, m1); XOR(m3, m1);
    GROUP(3, e0, e1, m2); MSG2(m3, m2);
    GROUP(3, e1, e0, m3);

    e0 = _mm_sha1nexte_epu32(e0, e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
  }
  _mm_storeu_si128((__m128i *)state, _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = (uint32_t)_mm_extract_epi32(e0, 3);
}

CAMLprim value p2pindex_sha1_available(value unit)
{
  unsigned int a, b, c, d;
  (void)unit;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return Val_false;
  if (!(c & (1u << 9)) || !(c & (1u << 19))) return Val_false; /* SSSE3, SSE4.1 */
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return Val_false;
  return Val_bool(b & (1u << 29)); /* SHA */
}

CAMLprim value p2pindex_sha1_digest(value s)
{
  uint32_t state[5] = { 0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u };
  const uint8_t *p = (const uint8_t *)String_val(s);
  size_t len = caml_string_length(s);
  size_t whole = len / 64, tail = len % 64;
  uint8_t pad[128];
  size_t pad_blocks = tail < 56 ? 1 : 2;
  uint64_t bit_len = (uint64_t)len * 8;
  uint8_t out[20];
  value r;
  int i;

  sha1_compress(state, p, whole);
  memset(pad, 0, sizeof pad);
  memcpy(pad, p + whole * 64, tail);
  pad[tail] = 0x80;
  for (i = 0; i < 8; i++)
    pad[pad_blocks * 64 - 1 - i] = (uint8_t)(bit_len >> (8 * i));
  sha1_compress(state, pad, pad_blocks);
  for (i = 0; i < 20; i++)
    out[i] = (uint8_t)(state[i / 4] >> (24 - 8 * (i % 4)));
  r = caml_alloc_string(20);
  memcpy(Bytes_val(r), out, 20);
  return r;
}

#else

CAMLprim value p2pindex_sha1_available(value unit)
{
  (void)unit;
  return Val_false;
}

CAMLprim value p2pindex_sha1_digest(value s)
{
  (void)s;
  caml_failwith("Sha1: no SHA extensions on this platform");
}

#endif
