//! CRC-32 (IEEE 802.3 polynomial) over page payloads.
//!
//! The paper's adversary is honest-but-curious and never tampers with data
//! (§3.1). Our fault-injection extension (DESIGN.md §7) lets a PIR backend
//! corrupt pages; checksums let the client detect that the trust assumption
//! was violated rather than silently returning a wrong path.
//!
//! Checksummed serving verifies every page of every linear scan, every wire
//! frame carries a CRC, and the client checks every sealed page, so this
//! function sits on the critical path of each query.
//!
//! On x86-64 CPUs with PCLMULQDQ, [`crc32`] runs the carry-less-multiply
//! folding algorithm of Gopal et al., "Fast CRC Computation for Generic
//! Polynomials Using PCLMULQDQ Instruction" (Intel, 2009): four 128-bit
//! accumulators fold 64 input bytes per step, then fold to one lane, reduce
//! to 64 bits, and finish with a Barrett reduction. The kernel is chosen at
//! run time. Every other target, inputs shorter than 128 bytes and
//! the 0–15 bytes left after folding use the portable slicing-by-8 loop
//! ([`crc32_portable`]), which is also the test oracle. All paths return the
//! same values as zlib's `crc32`, so CRCs persisted by earlier builds stay
//! valid.
//!
//! On a 2-CPU x86-64 host the kernel checks a 4 KiB page in about 0.26 µs
//! against 3.4 µs for slicing-by-8. It cut the CRC's share of a `pi-2c`
//! benchmark scan pass (`storage.crc_share`) from 0.87–0.91 to 0.41–0.47.

/// Inputs shorter than this take the portable loop: the folding kernel needs
/// at least 64 bytes to seed its four lanes, and below two 64-byte blocks its
/// fixed reduction cost is not repaid.
const FOLD_MIN: usize = 128;

/// Pre-computed slicing-by-8 tables for the reflected IEEE polynomial
/// 0xEDB88320. `tables()[0]` is the classic single CRC table; `tables()[k]`
/// advances a byte through `k` additional zero bytes.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for i in 0..256 {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    })
}

/// Computes the CRC-32 of `data` (same value as zlib's `crc32`).
///
/// Uses the PCLMULQDQ folding kernel when the CPU has it and `data` is at
/// least 128 bytes long, and [`crc32_portable`] otherwise.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: the `pclmulqdq` requirement of `fold_pclmul` was just
            // verified at runtime, and it is the function's only feature.
            return !unsafe { fold_pclmul(!0, data) };
        }
    }
    crc32_portable(data)
}

/// The portable slicing-by-8 CRC-32: the fallback of [`crc32`] and the
/// oracle its tests compare the folding kernel against.
pub fn crc32_portable(data: &[u8]) -> u32 {
    !slice8(!0, data)
}

/// Advances the raw (uninverted) CRC register `c` over `data`, eight bytes
/// per table round, then the byte tail.
fn slice8(mut c: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes(ch[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(ch[4..8].try_into().unwrap());
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

// Folding constants for P(x) = 0x104C11DB7 in the bit-reflected domain. Each
// `K` is `reflect32(x^n mod P) << 1` (`folding_constants_match_definitions`
// rederives them): the shift absorbs the one-bit offset of a reflected
// carry-less product.
/// Fold by four lanes (512 bits): `n = 4·128 + 32` for the low qword.
const K1: i64 = 0x1_5444_2BD4;
/// Fold by four lanes: `n = 4·128 − 32` for the high qword.
const K2: i64 = 0x1_C6E4_1596;
/// Fold by one lane (128 bits): `n = 128 + 32`.
const K3: i64 = 0x1_7519_97D0;
/// Fold by one lane: `n = 128 − 32`.
const K4: i64 = 0x0_CCAA_009E;
/// Reduce 96 bits to 64: `n = 64`.
const K5: i64 = 0x1_63CD_6124;
/// `P(x)` reflected over its 33 bits.
const P_X: i64 = 0x1_DB71_0641;
/// Barrett constant `⌊x^64 / P(x)⌋`, reflected over its 33 bits.
const MU: i64 = 0x1_F701_1641;

/// Advances the raw CRC register `c` over `data` with carry-less-multiply
/// folding; inputs shorter than [`FOLD_MIN`] and the final 0–15 bytes go
/// through [`slice8`]. Callers must have verified that the CPU supports
/// PCLMULQDQ, the one feature the function enables.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
fn fold_pclmul(c: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// `acc · x^n ⊕ next`, with the two halves of `acc` multiplied by the
    /// matching halves of `k`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(next, _mm_xor_si128(lo, hi))
    }

    #[inline(always)]
    fn load(block: &[u8; 16]) -> __m128i {
        // SAFETY: `block` is 16 readable bytes, and `loadu` has no alignment
        // requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    if data.len() < FOLD_MIN {
        return slice8(c, data);
    }

    // 1. Four lanes, seeded with the first 64 bytes and the incoming
    //    register, each folded 512 bits forward per 64-byte step.
    let (quads, rest) = data.as_chunks::<64>();
    let (first, quads) = quads.split_first().expect("FOLD_MIN covers one block");
    let lanes = |q: &[u8; 64]| -> [__m128i; 4] {
        let (b, _) = q.as_chunks::<16>();
        [load(&b[0]), load(&b[1]), load(&b[2]), load(&b[3])]
    };
    let mut x = lanes(first);
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));
    let k1k2 = _mm_set_epi64x(K2, K1);
    for q in quads {
        let next = lanes(q);
        for (lane, n) in x.iter_mut().zip(next) {
            *lane = fold(*lane, n, k1k2);
        }
    }

    // 2. Fold the four lanes into one, then any whole 16-byte blocks left.
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
    let (blocks, tail) = rest.as_chunks::<16>();
    for b in blocks {
        acc = fold(acc, load(b), k3k4);
    }

    // 3. 128 → 96 bits (low qword times K4 into the high qword), then
    //    96 → 64 bits (low dword times K5 into the rest).
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    let r = _mm_xor_si128(
        _mm_clmulepi64_si128(acc, k3k4, 0x10),
        _mm_srli_si128(acc, 8),
    );
    let r = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(r, low32), _mm_set_epi64x(0, K5), 0x00),
        _mm_srli_si128(r, 4),
    );

    // 4. Barrett reduction 64 → 32 bits: T1 = (R mod x^32)·μ,
    //    T2 = (T1 mod x^32)·P, and the CRC is the upper dword of R ⊕ T2.
    let pmu = _mm_set_epi64x(MU, P_X);
    let t1 = _mm_clmulepi64_si128(_mm_and_si128(r, low32), pmu, 0x10);
    let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
    let c = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(r, t2), 4)) as u32;

    slice8(c, tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-table byte-at-a-time reference every path must match bit for
    /// bit (committed snapshot manifests carry CRCs produced by this loop).
    fn crc32_reference(data: &[u8]) -> u32 {
        let t = &tables()[0];
        let mut c: u32 = 0xFFFF_FFFF;
        for &b in data {
            c = t[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// `len` deterministic bytes drawn from `seed`.
    fn bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    /// The dispatched kernel, the portable loop (called directly, so it
    /// keeps coverage where dispatch picks the folding kernel) and the
    /// reference agree on `data`.
    fn agree(data: &[u8]) -> Result<(), TestCaseError> {
        let want = crc32_reference(data);
        prop_assert_eq!(crc32_portable(data), want, "portable, len {}", data.len());
        prop_assert_eq!(crc32(data), want, "dispatched, len {}", data.len());
        Ok(())
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // A long input takes the folding kernel where the CPU has one; the
        // value is zlib's `crc32(b"\0" * 4096)`.
        assert_eq!(crc32(&[0u8; 4096]), 0xC71C_0011);
    }

    #[test]
    fn matches_byte_at_a_time_reference() {
        // Every length 0..64 plus a 4 KiB page: exercises the 8-byte main
        // loop, the remainder tail, and their interaction.
        let data: Vec<u8> = (0..4096 + 64)
            .map(|i| ((i * 131 + 7) % 253) as u8)
            .collect();
        for len in 0..64 {
            assert_eq!(
                crc32(&data[..len]),
                crc32_reference(&data[..len]),
                "len {len}"
            );
        }
        assert_eq!(crc32(&data[..4096]), crc32_reference(&data[..4096]));
        assert_eq!(crc32(&data), crc32_reference(&data));
        // Unaligned start: the slice need not begin at an 8-byte boundary.
        assert_eq!(crc32(&data[3..1000]), crc32_reference(&data[3..1000]));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Arbitrary lengths at arbitrary start offsets: every path agrees.
        #[test]
        fn crc_paths_agree_on_arbitrary_inputs(
            len in 0usize..=9000,
            offset in 0usize..64,
            seed in any::<u64>(),
        ) {
            let buf = bytes(seed, offset + len);
            agree(&buf[offset..])?;
        }
    }

    /// The lengths where the kernel changes shape — below and at the fold
    /// threshold, one block past it, a sealed page body (4,092 B), a page,
    /// and a page plus a ragged tail — at every start offset 0..64.
    #[test]
    fn crc_paths_agree_at_boundary_lengths() {
        let buf = bytes(0x5EED, 64 + 4100);
        for len in [0, 15, 16, 63, 64, 127, 128, 129, 4092, 4096, 4100] {
            for offset in 0..64 {
                agree(&buf[offset..offset + len])
                    .unwrap_or_else(|e| panic!("offset {offset}: {e}"));
            }
        }
    }

    #[test]
    fn folding_constants_match_definitions() {
        const P: u64 = 0x1_04C1_1DB7;
        let reflect = |v: u64, bits: u32| v.reverse_bits() >> (64 - bits);
        // x^n mod P, by repeated multiplication by x.
        let xpow_mod = |n: u32| {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r & (1 << 32) != 0 {
                    r ^= P;
                }
            }
            r
        };
        let k = |n: u32| (reflect(xpow_mod(n), 32) << 1) as i64;
        assert_eq!(k(4 * 128 + 32), K1);
        assert_eq!(k(4 * 128 - 32), K2);
        assert_eq!(k(128 + 32), K3);
        assert_eq!(k(128 - 32), K4);
        assert_eq!(k(64), K5);
        assert_eq!(reflect(P, 33) as i64, P_X);
        // ⌊x^64 / P⌋ by long division.
        let (mut rem, mut quo) = (1u128 << 64, 0u64);
        for bit in (0..=32).rev() {
            if rem & (1u128 << (bit + 32)) != 0 {
                rem ^= u128::from(P) << bit;
                quo |= 1 << bit;
            }
        }
        assert_eq!(reflect(quo, 33) as i64, MU);
    }

    #[test]
    fn detects_single_bit_flip() {
        // CRC-32 detects every single-bit error; check that the dispatched
        // kernel does for every bit position of a 4 KiB page.
        let mut data = bytes(7, 4096);
        let c0 = crc32(&data);
        for bit in 0..data.len() * 8 {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&data), c0, "flip of bit {bit} went unnoticed");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32(&data), c0);
    }

    #[test]
    fn detects_transposition() {
        let a = crc32(b"ab");
        let b = crc32(b"ba");
        assert_ne!(a, b);
    }
}
