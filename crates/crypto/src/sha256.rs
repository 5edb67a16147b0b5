//! A from-scratch SHA-256 implementation (FIPS 180-4).
//!
//! The paper assumes a collision-resistant cryptographic hash `H(·)` that
//! maps arbitrary values to constant-sized digests (§3). We implement
//! SHA-256 directly rather than pulling a crypto dependency; the
//! implementation is validated against the official NIST test vectors.
//!
//! The hasher compresses every run of whole 64-byte blocks in one call to
//! a block function chosen once per process: the x86-64 SHA extensions
//! (SHA-NI) when the CPU has them, the portable function otherwise. The
//! portable function is also the reference the accelerated one is tested
//! against; both produce identical digests.

use std::sync::OnceLock;

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 256-bit digest.
pub type Digest = [u8; DIGEST_LEN];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A SHA-256 block function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Backend {
    /// FIPS 180-4 as written, in portable Rust; runs everywhere.
    Portable,
    /// The x86-64 SHA extensions (`sha256rnds2`, `sha256msg1/2`).
    ShaNi,
}

impl Backend {
    /// The fastest block function this CPU supports, detected once.
    pub(crate) fn detect() -> Backend {
        static DETECTED: OnceLock<Backend> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            if Backend::ShaNi.is_available() {
                Backend::ShaNi
            } else {
                Backend::Portable
            }
        })
    }

    /// Whether this CPU can run the block function.
    pub(crate) fn is_available(self) -> bool {
        match self {
            Backend::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi => shani::available(),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::ShaNi => false,
        }
    }

    /// Compresses `blocks` (a whole number of 64-byte blocks) into
    /// `state`. Callers hold `self` only if [`Backend::is_available`].
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Backend::Portable => compress_portable(state, blocks),
            // SAFETY: a `Sha256` holds `ShaNi` only when `is_available`
            // returned true (`detect` and `with_backend` both check), so
            // the CPU supports every feature `shani::compress` enables.
            #[cfg(target_arch = "x86_64")]
            Backend::ShaNi => unsafe { shani::compress(state, blocks) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::ShaNi => unreachable!("SHA-NI is never available off x86-64"),
        }
    }
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered, waiting for a full 64-byte block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
    /// Always one whose `is_available()` holds (see `Backend::compress`).
    backend: Backend,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher on the fastest block function this CPU supports.
    pub fn new() -> Self {
        Self::on(Backend::detect())
    }

    /// Fresh hasher on `backend`.
    ///
    /// # Panics
    /// If this CPU cannot run `backend`.
    pub(crate) fn with_backend(backend: Backend) -> Self {
        assert!(
            backend.is_available(),
            "{backend:?} is not available on this CPU"
        );
        Self::on(backend)
    }

    fn on(backend: Backend) -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
            backend,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < 64 {
                return self;
            }
            self.backend.compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let whole = input.len() - input.len() % 64;
        if whole > 0 {
            self.backend.compress(&mut self.state, &input[..whole]);
        }
        let rest = &input[whole..];
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
        self
    }

    /// Finish and produce the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80 then zeros until 56 mod 64, then 64-bit length.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            self.backend.compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.backend.compress(&mut self.state, &self.buf);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The portable block function: FIPS 180-4 §6.2.2, one block at a time.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The SHA-NI block function (Intel's SHA extensions: four rounds per
/// `sha256rnds2` pair, message schedule by `sha256msg1/2`).
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether the CPU has every feature [`compress`] enables.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
    }

    /// Next four message-schedule words from the previous sixteen.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Rounds `4i .. 4i + 4` on message words `w`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = &K[4 * i..4 * i + 4];
        let wk = _mm_add_epi32(
            w,
            _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
        );
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }

    /// Compresses every whole 64-byte block of `blocks` into `state`.
    ///
    /// # Safety
    /// The CPU must support SHA, SSE2, SSSE3 and SSE4.1 ([`available`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte order of each 32-bit lane: big-endian message words.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY: `state` is 8 u32s = two 16-byte unaligned loads.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        // The round instructions take the state as (A,B,E,F)/(C,D,G,H).
        let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // SAFETY: `block` is 64 bytes = four 16-byte unaligned loads.
            let w = unsafe {
                let p = block.as_ptr().cast::<__m128i>();
                [
                    _mm_shuffle_epi8(_mm_loadu_si128(p), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap),
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap),
                ]
            };
            let [mut w0, mut w1, mut w2, mut w3] = w;
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            for i in (4..16).step_by(4) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, i);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, i + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, i + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, i + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32::<0x1b>(abef);
        let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
        // SAFETY: as for the loads above.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, _mm_blend_epi16::<0xf0>(feba, dchg));
            _mm_storeu_si128(p.add(1), _mm_alignr_epi8::<8>(dchg, feba));
        }
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 over the concatenation of several slices (avoids
/// building an intermediate buffer).
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Render a digest as lowercase hex (for logs and tests).
pub fn to_hex(d: &Digest) -> String {
    let mut s = String::with_capacity(64);
    for b in d {
        use std::fmt::Write;
        let _ = write!(s, "{b:02x}");
    }
    s
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every block function this CPU can run, portable first.
    pub(crate) fn backends() -> Vec<Backend> {
        [Backend::Portable, Backend::ShaNi]
            .into_iter()
            .filter(|b| b.is_available())
            .collect()
    }

    fn sha256_on(backend: Backend, data: &[u8]) -> Digest {
        let mut h = Sha256::with_backend(backend);
        h.update(data);
        h.finalize()
    }

    /// NIST FIPS 180-4 test vectors, through the dispatched hasher and
    /// through each block function explicitly.
    #[test]
    fn nist_vectors() {
        let vectors: [(&[u8], &str); 3] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (msg, want) in vectors {
            assert_eq!(to_hex(&sha256(msg)), want);
            for b in backends() {
                assert_eq!(to_hex(&sha256_on(b, msg)), want, "{b:?}");
            }
        }
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        for b in backends() {
            assert_eq!(
                to_hex(&sha256_on(b, &data)),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{b:?}"
            );
        }
    }

    #[test]
    fn detect_picks_an_available_backend() {
        assert!(Backend::detect().is_available());
        #[cfg(target_arch = "x86_64")]
        if Backend::ShaNi.is_available() {
            assert_eq!(Backend::detect(), Backend::ShaNi);
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let oneshot = sha256(&data);
        // Feed in awkward chunk sizes crossing block boundaries.
        for chunk in [1usize, 7, 63, 64, 65, 129] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
        assert_eq!(sha256_concat(&[&data[..100], &data[100..]]), oneshot);
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64 padding boundaries must all work.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 121] {
            let data = vec![0xabu8; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    proptest! {
        /// Random messages cut at random `update` boundaries hash the
        /// same on every block function as one portable one-shot call.
        #[test]
        fn split_updates_agree_across_backends(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            cuts in proptest::collection::vec(0usize..600, 0..6),
        ) {
            let want = sha256_on(Backend::Portable, &data);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            for b in backends() {
                let mut h = Sha256::with_backend(b);
                let mut from = 0;
                for &c in cuts.iter().chain([&data.len()]) {
                    h.update(&data[from..c]);
                    from = c;
                }
                prop_assert_eq!(h.finalize(), want);
            }
        }
    }
}
