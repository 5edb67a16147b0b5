//! HMAC-SHA256 (RFC 2104), built on our own SHA-256.
//!
//! HMACs back both authentication schemes in this reproduction: the
//! pairwise MACs used for intra-shard messages and the deterministic
//! signature scheme used for cross-shard messages (see [`crate::auth`]).

use crate::sha256::{Backend, Digest, Sha256, DIGEST_LEN};
use std::fmt;

const BLOCK_LEN: usize = 64;

/// An HMAC-SHA256 key, held as the SHA-256 midstates after the
/// `key ⊕ ipad` and `key ⊕ opad` blocks: each MAC under it skips those
/// two compressions. `Debug` prints no key material.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Prepares `key` (RFC 2104: keys longer than a block are hashed
    /// first, shorter ones zero-padded).
    pub fn new(key: &[u8]) -> HmacKey {
        Self::on(Backend::detect(), key)
    }

    pub(crate) fn on(backend: Backend, key: &[u8]) -> HmacKey {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let mut h = Sha256::with_backend(backend);
            h.update(key);
            k[..DIGEST_LEN].copy_from_slice(&h.finalize());
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| {
            let mut h = Sha256::with_backend(backend);
            h.update(&k.map(|b| b ^ byte));
            h
        };
        HmacKey {
            inner: pad(0x36),
            outer: pad(0x5c),
        }
    }

    /// `HMAC-SHA256(key, msg₀ ‖ msg₁ ‖ …)` without concatenating.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = self.inner.clone();
        for p in parts {
            inner.update(p);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// `HMAC-SHA256(key, msg)`.
    pub fn mac(&self, msg: &[u8]) -> Digest {
        self.mac_parts(&[msg])
    }
}

impl fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HmacKey(<redacted>)")
    }
}

/// Computes `HMAC-SHA256(key, msg)`.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> Digest {
    hmac_sha256_parts(key, &[msg])
}

/// Computes `HMAC-SHA256(key, msg₀ ‖ msg₁ ‖ …)` without concatenating.
/// Prefer a kept [`HmacKey`] when one key MACs many messages.
pub fn hmac_sha256_parts(key: &[u8], parts: &[&[u8]]) -> Digest {
    HmacKey::new(key).mac_parts(parts)
}

/// Constant-time equality for digests. The simulator is not subject to real
/// timing attacks, but verification code should still model the correct
/// comparison discipline.
pub fn digest_eq(a: &Digest, b: &Digest) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::tests::backends;
    use crate::sha256::{sha256, to_hex};

    /// RFC 4231 vectors (key, data, HMAC-SHA256), checked on every block
    /// function: cases 1–3 and 6 (a key longer than the block).
    #[test]
    fn rfc4231_on_every_backend() {
        let long = b"Test Using Larger Than Block-Size Key - Hash Key First";
        let cases: [(&[u8], &[u8], &str); 4] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                &[0xaa; 20],
                &[0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                &[0xaa; 131],
                long,
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ];
        for (key, data, want) in cases {
            for b in backends() {
                assert_eq!(to_hex(&HmacKey::on(b, key).mac(data)), want, "{b:?}");
            }
        }
    }

    /// RFC 2104 spelled out with one-shot hashes over concatenated
    /// buffers: the reference the midstate path is checked against.
    fn hmac_reference(key: &[u8], msg: &[u8]) -> Digest {
        let mut k = if key.len() > BLOCK_LEN {
            sha256(key).to_vec()
        } else {
            key.to_vec()
        };
        k.resize(BLOCK_LEN, 0);
        let mut inner: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
        inner.extend_from_slice(msg);
        let mut outer: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
        outer.extend_from_slice(&sha256(&inner));
        sha256(&outer)
    }

    #[test]
    fn hmac_key_matches_reference_for_every_key_length_class() {
        let msg: Vec<u8> = (0..150u8).collect();
        for len in [0usize, 32, 64, 100] {
            let key: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(37)).collect();
            let want = hmac_reference(&key, &msg);
            assert_eq!(hmac_sha256_parts(&key, &[&msg[..7], &msg[7..]]), want);
            for b in backends() {
                let hk = HmacKey::on(b, &key);
                assert_eq!(hk.mac(&msg), want, "key len {len}, {b:?}");
                // A kept key MACs many messages: midstates are not consumed.
                assert_eq!(hk.mac_parts(&[&msg[..90], &msg[90..]]), want);
            }
        }
    }

    #[test]
    fn hmac_key_debug_is_redacted() {
        let key = [0x41u8; 32];
        let shown = format!("{:?}", HmacKey::new(&key));
        assert_eq!(shown, "HmacKey(<redacted>)");
    }

    #[test]
    fn parts_equal_concat() {
        let key = b"secret";
        let whole = hmac_sha256(key, b"hello world");
        let split = hmac_sha256_parts(key, &[b"hello", b" ", b"world"]);
        assert!(digest_eq(&whole, &split));
    }

    #[test]
    fn digest_eq_detects_difference() {
        let a = hmac_sha256(b"k", b"m");
        let mut b = a;
        assert!(digest_eq(&a, &b));
        b[31] ^= 1;
        assert!(!digest_eq(&a, &b));
    }
}
