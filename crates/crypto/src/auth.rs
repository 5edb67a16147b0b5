//! Authenticated communication: MACs for intra-shard messages and digital
//! signatures for cross-shard messages (§3 "Authenticated Communication").
//!
//! The paper uses cheap symmetric MACs inside a shard (each pair of nodes
//! shares a secret key) and asymmetric digital signatures across shards,
//! because cross-shard communication requires *non-repudiation*: a Forward
//! message must prove that `nf` distinct replicas really committed.
//!
//! **Substitution note (see DESIGN.md §2):** instead of a real asymmetric
//! scheme we use a deterministic HMAC-based scheme with a central
//! [`KeyStore`] acting as the trusted key-distribution oracle of the
//! simulation. Every node's signing key is derived from a master secret and
//! the node identity; verification recomputes the tag through the oracle.
//! Within the simulation, forging is impossible for the same reason it is
//! with real signatures: the protocol code only ever signs *as itself*
//! (the simulator hands each node a [`Signer`] bound to its identity), so a
//! Byzantine node cannot produce a valid tag for another identity. CPU
//! costs of sign/verify are charged separately by the simulator's cost
//! model, so performance shapes are unaffected by the substitution.

use crate::hmac::{digest_eq, HmacKey};
use crate::sha256::Digest;
use ringbft_types::{ClientId, NodeId, ReplicaId, ShardId};

/// A message authentication tag (intra-shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacTag(pub Digest);

/// A digital signature (cross-shard); identifies its signer, mirroring the
/// paper's `⟨m⟩r` notation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Identity the signature claims.
    pub signer: NodeId,
    /// Authentication tag.
    pub tag: Digest,
}

fn encode_node(node: NodeId, out: &mut [u8; 13]) {
    match node {
        NodeId::Replica(ReplicaId {
            shard: ShardId(s),
            index,
        }) => {
            out[0] = 0;
            out[1..5].copy_from_slice(&s.to_le_bytes());
            out[5..9].copy_from_slice(&index.to_le_bytes());
        }
        NodeId::Client(ClientId(c)) => {
            out[0] = 1;
            out[1..9].copy_from_slice(&c.to_le_bytes());
        }
    }
}

/// Central key-distribution oracle of the simulation. Derives pairwise MAC
/// keys and per-node signing keys deterministically from a master secret,
/// so two [`KeyStore`]s created with the same seed agree on every key.
/// `Debug` prints no key material.
#[derive(Debug, Clone)]
pub struct KeyStore {
    master: HmacKey,
}

impl KeyStore {
    /// Creates a key store from a 32-byte master secret.
    pub fn new(master: [u8; 32]) -> Self {
        KeyStore {
            master: HmacKey::new(&master),
        }
    }

    /// Creates a key store from a seed integer (tests, simulations).
    pub fn from_seed(seed: u64) -> Self {
        let mut master = [0u8; 32];
        master[..8].copy_from_slice(&seed.to_le_bytes());
        Self::new(crate::sha256::sha256(&master))
    }

    /// The symmetric key shared by the unordered pair `{a, b}`.
    fn pair_key(&self, a: NodeId, b: NodeId) -> HmacKey {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut ea = [0u8; 13];
        let mut eb = [0u8; 13];
        encode_node(lo, &mut ea);
        encode_node(hi, &mut eb);
        HmacKey::new(&self.master.mac_parts(&[b"mac-pair", &ea, &eb]))
    }

    /// The signing key of `node` (kept "private" by construction: protocol
    /// code receives only a [`Signer`] bound to its own identity).
    fn signing_key(&self, node: NodeId) -> HmacKey {
        HmacKey::new(&self.signing_secret(node))
    }

    fn signing_secret(&self, node: NodeId) -> Digest {
        let mut e = [0u8; 13];
        encode_node(node, &mut e);
        self.master.mac_parts(&[b"sign", &e])
    }

    /// Computes the MAC `from → to` over `msg`.
    pub fn mac(&self, from: NodeId, to: NodeId, msg: &[u8]) -> MacTag {
        MacTag(self.pair_key(from, to).mac(msg))
    }

    /// Computes the MAC `from → to` over the concatenation of `parts`
    /// without copying them into one buffer — used by the frame codec
    /// to prepend a domain tag to large bodies.
    pub fn mac_parts(&self, from: NodeId, to: NodeId, parts: &[&[u8]]) -> MacTag {
        MacTag(self.pair_key(from, to).mac_parts(parts))
    }

    /// Verifies a MAC received by `to` from claimed sender `from`.
    pub fn verify_mac(&self, from: NodeId, to: NodeId, msg: &[u8], tag: &MacTag) -> bool {
        digest_eq(&self.mac(from, to, msg).0, &tag.0)
    }

    /// Signs `msg` as `signer`. Prefer handing protocol code a [`Signer`]
    /// so it cannot sign under foreign identities.
    pub fn sign(&self, signer: NodeId, msg: &[u8]) -> Signature {
        Signature {
            signer,
            tag: self.signing_key(signer).mac(msg),
        }
    }

    /// Verifies a signature against the identity it claims.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        digest_eq(&self.signing_key(sig.signer).mac(msg), &sig.tag)
    }

    /// Derives a signer handle bound to `id` — the per-node "private key".
    pub fn signer(&self, id: NodeId) -> Signer {
        Signer {
            id,
            key: self.signing_key(id),
        }
    }
}

/// A signing handle bound to a single identity. This is what protocol code
/// receives; it mirrors a node holding its own private key and makes
/// cross-identity forgery impossible by construction. `Debug` prints no
/// key material.
#[derive(Debug, Clone)]
pub struct Signer {
    id: NodeId,
    key: HmacKey,
}

impl Signer {
    /// Identity this signer is bound to.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Signs `msg` under this node's identity.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        Signature {
            signer: self.id,
            tag: self.key.mac(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica(s: u32, i: u32) -> NodeId {
        NodeId::Replica(ReplicaId::new(ShardId(s), i))
    }

    #[test]
    fn mac_roundtrip_and_symmetry() {
        let ks = KeyStore::from_seed(7);
        let a = replica(0, 1);
        let b = replica(1, 1);
        let tag = ks.mac(a, b, b"forward");
        assert!(ks.verify_mac(a, b, b"forward", &tag));
        // The pair key is symmetric: b can MAC back to a with same key.
        let tag_ba = ks.mac(b, a, b"forward");
        assert_eq!(tag.0, tag_ba.0);
        // Tampered message fails.
        assert!(!ks.verify_mac(a, b, b"forwarD", &tag));
        // Wrong claimed sender fails.
        assert!(!ks.verify_mac(replica(0, 2), b, b"forward", &tag));
    }

    #[test]
    fn signatures_verify_and_bind_identity() {
        let ks = KeyStore::from_seed(42);
        let r = replica(2, 3);
        let sig = ks.sign(r, b"commit k=5");
        assert!(ks.verify(b"commit k=5", &sig));
        assert!(!ks.verify(b"commit k=6", &sig));
        // A signature claiming a different signer does not verify.
        let forged = Signature {
            signer: replica(2, 4),
            tag: sig.tag,
        };
        assert!(!ks.verify(b"commit k=5", &forged));
    }

    #[test]
    fn signer_handle_matches_keystore() {
        let ks = KeyStore::from_seed(1);
        let r = replica(0, 0);
        let signer = ks.signer(r);
        assert_eq!(signer.id(), r);
        let sig = signer.sign(b"x");
        assert_eq!(sig, ks.sign(r, b"x"));
        assert!(ks.verify(b"x", &sig));
    }

    #[test]
    fn keystores_with_same_seed_agree() {
        let a = KeyStore::from_seed(9);
        let b = KeyStore::from_seed(9);
        let r = replica(1, 1);
        assert_eq!(a.sign(r, b"m"), b.sign(r, b"m"));
        let c = KeyStore::from_seed(10);
        assert_ne!(a.sign(r, b"m"), c.sign(r, b"m"));
    }

    #[test]
    fn client_and_replica_keys_distinct() {
        let ks = KeyStore::from_seed(3);
        // Client 0 and replica S0r0 encode differently; their signatures
        // must differ even for equal numeric ids.
        let c = NodeId::Client(ClientId(0));
        let r = replica(0, 0);
        assert_ne!(ks.sign(c, b"m").tag, ks.sign(r, b"m").tag);
    }

    /// Signatures and MACs are pinned to their values before keys were
    /// held as HMAC midstates.
    #[test]
    fn sign_and_mac_golden() {
        let ks = KeyStore::from_seed(7);
        let from = replica(1, 2);
        let body: Vec<u8> = (0..150u32).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(
            crate::sha256::to_hex(&ks.sign(from, b"forward golden").tag),
            "fa813d791291f8791e2efd7f66b06996c5118c3d277ed49cb6266a446c0f5f4b"
        );
        assert_eq!(
            crate::sha256::to_hex(&ks.mac(from, replica(0, 3), &body).0),
            "bd452a5d190c051b96e81d009f6ac18eb2869244111e8272f465fb03fa46fa31"
        );
    }

    /// Debug output shows neither the master secret nor a signing key,
    /// in hex or as a byte list.
    #[test]
    fn debug_output_holds_no_key_bytes() {
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&7u64.to_le_bytes());
        let master = crate::sha256::sha256(&seed);
        let ks = KeyStore::from_seed(7);
        let r = replica(0, 1);
        let signing = ks.signing_secret(r);
        let shown = format!("{ks:?} {:?} {:#?}", ks.signer(r), ks.signer(r));
        for secret in [master, signing] {
            assert!(!shown.contains(&crate::sha256::to_hex(&secret)), "{shown}");
            let head = format!("{:?}", &secret[..4]);
            assert!(!shown.contains(head.trim_matches(['[', ']'])), "{shown}");
        }
        assert!(shown.contains("<redacted>"), "{shown}");
    }
}
