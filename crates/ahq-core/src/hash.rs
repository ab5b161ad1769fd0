//! Stable content hashing shared by every layer that addresses data by
//! value (the experiment executor's run memo and on-disk run cache).
//!
//! [`stable_hash128`] is a 128-bit FNV-1a over bytes: a pure function of
//! the input with no per-process state, so the same canonical document
//! hashes to the same address in every process, on every platform, in
//! every Rust version — unlike `std::hash`, whose `Hasher` outputs are
//! explicitly unstable across releases. [`Fnv128`] streams the same hash;
//! as a [`fmt::Write`] sink it hashes a rendering without allocating it.
//! 128 bits keep accidental collisions out of reach for any realistic
//! population (birthday bound ~2^64 entries), and the disk cache
//! additionally verifies the full canonical key stored inside each shard,
//! so even a collision there degrades to a miss rather than a wrong result.

use std::fmt;

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A streaming 128-bit FNV-1a state: feeding bytes in any number of
/// pieces gives the hash of their concatenation.
#[derive(Debug, Clone, Copy)]
pub struct Fnv128(u128);

impl Fnv128 {
    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &b in bytes {
            hash ^= b as u128;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        self.0 = hash;
    }

    /// The hash of everything fed so far.
    pub fn finish(self) -> u128 {
        self.0
    }
}

impl Default for Fnv128 {
    /// The empty-input state (the offset basis).
    fn default() -> Self {
        Fnv128(FNV_OFFSET)
    }
}

impl fmt::Write for Fnv128 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// The stable 128-bit FNV-1a hash of `bytes`.
pub fn stable_hash128(bytes: &[u8]) -> u128 {
    let mut hash = Fnv128::default();
    hash.write(bytes);
    hash.finish()
}

/// [`stable_hash128`] salted with a domain/schema tag: the salt is hashed
/// before the content, so bumping a schema version re-addresses every
/// entry (a whole-cache invalidation) without touching the content bytes.
pub fn stable_hash128_salted(salt: &[u8], bytes: &[u8]) -> u128 {
    let mut hash = Fnv128::default();
    hash.write(salt);
    hash.write(&[0]);
    hash.write(bytes);
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_pinned_to_the_fnv1a_reference() {
        // Published FNV-1a 128 reference vectors.
        assert_eq!(stable_hash128(b""), FNV_OFFSET);
        assert_eq!(
            stable_hash128(b"a"),
            0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964
        );
        // One multiply per byte: hand-checked chain for "ab".
        let mut h = FNV_OFFSET;
        for &b in b"ab" {
            h ^= b as u128;
            h = h.wrapping_mul(FNV_PRIME);
        }
        assert_eq!(stable_hash128(b"ab"), h);
        assert_eq!(
            stable_hash128(b"foobar"),
            0x343e_1662_793c_64bf_6f0d_3597_ba44_6f18
        );
        // The salted form is the hash of `salt ++ [0] ++ bytes`: pinned so
        // every on-disk shard address stays where it was.
        assert_eq!(
            stable_hash128_salted(b"ahq-run-cache", b"{\"schema\":1}"),
            0x470e_10ec_bfd6_c2ba_7583_a163_7223_626c
        );
    }

    #[test]
    fn streaming_equals_one_shot() {
        use std::fmt::Write as _;
        let text = "RunSpec { seed: 42, loads: [(\"xapian\", 0.3)] }";
        for split in 0..=text.len() {
            let mut h = Fnv128::default();
            h.write(&text.as_bytes()[..split]);
            h.write(&text.as_bytes()[split..]);
            assert_eq!(h.finish(), stable_hash128(text.as_bytes()), "{split}");
        }
        // Hashing a value while it is formatted equals hashing its text.
        let value = (1.5f64, "two", [3u8, 4], Some(-0.0f64));
        let mut h = Fnv128::default();
        write!(h, "{value:?}").unwrap();
        assert_eq!(h.finish(), stable_hash128(format!("{value:?}").as_bytes()));
    }

    #[test]
    fn salt_separates_domains() {
        let content = b"the same content";
        let a = stable_hash128_salted(b"schema-v1", content);
        let b = stable_hash128_salted(b"schema-v2", content);
        assert_ne!(a, b, "a schema bump must re-address every entry");
        // Salting is not just concatenation ambiguity: the NUL separator
        // keeps ("ab", "c") and ("a", "bc") distinct.
        assert_ne!(
            stable_hash128_salted(b"ab", b"c"),
            stable_hash128_salted(b"a", b"bc"),
        );
    }

    #[test]
    fn distinct_inputs_do_not_collide_in_a_realistic_sweep() {
        let mut hashes: Vec<u128> = (0..10_000u32)
            .map(|i| stable_hash128(format!("spec-{i}").as_bytes()))
            .collect();
        let n = hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), n);
    }
}
