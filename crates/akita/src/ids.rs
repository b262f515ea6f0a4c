//! Identifier newtypes for components, ports, and messages.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// Index of a component within a [`Simulation`](crate::Simulation)'s registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ComponentId(pub(crate) u32);

impl ComponentId {
    /// The raw index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index. Intended for tests and tooling; ids
    /// normally come from [`Simulation::register`](crate::Simulation::register).
    #[inline]
    pub const fn from_index(i: usize) -> Self {
        ComponentId(i as u32)
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "comp#{}", self.0)
    }
}

/// Globally unique identity of a [`Port`](crate::Port).
///
/// Connections route messages by the destination `PortId` in
/// [`MsgMeta`](crate::MsgMeta).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct PortId(u64);

impl PortId {
    pub(crate) fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        PortId(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw id value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port#{}", self.0)
    }
}

/// Globally unique identity of a message, for tracing and MSHR matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct MsgId(u64);

impl MsgId {
    /// Allocates a fresh id.
    pub fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        MsgId(NEXT.fetch_add(1, Ordering::Relaxed))
    }

    /// The raw id value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for MsgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msg#{}", self.0)
    }
}

/// The odd 64-bit constant [`IdHasher`] multiplies by (2^64 / φ).
const ID_HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// A fixed multiplicative [`Hasher`] for tables keyed by integer ids:
/// [`MsgId`]s, addresses, page numbers.
///
/// Each word costs one 64×64→128-bit multiply whose halves are folded
/// together, instead of SipHash's rounds. The fold matters: a plain
/// multiply leaves the low bits depending only on the key's low bits, so
/// cache-line-aligned addresses would share their low (bucket-index)
/// bits, and an identity hash would give sequential [`MsgId`]s the same
/// high (tag) bits. The hash is neither keyed nor DoS-resistant; the keys
/// come from the simulation itself, never from outside input.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let m = u128::from(self.0 ^ n) * u128::from(ID_HASH_MUL);
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`IdHasher`]s: `HashMap<MsgId, V, IdBuildHasher>`.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    use super::*;

    #[test]
    fn port_ids_are_unique() {
        let a = PortId::fresh();
        let b = PortId::fresh();
        assert_ne!(a, b);
    }

    #[test]
    fn msg_ids_are_unique_and_display() {
        let a = MsgId::fresh();
        let b = MsgId::fresh();
        assert_ne!(a, b);
        assert!(a.to_string().starts_with("msg#"));
    }

    #[test]
    fn component_id_round_trips_index() {
        let id = ComponentId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "comp#42");
    }

    /// Counts the distinct values of `bits(hash(key))` over `keys`.
    fn distinct(keys: impl Iterator<Item = u64>, bits: impl Fn(u64) -> u64) -> usize {
        let build = IdBuildHasher::default();
        keys.map(|k| bits(build.hash_one(k)))
            .collect::<HashSet<_>>()
            .len()
    }

    #[test]
    fn id_hash_spreads_sequential_and_aligned_keys() {
        // hashbrown takes the bucket index from the low bits and a 7-bit
        // tag from the top bits. 1,024 keys into 1,024 buckets hit about
        // 647 distinct ones at random; all 128 tags should show up.
        let low = |h: u64| h & 1023;
        let tag = |h: u64| h >> 57;
        let sequential = || 1..=1024u64;
        let aligned = || (0..1024u64).map(|i| 0x4000_0000 + i * 64);
        assert!(distinct(sequential(), low) > 600);
        assert!(distinct(aligned(), low) > 600);
        assert_eq!(distinct(sequential(), tag), 128);
        assert_eq!(distinct(aligned(), tag), 128);
    }

    #[test]
    fn id_hash_matches_across_key_types() {
        let build = IdBuildHasher::default();
        let id = MsgId(77);
        assert_eq!(build.hash_one(id), build.hash_one(77u64));
        assert_ne!(build.hash_one(77u64), build.hash_one(78u64));
    }
}
