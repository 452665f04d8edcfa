//! State interning for the cycle-detection state stores.
//!
//! The state-space analyses detect periodicity by looking every visited
//! state up in a hash index. With an owned-key `HashMap` that means cloning
//! the full state (token, clock and phase vectors) for *every* lookup key
//! and re-hashing it with SipHash — pure overhead on the evaluator hot
//! path, where millions of states flow through long executions.
//!
//! A `RowStore` replaces that pattern with an *arena + hash index*. A
//! state has a fixed number of words, so the arena is one flat `u64`
//! vector of fixed-stride rows, and the index is an open-addressed table
//! of `(hash, arena index)` pairs. A lookup hashes the candidate row once
//! and compares it word for word with the rows its hash collides with;
//! storing a state copies a row instead of cloning its vectors. Arena
//! indices double as the discovery order the analyses use for cycle
//! arithmetic. The reduced states of the throughput analysis and the
//! timed states of the unit-step walk (full state space, schedules,
//! latency, memory peaks) live in the same kind of store.
//!
//! Hashing uses [`FxHasher`], a hand-rolled Fx-style multiply-rotate
//! hasher (the FNV-lineage hash used by rustc): deterministic across
//! runs and threads, no external dependency, and much cheaper than
//! SipHash on the short `u64`/`u32` vectors that make up a
//! [`DataflowState`](crate::DataflowState).

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The multiplier of the Fx hash (the 64-bit golden-ratio constant used
/// by rustc's `FxHasher`).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, deterministic, non-cryptographic hasher in the FNV/Fx lineage.
///
/// Word-at-a-time multiply-rotate hashing; identical results on every
/// run, platform and thread (no random keys), which the exploration
/// runtime relies on for reproducible sharding decisions.
///
/// Not DoS-resistant — only use for interned analysis state and memo
/// caches over trusted, internally generated keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// A [`std::hash::BuildHasher`] producing [`FxHasher`]s, for plugging the
/// Fx hash into `HashMap`/`HashSet`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Hashes any `Hash` value with the [`FxHasher`].
///
/// ```
/// use buffy_analysis::fx_hash;
/// assert_eq!(fx_hash(&[4u64, 2]), fx_hash(&[4u64, 2]));
/// assert_ne!(fx_hash(&[4u64, 2]), fx_hash(&[2u64, 4]));
/// ```
pub fn fx_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Outcome of [`RowStore::intern`]: the arena index of the state, and
/// whether this call inserted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Interned {
    /// The state was already stored at this arena index.
    Existing(usize),
    /// The state was inserted fresh at this arena index.
    Inserted(usize),
}

impl Interned {
    /// The arena index, regardless of whether the call inserted.
    #[cfg(test)]
    fn index(&self) -> usize {
        match *self {
            Interned::Existing(i) | Interned::Inserted(i) => i,
        }
    }
}

/// Number of probe-length tally bins kept by [`ProbeStats`]: bin `i`
/// counts probes that inspected `i + 1` slots; the last bin aggregates
/// everything longer.
pub(crate) const PROBE_BINS: usize = 32;

/// Flat probe statistics of a [`HashIndex`]'s lookups.
///
/// Counted with plain (non-atomic) integer adds on every
/// [`RowStore::intern`] call — cheap enough to stay always on,
/// deterministic, and folded into telemetry histograms only at the end
/// of an analysis (when a recorder is installed).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProbeStats {
    /// Number of interning lookups performed.
    pub lookups: u64,
    /// Total slots inspected across all lookups (1 per direct hit).
    pub probes: u64,
    /// Longest single probe sequence seen.
    pub max_probe: u64,
    /// Probe-length tally; see [`PROBE_BINS`] for the binning.
    pub tally: [u64; PROBE_BINS],
}

impl Default for ProbeStats {
    fn default() -> Self {
        ProbeStats {
            lookups: 0,
            probes: 0,
            max_probe: 0,
            tally: [0; PROBE_BINS],
        }
    }
}

impl ProbeStats {
    #[inline]
    fn record(&mut self, len: u64) {
        self.lookups += 1;
        self.probes += len;
        if len > self.max_probe {
            self.max_probe = len;
        }
        self.tally[(len as usize).min(PROBE_BINS) - 1] += 1;
    }
}

/// One slot of the open-addressed index: the key's full hash and the
/// arena index plus one (0 marks an empty slot).
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u64,
    index_plus_one: usize,
}

const EMPTY: Slot = Slot {
    hash: 0,
    index_plus_one: 0,
};

/// The open-addressed `(hash, arena index)` table of a [`RowStore`]:
/// linear probing, a power-of-two length and a load factor kept below
/// 7/8. The arena itself belongs to the store; the index only sees arena
/// indices, and full hashes are cached in the table, so stored states are
/// never re-hashed — not even when the table grows.
#[derive(Debug, Clone)]
struct HashIndex {
    table: Vec<Slot>,
    /// `table.len() - 1`; the table length is always a power of two.
    mask: usize,
    probes: ProbeStats,
}

/// The table length that holds `capacity` entries below the load factor.
fn table_len_for(capacity: usize) -> usize {
    (capacity * 8 / 7 + 1).next_power_of_two().max(16)
}

impl HashIndex {
    fn with_capacity(capacity: usize) -> HashIndex {
        let table_len = table_len_for(capacity);
        HashIndex {
            table: vec![EMPTY; table_len],
            mask: table_len - 1,
            probes: ProbeStats::default(),
        }
    }

    /// Empties the table in place, keeping its size, and restarts the
    /// probe statistics.
    fn reset(&mut self) {
        self.probes = ProbeStats::default();
        self.table.fill(EMPTY);
    }

    /// Probes for `hash`: `Ok(index)` when `matches` accepts a stored
    /// entry, otherwise `Err(slot)` naming the empty slot where the key
    /// belongs. Every call is tallied in the probe statistics.
    fn find(&mut self, hash: u64, mut matches: impl FnMut(usize) -> bool) -> Result<usize, usize> {
        let mut pos = (hash as usize) & self.mask;
        let mut probe_len = 1u64;
        loop {
            let slot = self.table[pos];
            if slot.index_plus_one == 0 {
                self.probes.record(probe_len);
                return Err(pos);
            }
            let idx = slot.index_plus_one - 1;
            if slot.hash == hash && matches(idx) {
                self.probes.record(probe_len);
                return Ok(idx);
            }
            pos = (pos + 1) & self.mask;
            probe_len += 1;
        }
    }

    /// Fills the empty `slot` returned by [`Self::find`] with arena entry
    /// `idx`, then grows the table if `len` entries would exceed the load
    /// factor.
    fn insert_at(&mut self, slot: usize, hash: u64, idx: usize, len: usize) {
        self.table[slot] = Slot {
            hash,
            index_plus_one: idx + 1,
        };
        // Keep the load factor below 7/8 so probe chains stay short.
        if (len + 1) * 8 > self.table.len() * 7 {
            self.grow();
        }
    }

    /// Doubles the table, re-placing entries from their cached hashes
    /// (stored states are not re-hashed).
    fn grow(&mut self) {
        let new_len = self.table.len() * 2;
        let old = std::mem::replace(&mut self.table, vec![EMPTY; new_len]);
        self.mask = new_len - 1;
        for slot in old {
            if slot.index_plus_one == 0 {
                continue;
            }
            let mut pos = (slot.hash as usize) & self.mask;
            while self.table[pos].index_plus_one != 0 {
                pos = (pos + 1) & self.mask;
            }
            self.table[pos] = slot;
        }
    }
}

/// Hashes a slice of words with the [`FxHasher`], word by word (no length
/// prefix): the hash of a fixed-stride [`RowStore`] row.
pub(crate) fn fx_hash_words(words: &[u64]) -> u64 {
    let mut hasher = FxHasher::default();
    for &w in words {
        hasher.add_to_hash(w);
    }
    hasher.hash
}

/// An insertion-ordered arena of fixed-stride `u64` rows with an
/// open-addressed hash index: the state store of the throughput analysis
/// and of the unit-step walk, whose states pack into rows of one flat
/// vector.
///
/// A lookup hashes the candidate row and compares it word for word with
/// the stored rows its hash collides with; an insertion copies the row to
/// the end of the arena. Neither allocates while the arena and the table
/// have room, and [`Self::reset`] keeps both for the next analysis.
#[derive(Debug, Clone)]
pub(crate) struct RowStore {
    words: Vec<u64>,
    stride: usize,
    len: usize,
    index: HashIndex,
}

impl Default for RowStore {
    fn default() -> Self {
        RowStore {
            words: Vec::new(),
            stride: 0,
            len: 0,
            index: HashIndex::with_capacity(0),
        }
    }
}

impl RowStore {
    /// Empties the store for rows of `stride` words, keeping its
    /// allocations.
    pub(crate) fn reset(&mut self, stride: usize) {
        self.words.clear();
        self.stride = stride;
        self.len = 0;
        self.index.reset();
    }

    /// Number of stored rows.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Row `idx`, in insertion order.
    pub(crate) fn row(&self, idx: usize) -> &[u64] {
        &self.words[idx * self.stride..(idx + 1) * self.stride]
    }

    /// Probe statistics of every [`Self::intern`] call since the reset.
    pub(crate) fn probe_stats(&self) -> &ProbeStats {
        &self.index.probes
    }

    /// Looks `row` up, appending it when absent.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not exactly one stride long.
    pub(crate) fn intern(&mut self, row: &[u64]) -> Interned {
        assert_eq!(row.len(), self.stride, "row length must equal the stride");
        let hash = fx_hash_words(row);
        let (words, stride) = (&self.words, self.stride);
        match self
            .index
            .find(hash, |idx| &words[idx * stride..(idx + 1) * stride] == row)
        {
            Ok(idx) => Interned::Existing(idx),
            Err(slot) => {
                let idx = self.len;
                self.words.extend_from_slice(row);
                self.len += 1;
                self.index.insert_at(slot, hash, idx, self.len);
                Interned::Inserted(idx)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A bare [`HashIndex`] over an arena of `u64` keys, interning each
    /// key under a caller-chosen hash so that tests can force collisions.
    struct Keyed {
        keys: Vec<u64>,
        index: HashIndex,
    }

    impl Keyed {
        fn new() -> Keyed {
            Keyed {
                keys: Vec::new(),
                index: HashIndex::with_capacity(0),
            }
        }

        fn intern(&mut self, hash: u64, key: u64) -> Interned {
            let keys = &self.keys;
            match self.index.find(hash, |idx| keys[idx] == key) {
                Ok(idx) => Interned::Existing(idx),
                Err(slot) => {
                    let idx = self.keys.len();
                    self.keys.push(key);
                    self.index.insert_at(slot, hash, idx, self.keys.len());
                    Interned::Inserted(idx)
                }
            }
        }
    }

    #[test]
    fn fx_hash_is_deterministic_and_spreads() {
        let a = fx_hash(&vec![1u64, 2, 3]);
        let b = fx_hash(&vec![1u64, 2, 3]);
        assert_eq!(a, b);
        // Distinct short vectors should essentially never collide.
        let mut seen = std::collections::HashSet::new();
        for x in 0..64u64 {
            for y in 0..64u64 {
                seen.insert(fx_hash(&vec![x, y]));
            }
        }
        assert_eq!(seen.len(), 64 * 64);
    }

    #[test]
    fn intern_assigns_dense_indices_in_discovery_order() {
        let mut store = RowStore::default();
        store.reset(1);
        let got: Vec<Interned> = [10u64, 20, 30, 20, 10, 40]
            .iter()
            .map(|&v| store.intern(&[v]))
            .collect();
        use Interned::{Existing, Inserted};
        assert_eq!(
            got,
            [
                Inserted(0),
                Inserted(1),
                Inserted(2),
                Existing(1),
                Existing(0),
                Inserted(3)
            ]
        );
        assert_eq!(store.len(), 4);
        assert_eq!(store.row(2), &[30]);
    }

    #[test]
    fn grows_past_many_entries_and_matches_a_hashmap() {
        let mut store = RowStore::default();
        store.reset(2);
        let mut oracle: HashMap<[u64; 2], usize> = HashMap::new();
        // Insert with repeats in a fixed pseudo-random order.
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = [x % 512, (x >> 32) % 7];
            let next = oracle.len();
            let expected = *oracle.entry(key).or_insert(next);
            assert_eq!(store.intern(&key).index(), expected);
        }
        assert_eq!(store.len(), oracle.len());
        for (key, &idx) in &oracle {
            assert_eq!(store.row(idx), key);
        }
    }

    #[test]
    fn probe_stats_count_every_intern() {
        let mut keyed = Keyed::new();
        // Two direct-hit inserts at non-adjacent slots, then a re-lookup.
        keyed.intern(1, 1);
        keyed.intern(5, 5);
        keyed.intern(1, 1);
        // Forced collision: hash 1 again with a different key probes past
        // the occupied slot.
        keyed.intern(1, 9);
        let stats = keyed.index.probes;
        assert_eq!(stats.lookups, 4);
        assert_eq!(stats.max_probe, 2);
        assert_eq!(stats.probes, 1 + 1 + 1 + 2);
        assert_eq!(stats.tally[0], 3);
        assert_eq!(stats.tally[1], 1);
    }

    #[test]
    fn reset_reuses_allocations_and_reproduces_results() {
        let mut store = RowStore::default();
        store.reset(1);
        for v in 0..100u64 {
            store.intern(&[v]);
        }
        let grown_table = store.index.table.len();
        assert!(grown_table > 16, "store never grew");
        store.reset(1);
        assert_eq!(store.len(), 0);
        assert_eq!(store.probe_stats().lookups, 0);
        // The table keeps its grown size; re-interning reproduces the same
        // indices as a fresh store would.
        assert_eq!(store.index.table.len(), grown_table);
        let got: Vec<Interned> = [7u64, 3, 7].iter().map(|&v| store.intern(&[v])).collect();
        assert_eq!(
            got,
            [
                Interned::Inserted(0),
                Interned::Inserted(1),
                Interned::Existing(0)
            ]
        );
        assert_eq!(store.row(1), &[3]);
    }

    #[test]
    fn row_store_matches_a_hashmap_and_survives_resets() {
        // Fixed-stride rows with repeats, across a grow and two resets
        // with different strides: indices follow discovery order exactly
        // as an owned-key map assigns them.
        let mut store = RowStore::default();
        for stride in [3usize, 1, 5] {
            store.reset(stride);
            let mut oracle: HashMap<Vec<u64>, usize> = HashMap::new();
            let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ stride as u64;
            for _ in 0..2_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let row: Vec<u64> = (0..stride as u64).map(|i| (x >> (8 * i)) % 7).collect();
                let next = oracle.len();
                let expected = *oracle.entry(row.clone()).or_insert(next);
                assert_eq!(store.intern(&row).index(), expected);
            }
            assert_eq!(store.len(), oracle.len());
            for (row, &idx) in &oracle {
                assert_eq!(store.row(idx), row.as_slice());
            }
            assert_eq!(store.probe_stats().lookups, 2_000);
        }
    }

    #[test]
    fn row_hash_reads_every_word() {
        assert_eq!(fx_hash_words(&[4, 2]), fx_hash_words(&[4, 2]));
        assert_ne!(fx_hash_words(&[4, 2]), fx_hash_words(&[2, 4]));
        assert_ne!(fx_hash_words(&[4, 2, 0]), fx_hash_words(&[4, 2, 1]));
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn row_store_rejects_a_short_row() {
        let mut store = RowStore::default();
        store.reset(2);
        store.intern(&[1]);
    }

    #[test]
    fn colliding_hashes_are_separated_by_equality() {
        // Force both keys into the same slot by lying about the hash;
        // the equality test must still distinguish them.
        let mut keyed = Keyed::new();
        assert_eq!(keyed.intern(7, 1), Interned::Inserted(0));
        assert_eq!(keyed.intern(7, 2), Interned::Inserted(1));
        assert_eq!(keyed.intern(7, 1), Interned::Existing(0));
        assert_eq!(keyed.intern(7, 2), Interned::Existing(1));
    }
}
