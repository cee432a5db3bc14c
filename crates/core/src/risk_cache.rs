//! Exact-result memoisation for per-node risk evaluations.
//!
//! LibraRisk evaluates `σ_j` for "node j + candidate" on every node for
//! every arriving job. Between engine changes a node's resident state is
//! frozen (pinned by its epoch counter), so the evaluation result is a
//! pure function of the candidate's `(remaining_est, abs_deadline)`
//! pair. [`CandidateMemo`] caches those results **exactly** — keys are
//! the raw `f64` bit patterns and values are previously computed kernel
//! outputs — so a hit replays a bit-identical answer and can never flip
//! a decision relative to the from-scratch path.
//!
//! The map is a tiny open-addressing table (linear probing, power-of-two
//! capacity, fx-style multiplicative hash) rather than `std::HashMap`:
//! the admission loop performs one lookup per node per decision, and
//! SipHash dominates at that grain.
//!
//! The epoch contract extends to node churn: `fail_node`/`restore_node`
//! bump the failed node's epoch (and the global epoch), so any memo keyed
//! to the pre-fault resident state is discarded on the next decision —
//! a fault can never replay a stale risk summary.
//!
//! [`SetTable`] is the per-decision companion: within one decision it
//! maps each distinct resident set to the verdict of the first node
//! evaluated with it, so nodes holding the same set share one
//! evaluation.

use cluster::projection::RiskSummary;

/// Sentinel meaning "slot empty". `u64::MAX` is the bit pattern of a NaN
/// with a set sign bit and full payload; candidate estimates and
/// deadlines are always finite, so no real key collides with it.
const EMPTY_KEY: (u64, u64) = (u64::MAX, u64::MAX);

/// Hard cap on stored entries. A workload whose candidates never repeat
/// would otherwise grow the table without bound; past the cap the memo
/// is cleared and refilled (the table is per-node scratch, not state —
/// dropping it only costs recomputation).
const MAX_ENTRIES: usize = 4096;

#[derive(Clone, Copy, Debug)]
struct Slot {
    key: (u64, u64),
    value: RiskSummary,
}

const VACANT: Slot = Slot {
    key: EMPTY_KEY,
    value: RiskSummary::EMPTY,
};

/// An exact-key memo from candidate signature
/// `(remaining_est.to_bits(), abs_deadline.to_bits())` to the
/// [`RiskSummary`] the projection kernel produced for that candidate on
/// one node's frozen resident state.
#[derive(Clone, Debug, Default)]
pub struct CandidateMemo {
    slots: Vec<Slot>,
    len: usize,
}

#[inline]
fn hash(key: (u64, u64)) -> u64 {
    // fx-style multiplicative mix; plenty for bit patterns of similar
    // floats, which differ in low mantissa bits.
    (key.0.rotate_left(26) ^ key.1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl CandidateMemo {
    /// An empty memo; the table is allocated on first insert.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached candidate evaluations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every cached entry (keeps the allocation).
    pub fn clear(&mut self) {
        self.slots.fill(VACANT);
        self.len = 0;
    }

    /// Looks up a previously stored summary for this exact key.
    pub fn get(&self, key: (u64, u64)) -> Option<RiskSummary> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash(key) as usize & mask;
        loop {
            let s = &self.slots[i];
            if s.key == key {
                return Some(s.value);
            }
            if s.key == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Stores `value` under `key` (overwrites an existing entry bitwise —
    /// by construction both are the same kernel output).
    pub fn insert(&mut self, key: (u64, u64), value: RiskSummary) {
        if self.len >= MAX_ENTRIES {
            self.clear();
        }
        if self.slots.len() < 2 * (self.len + 1) {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash(key) as usize & mask;
        loop {
            let s = &mut self.slots[i];
            if s.key == key {
                s.value = value;
                return;
            }
            if s.key == EMPTY_KEY {
                *s = Slot { key, value };
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![VACANT; new_cap]);
        let mask = new_cap - 1;
        for s in old {
            if s.key == EMPTY_KEY {
                continue;
            }
            let mut i = hash(s.key) as usize & mask;
            while self.slots[i].key != EMPTY_KEY {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct SetSlot {
    key: u64,
    /// Generation the entry was written in; any other value marks the
    /// slot vacant, so [`SetTable::begin`] clears the table in O(1).
    generation: u64,
    /// Node whose resident set the verdict was computed for.
    rep: u32,
    suitable: bool,
}

const SET_VACANT: SetSlot = SetSlot {
    key: 0,
    generation: 0,
    rep: 0,
    suitable: false,
};

/// Per-decision resident-set table: `(set hash, speed)` key → the first
/// node evaluated with that key (the *representative*) and its verdict.
///
/// Keys are 64-bit hashes, so two different sets may share one. A
/// lookup therefore asks the caller to confirm each key-matching
/// representative against the node at hand and takes the first that
/// confirms; an insert after a failed confirmation adds a second entry
/// under the same key. A collision can only cost an evaluation, never
/// hand one set another set's verdict.
#[derive(Clone, Debug, Default)]
pub struct SetTable {
    slots: Vec<SetSlot>,
    generation: u64,
    len: usize,
}

impl SetTable {
    /// An empty table; storage is allocated by the first
    /// [`SetTable::begin`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new decision: drops every entry (by bumping the
    /// generation) and sizes the table so that `capacity` inserts keep
    /// it at most half full.
    pub fn begin(&mut self, capacity: usize) {
        self.generation += 1;
        self.len = 0;
        let cap = (2 * capacity).next_power_of_two().max(16);
        if self.slots.len() < cap {
            self.slots = vec![SET_VACANT; cap];
        }
    }

    /// The verdict of the first entry under `key` whose representative
    /// `confirm` accepts.
    pub fn get(&self, key: u64, mut confirm: impl FnMut(u32) -> bool) -> Option<bool> {
        let mask = self.slots.len() - 1;
        let mut i = index(key, mask);
        while self.slots[i].generation == self.generation {
            let s = &self.slots[i];
            if s.key == key && confirm(s.rep) {
                return Some(s.suitable);
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Records `rep`'s verdict under `key`. Call only after a
    /// [`SetTable::get`] miss for the same node, so no entry holds its
    /// set, and at most `capacity` times per [`SetTable::begin`].
    pub fn insert(&mut self, key: u64, rep: u32, suitable: bool) {
        assert!(
            2 * self.len < self.slots.len(),
            "more inserts than begin() sized for"
        );
        let mask = self.slots.len() - 1;
        let mut i = index(key, mask);
        while self.slots[i].generation == self.generation {
            i = (i + 1) & mask;
        }
        self.slots[i] = SetSlot {
            key,
            generation: self.generation,
            rep,
            suitable,
        };
        self.len += 1;
    }
}

#[inline]
fn index(key: u64, mask: usize) -> usize {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize & mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(mu: f64) -> RiskSummary {
        RiskSummary {
            count: 1,
            dd_sum: mu,
            dd_sq_sum: mu * mu,
            mu,
            sigma: 0.0,
        }
    }

    #[test]
    fn get_insert_roundtrip() {
        let mut m = CandidateMemo::new();
        let k = (1.5f64.to_bits(), 200.0f64.to_bits());
        assert!(m.get(k).is_none());
        m.insert(k, summary(2.0));
        assert!(m.get(k).unwrap().bits_eq(&summary(2.0)));
        assert_eq!(m.len(), 1);
        // Overwrite keeps len stable.
        m.insert(k, summary(2.0));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn survives_growth_with_many_keys() {
        let mut m = CandidateMemo::new();
        let keys: Vec<(u64, u64)> = (0..500)
            .map(|i| {
                (
                    (100.0 + i as f64).to_bits(),
                    (900.0 + i as f64 * 7.0).to_bits(),
                )
            })
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            m.insert(k, summary(i as f64));
        }
        assert_eq!(m.len(), 500);
        for (i, &k) in keys.iter().enumerate() {
            assert!(m.get(k).unwrap().bits_eq(&summary(i as f64)), "key {i}");
        }
        assert!(m.get((7u64, 7u64)).is_none());
    }

    #[test]
    fn clears_when_cap_is_hit() {
        let mut m = CandidateMemo::new();
        for i in 0..(MAX_ENTRIES + 10) {
            m.insert(((i as u64) << 1, i as u64), summary(1.0));
        }
        assert!(m.len() <= MAX_ENTRIES, "cap enforced, len {}", m.len());
        assert!(!m.is_empty());
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn set_table_keeps_colliding_sets_apart_and_clears() {
        let mut t = SetTable::new();
        t.begin(4);
        // Nodes 3 and 8 hold different sets under one key; each
        // representative confirms only for its own set.
        let set_of = |node: u32| node % 2;
        assert_eq!(t.get(7, |rep| set_of(rep) == set_of(3)), None);
        t.insert(7, 3, true);
        assert_eq!(t.get(7, |rep| set_of(rep) == set_of(8)), None);
        t.insert(7, 8, false);
        assert_eq!(t.get(7, |rep| set_of(rep) == set_of(5)), Some(true));
        assert_eq!(t.get(7, |rep| set_of(rep) == set_of(10)), Some(false));
        t.begin(4);
        assert_eq!(t.get(7, |_| true), None);
    }

    #[test]
    fn set_table_holds_its_capacity() {
        let mut t = SetTable::new();
        for _ in 0..3 {
            t.begin(600);
            for i in 0..600u32 {
                t.insert(u64::from(i).wrapping_mul(0x1234_5678_9abc), i, i % 3 == 0);
            }
            for i in 0..600u32 {
                let key = u64::from(i).wrapping_mul(0x1234_5678_9abc);
                assert_eq!(t.get(key, |rep| rep == i), Some(i % 3 == 0), "set {i}");
            }
        }
    }
}
