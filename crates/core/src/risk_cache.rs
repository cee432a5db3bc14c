//! Per-decision resident-set table for LibraRisk's node loop.
//!
//! LibraRisk evaluates `σ_j` for "node j + candidate" on every node for
//! every arriving job. Within one decision a node's verdict depends only
//! on its resident set and speed (the candidate, `now` and the
//! discipline are fixed), so nodes holding the same set share one
//! evaluation: [`SetTable`] maps each distinct set to the verdict of the
//! first node evaluated with it. The table is an open-addressing map
//! (linear probing, power-of-two capacity, multiplicative hash) that
//! [`SetTable::begin`] clears in O(1) by bumping a generation, so the
//! loop pays one probe per node and allocates only to grow.

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
