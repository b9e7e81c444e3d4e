//! A fixed-capacity LRU map for finished search responses.
//!
//! Discovery workloads repeat: the same query table is probed against the
//! corpus again and again (interactive exploration, retried requests,
//! dashboards). A search that cost dozens of matcher calls is worth
//! remembering. Each loaded index is immutable, so a cached response stays
//! valid until `/admin/reload` swaps the index (the server then clears the
//! cache); short of that, capacity is the only eviction reason.
//!
//! Implementation: a `HashMap` from key to slot index plus a doubly-linked
//! recency list threaded through a slab of slots, so `get` (with
//! promotion), `insert`, and eviction are all O(1) and nothing is ever
//! shifted. The slab only ever grows to `capacity`: once full, an insert
//! evicts the tail slot and reuses it in place. The cache itself is
//! policy-free — hit/miss/eviction counters are recorded by the caller
//! (the server), which knows the metric names.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A least-recently-used map with a hard capacity.
#[derive(Debug)]
pub struct Lru<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// An empty cache holding at most `capacity` entries (min 1; a
    /// capacity-0 cache is spelled "don't construct one").
    pub fn new(capacity: usize) -> Lru<K, V> {
        let capacity = capacity.max(1);
        Lru {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks `key` up and, on a hit, promotes it to most-recently-used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        Some(&self.slots[idx].value)
    }

    /// Inserts (or replaces) `key`, promoting it to most-recently-used.
    /// Returns the evicted least-recently-used entry when the insert
    /// pushed the cache over capacity.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = value;
            self.detach(idx);
            self.attach_front(idx);
            return None;
        }
        if self.map.len() == self.capacity {
            let idx = self.tail;
            self.detach(idx);
            self.map.remove(&self.slots[idx].key);
            let slot = &mut self.slots[idx];
            let old = (
                std::mem::replace(&mut slot.key, key.clone()),
                std::mem::replace(&mut slot.value, value),
            );
            self.map.insert(key, idx);
            self.attach_front(idx);
            Some(old)
        } else {
            self.slots.push(Slot {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            let idx = self.slots.len() - 1;
            self.map.insert(key, idx);
            self.attach_front(idx);
            None
        }
    }

    /// Drops every entry, keeping the configured capacity. Used when the
    /// server swaps in a different index: every cached response was
    /// computed against the old corpus and would silently serve stale
    /// results.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Keys from most- to least-recently-used (test/debug visibility into
    /// the recency order; O(len)).
    pub fn keys_mru_first(&self) -> Vec<K> {
        let mut keys = Vec::with_capacity(self.map.len());
        let mut idx = self.head;
        while idx != NIL {
            keys.push(self.slots[idx].key.clone());
            idx = self.slots[idx].next;
        }
        keys
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn attach_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.slots[h].prev = idx,
        }
        self.head = idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_recency_order() {
        let mut lru = Lru::new(2);
        assert!(lru.is_empty());
        assert_eq!(lru.insert("a", 1), None);
        assert_eq!(lru.insert("b", 2), None);
        assert_eq!(lru.insert("c", 3), Some(("a", 1)), "a was least recent");
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&"a"), None);
        assert_eq!(lru.get(&"b"), Some(&2));
        assert_eq!(lru.get(&"c"), Some(&3));
    }

    #[test]
    fn get_promotes_to_most_recent() {
        let mut lru = Lru::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.get(&"a"), Some(&1)); // touch a → b becomes LRU
        assert_eq!(lru.insert("c", 3), Some(("b", 2)));
        assert_eq!(lru.keys_mru_first(), vec!["c", "a"]);
    }

    #[test]
    fn reinsert_replaces_and_promotes() {
        let mut lru = Lru::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(lru.insert("a", 10), None, "replacement never evicts");
        assert_eq!(lru.get(&"a"), Some(&10));
        assert_eq!(lru.insert("c", 3), Some(("b", 2)), "a was promoted");
    }

    #[test]
    fn capacity_one_thrashes_correctly() {
        let mut lru = Lru::new(1);
        assert_eq!(lru.capacity(), 1);
        assert_eq!(lru.insert("a", 1), None);
        assert_eq!(lru.insert("b", 2), Some(("a", 1)));
        assert_eq!(lru.insert("c", 3), Some(("b", 2)));
        assert_eq!(lru.keys_mru_first(), vec!["c"]);
    }

    #[test]
    fn clear_empties_but_keeps_working() {
        let mut lru = Lru::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.get(&"a"), None);
        assert_eq!(lru.capacity(), 2);
        // the recency list is rebuilt correctly after a clear
        assert_eq!(lru.insert("c", 3), None);
        assert_eq!(lru.insert("d", 4), None);
        assert_eq!(lru.insert("e", 5), Some(("c", 3)));
        assert_eq!(lru.keys_mru_first(), vec!["e", "d"]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut lru = Lru::new(0);
        assert_eq!(lru.capacity(), 1);
        assert_eq!(lru.insert("a", 1), None);
        assert_eq!(lru.get(&"a"), Some(&1));
    }
}
