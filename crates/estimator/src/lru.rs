//! The byte-budgeted LRU map behind the planner's caches: the estimator's
//! curve cache and the core crate's structural plan cache.

use std::collections::HashMap;
use std::hash::Hash;

/// A map bounded by the approximate bytes of its entries.
///
/// Each insert accounts the entry's bytes (as given by the caller, plus the
/// slot's own size) and then evicts least-recently-used entries until the
/// total fits the budget. Recency is a logical clock: every insert and every
/// hit stamps its slot with the next tick, so eviction orders slots by tick
/// without a linked list. The budget is a hard bound — even a just-inserted
/// entry, which carries the freshest tick and therefore goes last, is dropped
/// when it alone exceeds the budget.
#[derive(Debug)]
pub struct ByteLru<K, V> {
    slots: HashMap<K, Slot<V>>,
    /// Byte budget; [`usize::MAX`] disables eviction.
    budget: usize,
    bytes: usize,
    clock: u64,
    evictions: usize,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    bytes: usize,
    tick: u64,
}

/// An empty, unbounded map.
impl<K, V> Default for ByteLru<K, V> {
    fn default() -> Self {
        Self {
            slots: HashMap::new(),
            budget: usize::MAX,
            bytes: 0,
            clock: 0,
            evictions: 0,
        }
    }
}

impl<K, V> ByteLru<K, V> {
    /// Bytes charged per entry on top of the caller-given size: the slot's
    /// own footprint.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Slot<V>>();
}

impl<K: Hash + Eq + Clone, V> ByteLru<K, V> {
    /// Looks up `key`, stamping a hit as the most recently used entry.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = self.slots.get_mut(key)?;
        self.clock += 1;
        slot.tick = self.clock;
        Some(&slot.value)
    }

    /// Inserts `value` under `key` (replacing any previous entry), accounts
    /// `bytes` plus the slot overhead, and evicts down to the budget.
    pub fn insert(&mut self, key: K, value: V, bytes: usize) {
        self.clock += 1;
        let slot = Slot {
            value,
            bytes: bytes + Self::SLOT_BYTES,
            tick: self.clock,
        };
        self.bytes += slot.bytes;
        if let Some(old) = self.slots.insert(key, slot) {
            self.bytes -= old.bytes;
        }
        self.evict_to_budget();
    }

    /// Sets the byte budget, evicting immediately if the map exceeds it.
    pub fn set_budget(&mut self, budget: usize) {
        self.budget = budget;
        self.evict_to_budget();
    }

    fn evict_to_budget(&mut self) {
        while self.bytes > self.budget {
            let Some(oldest) = self
                .slots
                .iter()
                .min_by_key(|(_, slot)| slot.tick)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            let slot = self.slots.remove(&oldest).expect("oldest key is present");
            self.bytes -= slot.bytes;
            self.evictions += 1;
        }
    }

    /// Drops every entry (the eviction counter is kept).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.bytes = 0;
    }

    /// The current byte budget ([`usize::MAX`] when unbounded).
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Approximate bytes currently held.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Number of entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no entry is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Entries evicted to stay within the budget over the map's lifetime.
    #[must_use]
    pub fn evictions(&self) -> usize {
        self.evictions
    }

    /// The keys currently held, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.slots.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SLOT: usize = ByteLru::<u32, u32>::SLOT_BYTES;

    #[test]
    fn evicts_least_recently_used_first() {
        let mut lru = ByteLru::default();
        lru.set_budget(2 * (10 + SLOT));
        lru.insert(1u32, 10u32, 10);
        lru.insert(2, 20, 10);
        assert_eq!(lru.bytes(), 2 * (10 + SLOT));
        // A hit makes key 1 the freshest, so key 2 is the victim.
        assert_eq!(lru.get(&1), Some(&10));
        lru.insert(3, 30, 10);
        assert_eq!(lru.evictions(), 1);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(&10));
        assert_eq!(lru.get(&3), Some(&30));
    }

    #[test]
    fn replacing_an_entry_reaccounts_its_bytes() {
        let mut lru = ByteLru::default();
        lru.insert(1u32, 1u32, 100);
        lru.insert(1, 2, 40);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.bytes(), 40 + SLOT);
        assert_eq!(lru.get(&1), Some(&2));
    }

    #[test]
    fn budget_is_hard_even_against_a_fresh_oversized_entry() {
        let mut lru = ByteLru::default();
        for key in 0..8u32 {
            lru.insert(key, key, 10);
        }
        assert_eq!(lru.budget(), usize::MAX, "unbounded by default");
        lru.set_budget(4 * (10 + SLOT));
        assert_eq!(lru.len(), 4);
        assert_eq!(lru.evictions(), 4);
        // The oldest four went; the newest four stayed.
        assert!((4..8).all(|key| lru.get(&key).is_some()));
        lru.insert(99, 99, 1_000);
        assert!(lru.get(&99).is_none(), "an entry over budget is not kept");
        assert!(lru.bytes() <= lru.budget());
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.bytes(), 0);
    }
}
