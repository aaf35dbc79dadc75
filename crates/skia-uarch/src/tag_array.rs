//! A generic set-associative tag array with true-LRU replacement and
//! caller-controlled victim preference.
//!
//! Caches, the BTB and Skia's Shadow Branch Buffer are all tag arrays that
//! differ only in what they store per entry and in how they pick victims
//! (the SBB prefers evicting entries whose *retired* bit is clear, §4.3).
//! This type factors out the shared mechanics.
//!
//! The array is stored by field: tags, recency stamps and values in
//! separate vectors, way `w` of set `s` at index `s * ways + w` of each. A
//! way scan reads only the set's tags (one cache line for an 8-way set),
//! plus the stamp of a matching way. A stamp of 0 marks an invalid way;
//! the recency clock starts at 1 and ticks on every access and insert, so
//! the stamps of valid ways are unique and the LRU way is unambiguous.

/// A set-associative array of `V` values keyed by `(set, tag)`.
///
/// The number of sets does not have to be a power of two (the paper's R-SBB
/// has 2024 entries at 4 ways = 506 sets); callers map addresses to sets with
/// [`TagArray::set_of`], which reduces modulo the set count.
#[derive(Debug, Clone)]
pub struct TagArray<V> {
    sets: usize,
    ways: usize,
    /// `sets - 1` when `sets` is a power of two, else 0 — lets [`set_of`]
    /// replace the 64-bit modulo with an AND on the common configurations
    /// (every cache and BTB here; only the R-SBB's 506 sets fall back).
    ///
    /// [`set_of`]: TagArray::set_of
    set_mask: u64,
    tags: Vec<u64>,
    /// Last-use tick per way; 0 for an invalid way.
    stamps: Vec<u64>,
    /// `Some` exactly where the stamp is non-zero.
    values: Vec<Option<V>>,
    tick: u64,
}

impl<V> TagArray<V> {
    /// Create an array of `sets × ways` invalid slots.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    #[must_use]
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0, "tag array needs at least one set");
        assert!(ways > 0, "tag array needs at least one way");
        let mut values = Vec::new();
        values.resize_with(sets * ways, || None);
        TagArray {
            sets,
            ways,
            set_mask: if sets.is_power_of_two() {
                sets as u64 - 1
            } else {
                0
            },
            tags: vec![0; sets * ways],
            stamps: vec![0; sets * ways],
            values,
            tick: 0,
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of ways.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total number of entry slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of currently valid entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stamps.iter().filter(|&&s| s != 0).count()
    }

    /// Whether no entry is valid.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stamps.iter().all(|&s| s == 0)
    }

    /// Map a key to its set index: a mask when the set count is a power of
    /// two (identical result to the modulo, without the 64-bit division in
    /// the lookup hot path), modulo reduction otherwise.
    #[must_use]
    pub fn set_of(&self, key: u64) -> usize {
        if self.set_mask != 0 {
            (key & self.set_mask) as usize
        } else {
            (key % self.sets as u64) as usize
        }
    }

    /// Index of the valid way of `set` holding `tag`.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        debug_assert!(set < self.sets);
        let ways = set * self.ways..(set + 1) * self.ways;
        let stamps = &self.stamps[ways.clone()];
        self.tags[ways]
            .iter()
            .zip(stamps)
            .position(|(&t, &stamp)| t == tag && stamp != 0)
            .map(|w| set * self.ways + w)
    }

    /// Look up without updating recency (a *probe* in hardware terms).
    #[must_use]
    pub fn probe(&self, set: usize, tag: u64) -> Option<&V> {
        self.values[self.find(set, tag)?].as_ref()
    }

    /// Look up and update recency on hit.
    pub fn access(&mut self, set: usize, tag: u64) -> Option<&mut V> {
        self.tick += 1;
        let i = self.find(set, tag)?;
        self.stamps[i] = self.tick;
        self.values[i].as_mut()
    }

    /// Get a mutable reference without a recency update.
    pub fn peek_mut(&mut self, set: usize, tag: u64) -> Option<&mut V> {
        let i = self.find(set, tag)?;
        self.values[i].as_mut()
    }

    /// Insert (or overwrite) an entry using plain LRU victim selection.
    ///
    /// Returns the evicted `(tag, value)` if a valid entry was displaced.
    pub fn insert(&mut self, set: usize, tag: u64, value: V) -> Option<(u64, V)> {
        self.insert_with(set, tag, value, |_| false)
    }

    /// Insert with a victim *preference*: among valid candidates, entries for
    /// which `prefer_evict` returns `true` are victimized first (oldest such
    /// entry); only if none qualifies does plain LRU apply. Invalid slots are
    /// always used before any eviction.
    ///
    /// This implements the SBB's retired-bit policy: pass
    /// `|e| !e.retired` so never-committed ("possibly bogus") entries leave
    /// first (paper §4.3).
    pub fn insert_with(
        &mut self,
        set: usize,
        tag: u64,
        value: V,
        prefer_evict: impl Fn(&V) -> bool,
    ) -> Option<(u64, V)> {
        // Overwrite on tag match.
        if let Some(i) = self.find(set, tag) {
            self.tick += 1;
            self.stamps[i] = self.tick;
            return self.values[i].replace(value).map(|old| (tag, old));
        }
        self.insert_absent_with(set, tag, value, prefer_evict)
    }

    /// Insert `tag`, which the caller knows `set` does not hold, with plain
    /// LRU victim selection — [`TagArray::insert`] without the tag-match
    /// scan.
    pub(crate) fn insert_absent(&mut self, set: usize, tag: u64, value: V) -> Option<(u64, V)> {
        debug_assert!(self.find(set, tag).is_none(), "tag already resident");
        self.insert_absent_with(set, tag, value, |_| false)
    }

    /// The victim scan: the first free way, else the oldest way for which
    /// `prefer_evict` holds, else the oldest way.
    fn insert_absent_with(
        &mut self,
        set: usize,
        tag: u64,
        value: V,
        prefer_evict: impl Fn(&V) -> bool,
    ) -> Option<(u64, V)> {
        self.tick += 1;
        let start = set * self.ways;
        let stamps = &self.stamps[start..start + self.ways];
        // The oldest way; a free way (stamp 0) is older than any valid one,
        // and the first free way wins among several.
        let (mut victim, mut oldest) = (0, stamps[0]);
        for (w, &s) in stamps.iter().enumerate().skip(1) {
            if s < oldest {
                (victim, oldest) = (w, s);
            }
        }
        if oldest != 0 {
            // The set is full: the oldest preferred way, if any.
            let mut preferred: Option<usize> = None;
            for (w, &s) in stamps.iter().enumerate() {
                let candidate = self.values[start + w].as_ref().is_some_and(&prefer_evict);
                if candidate && preferred.is_none_or(|p| s < stamps[p]) {
                    preferred = Some(w);
                }
            }
            victim = preferred.unwrap_or(victim);
        }
        let i = start + victim;
        let old_tag = std::mem::replace(&mut self.tags[i], tag);
        self.stamps[i] = self.tick;
        self.values[i].replace(value).map(|old| (old_tag, old))
    }

    /// Remove an entry, returning its value.
    pub fn invalidate(&mut self, set: usize, tag: u64) -> Option<V> {
        let i = self.find(set, tag)?;
        self.stamps[i] = 0;
        self.values[i].take()
    }

    /// Clear all entries.
    pub fn clear(&mut self) {
        self.stamps.fill(0);
        self.values.iter_mut().for_each(|v| *v = None);
    }

    /// Iterate over all valid `(set, tag, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64, &V)> + '_ {
        self.values
            .iter()
            .enumerate()
            .filter_map(move |(i, v)| v.as_ref().map(|v| (i / self.ways, self.tags[i], v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_of_mask_matches_modulo() {
        // Power-of-two set counts take the mask path; it must agree with
        // the plain modulo for every key, including the R-SBB's 506 sets
        // (non-power-of-two fallback) and the single-set degenerate case.
        for sets in [1usize, 2, 64, 506, 512, 1024] {
            let a: TagArray<u8> = TagArray::new(sets, 1);
            for key in (0u64..4096).chain([u64::MAX, u64::MAX - 1, 1 << 63]) {
                assert_eq!(a.set_of(key), (key % sets as u64) as usize, "sets={sets}");
            }
        }
    }

    #[test]
    fn insert_and_probe() {
        let mut a: TagArray<u32> = TagArray::new(4, 2);
        assert!(a.is_empty());
        assert_eq!(a.insert(1, 100, 7), None);
        assert_eq!(a.probe(1, 100), Some(&7));
        assert_eq!(a.probe(1, 101), None);
        assert_eq!(a.probe(2, 100), None);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn overwrite_returns_old_value() {
        let mut a: TagArray<u32> = TagArray::new(2, 2);
        a.insert(0, 5, 1);
        assert_eq!(a.insert(0, 5, 2), Some((5, 1)));
        assert_eq!(a.probe(0, 5), Some(&2));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut a: TagArray<&str> = TagArray::new(1, 2);
        a.insert(0, 1, "one");
        a.insert(0, 2, "two");
        // Touch tag 1 so tag 2 becomes LRU.
        assert!(a.access(0, 1).is_some());
        let evicted = a.insert(0, 3, "three");
        assert_eq!(evicted, Some((2, "two")));
        assert!(a.probe(0, 1).is_some());
        assert!(a.probe(0, 3).is_some());
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut a: TagArray<u8> = TagArray::new(1, 2);
        a.insert(0, 1, 0);
        a.insert(0, 2, 0);
        // probe (not access) of tag 1: tag 1 stays LRU and is evicted.
        assert!(a.probe(0, 1).is_some());
        let evicted = a.insert(0, 3, 0);
        assert_eq!(evicted.map(|e| e.0), Some(1));
    }

    #[test]
    fn preferred_victims_evicted_first_even_if_recent() {
        #[derive(Debug, PartialEq)]
        struct E {
            retired: bool,
        }
        let mut a: TagArray<E> = TagArray::new(1, 2);
        a.insert(0, 1, E { retired: true });
        a.insert(0, 2, E { retired: false }); // newer but not retired
        let evicted = a.insert_with(0, 3, E { retired: false }, |e| !e.retired);
        assert_eq!(evicted.map(|e| e.0), Some(2), "non-retired evicted first");
    }

    #[test]
    fn preference_falls_back_to_lru_when_no_preferred_candidate() {
        #[derive(Debug)]
        struct E {
            retired: bool,
        }
        let mut a: TagArray<E> = TagArray::new(1, 2);
        a.insert(0, 1, E { retired: true });
        a.insert(0, 2, E { retired: true });
        let evicted = a.insert_with(0, 3, E { retired: false }, |e| !e.retired);
        assert_eq!(evicted.map(|e| e.0), Some(1), "plain LRU fallback");
    }

    #[test]
    fn invalidate_removes() {
        let mut a: TagArray<u8> = TagArray::new(2, 2);
        a.insert(1, 9, 42);
        assert_eq!(a.invalidate(1, 9), Some(42));
        assert_eq!(a.invalidate(1, 9), None);
        assert!(a.is_empty());
    }

    #[test]
    fn non_power_of_two_sets() {
        // R-SBB shape: 506 sets × 4 ways = 2024 entries.
        let mut a: TagArray<u8> = TagArray::new(506, 4);
        assert_eq!(a.capacity(), 2024);
        for key in 0..5000u64 {
            let set = a.set_of(key);
            assert!(set < 506);
            a.insert(set, key, 0);
        }
        assert!(a.len() <= 2024);
    }

    #[test]
    fn iter_reports_sets() {
        let mut a: TagArray<u8> = TagArray::new(4, 1);
        a.insert(3, 77, 5);
        let items: Vec<_> = a.iter().collect();
        assert_eq!(items, vec![(3usize, 77u64, &5u8)]);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_sets_rejected() {
        let _ = TagArray::<u8>::new(0, 1);
    }

    #[test]
    fn clear_empties() {
        let mut a: TagArray<u8> = TagArray::new(2, 2);
        a.insert(0, 1, 1);
        a.insert(1, 2, 2);
        a.clear();
        assert!(a.is_empty());
    }
}
