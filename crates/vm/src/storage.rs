//! Runtime path-frequency counter storage: dense arrays and the paper's
//! 701-slot hash table with three probes and a lost-path counter (§7.4).

use ppp_ir::{Module, TableId, TableKind};

/// One counter table at runtime.
#[derive(Clone, Debug)]
pub enum CounterTable {
    /// Dense array of counters, indexed directly by path number.
    Array {
        /// Counter slots.
        counts: Vec<u64>,
        /// Paths whose index fell outside the array (should not happen for
        /// well-formed instrumentation; kept as a safety valve).
        lost: u64,
        /// Poisoned (negative-register) paths observed by checked counts.
        cold: u64,
    },
    /// Open-addressed hash table with bounded probing.
    Hash {
        /// `slots[i] = Some((key, count))` for occupied slots.
        slots: Vec<Option<(u64, u64)>>,
        /// Maximum probes before a path is recorded as lost.
        max_probes: u32,
        /// Paths lost to probe exhaustion.
        lost: u64,
        /// Poisoned (negative-register) paths observed by checked counts.
        cold: u64,
        /// Probe attempts that hit a slot occupied by a *different* key
        /// (each extra probe of the double-hash sequence counts once).
        /// This is the observability signal for 701×3 table pressure.
        collisions: u64,
    },
}

impl CounterTable {
    /// Creates an empty table for the given declaration kind.
    pub fn new(kind: TableKind) -> Self {
        match kind {
            TableKind::Array { size } => CounterTable::Array {
                counts: vec![0; usize::try_from(size).expect("array size fits usize")],
                lost: 0,
                cold: 0,
            },
            TableKind::Hash { slots, max_probes } => CounterTable::Hash {
                slots: vec![None; usize::try_from(slots).expect("slot count fits usize")],
                max_probes,
                lost: 0,
                cold: 0,
                collisions: 0,
            },
        }
    }

    /// Returns `true` for hash-backed tables.
    pub fn is_hash(&self) -> bool {
        matches!(self, CounterTable::Hash { .. })
    }

    /// Increments the counter for path number `key`.
    ///
    /// Negative keys are treated as poisoned and recorded in the cold
    /// counter (this is how the *checked* counting ops report poison; the
    /// unchecked ops never pass negative keys for well-formed free-poisoned
    /// instrumentation, but the behaviour is safe either way).
    ///
    /// All counters saturate at [`u64::MAX`]: a long-running profiled
    /// process degrades to a pinned (and detectable) counter rather than
    /// a debug-build overflow panic.
    pub fn bump(&mut self, key: i64) {
        if key < 0 {
            match self {
                CounterTable::Array { cold, .. } | CounterTable::Hash { cold, .. } => {
                    *cold = cold.saturating_add(1)
                }
            }
            return;
        }
        self.add(key as u64, 1);
    }

    /// Adds `count` to the counter for path number `key` (saturating).
    ///
    /// This is the bulk form of [`CounterTable::bump`]; fault injection
    /// uses it to preload a counter near [`u64::MAX`] so one more bump
    /// exercises the saturation path.
    pub fn add(&mut self, key: u64, count: u64) {
        match self {
            CounterTable::Array { counts, lost, .. } => match counts.get_mut(key as usize) {
                Some(c) => *c = c.saturating_add(count),
                None => *lost = lost.saturating_add(count),
            },
            CounterTable::Hash {
                slots,
                max_probes,
                lost,
                collisions,
                ..
            } => {
                let n = slots.len() as u64;
                debug_assert!(n >= 3, "hash table needs at least 3 slots");
                // Double hashing as in CLRS ch. 11 (the paper's citation
                // [15]): h(k, i) = (h1 + i * h2) mod n, h2 coprime-ish.
                // Since h2 < n, stepping by h2 and subtracting n once on
                // overflow walks the same sequence without a modulo per
                // probe.
                let mut idx = key % n;
                let h2 = 1 + key % (n - 2);
                for _ in 0..*max_probes {
                    let slot = &mut slots[idx as usize];
                    idx += h2;
                    if idx >= n {
                        idx -= n;
                    }
                    match slot {
                        Some((k, c)) if *k == key => {
                            *c = c.saturating_add(count);
                            return;
                        }
                        Some(_) => {
                            *collisions = collisions.saturating_add(1);
                            continue;
                        }
                        empty @ None => {
                            *empty = Some((key, count));
                            return;
                        }
                    }
                }
                *lost = lost.saturating_add(count);
            }
        }
    }

    /// Records a poisoned path (explicitly, for checked counting ops).
    pub fn bump_cold(&mut self) {
        match self {
            CounterTable::Array { cold, .. } | CounterTable::Hash { cold, .. } => {
                *cold = cold.saturating_add(1)
            }
        }
    }

    /// `true` when any counter has pinned at [`u64::MAX`].
    pub fn saturated(&self) -> bool {
        self.iter_counts().any(|(_, c)| c == u64::MAX)
    }

    /// Number of counters pinned at [`u64::MAX`].
    pub fn saturated_count(&self) -> u64 {
        self.iter_counts().filter(|&(_, c)| c == u64::MAX).count() as u64
    }

    /// Probe attempts that hit an occupied slot with a different key
    /// (always 0 for array tables).
    pub fn collisions(&self) -> u64 {
        match self {
            CounterTable::Array { .. } => 0,
            CounterTable::Hash { collisions, .. } => *collisions,
        }
    }

    /// Number of occupied slots (distinct paths actually stored).
    pub fn occupancy(&self) -> u64 {
        self.iter_counts().count() as u64
    }

    /// Iterates `(path number, count)` over all non-zero counters.
    pub fn iter_counts(&self) -> Box<dyn Iterator<Item = (u64, u64)> + '_> {
        match self {
            CounterTable::Array { counts, .. } => Box::new(
                counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| (i as u64, c)),
            ),
            CounterTable::Hash { slots, .. } => Box::new(slots.iter().flatten().copied()),
        }
    }

    /// Paths lost to probe exhaustion or out-of-range indices.
    pub fn lost(&self) -> u64 {
        match self {
            CounterTable::Array { lost, .. } | CounterTable::Hash { lost, .. } => *lost,
        }
    }

    /// Poisoned paths observed.
    pub fn cold(&self) -> u64 {
        match self {
            CounterTable::Array { cold, .. } | CounterTable::Hash { cold, .. } => *cold,
        }
    }

    /// Total counted flow (sum of all counters, excluding lost/cold).
    /// Saturating, so preloaded or pinned counters cannot overflow it.
    pub fn total(&self) -> u64 {
        self.iter_counts()
            .fold(0u64, |acc, (_, c)| acc.saturating_add(c))
    }
}

/// All counter tables of a module, indexed by [`TableId`].
#[derive(Clone, Debug, Default)]
pub struct ProfileStore {
    tables: Vec<CounterTable>,
}

impl ProfileStore {
    /// Allocates empty tables matching the module's declarations.
    pub fn for_module(module: &Module) -> Self {
        Self {
            tables: module
                .tables
                .iter()
                .map(|d| CounterTable::new(d.kind))
                .collect(),
        }
    }

    /// Returns the table with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn table(&self, id: TableId) -> &CounterTable {
        &self.tables[id.index()]
    }

    /// Returns the table with the given id, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn table_mut(&mut self, id: TableId) -> &mut CounterTable {
        &mut self.tables[id.index()]
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Returns `true` if there are no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total lost paths across all tables (saturating, like every
    /// counter total in the system: pinned tables must not wrap the sum).
    pub fn total_lost(&self) -> u64 {
        self.fold_tables(CounterTable::lost)
    }

    /// Total poisoned paths across all tables (saturating).
    pub fn total_cold(&self) -> u64 {
        self.fold_tables(CounterTable::cold)
    }

    /// Total hash-probe collisions across all tables (saturating).
    pub fn total_collisions(&self) -> u64 {
        self.fold_tables(CounterTable::collisions)
    }

    /// Total counters pinned at [`u64::MAX`] across all tables
    /// (saturating).
    pub fn total_saturated(&self) -> u64 {
        self.fold_tables(CounterTable::saturated_count)
    }

    fn fold_tables(&self, f: impl Fn(&CounterTable) -> u64) -> u64 {
        self.tables
            .iter()
            .fold(0u64, |acc, t| acc.saturating_add(f(t)))
    }

    /// Iterates over the tables.
    pub fn iter(&self) -> impl Iterator<Item = &CounterTable> {
        self.tables.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_counts_and_loses_out_of_range() {
        let mut t = CounterTable::new(TableKind::Array { size: 4 });
        t.bump(0);
        t.bump(3);
        t.bump(3);
        t.bump(4); // out of range
        assert_eq!(t.lost(), 1);
        assert_eq!(t.total(), 3);
        let counts: Vec<_> = t.iter_counts().collect();
        assert_eq!(counts, vec![(0, 1), (3, 2)]);
    }

    #[test]
    fn negative_keys_are_cold() {
        let mut t = CounterTable::new(TableKind::Array { size: 4 });
        t.bump(-100);
        t.bump_cold();
        assert_eq!(t.cold(), 2);
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn hash_counts_distinct_keys() {
        let mut t = CounterTable::new(TableKind::Hash {
            slots: 701,
            max_probes: 3,
        });
        for k in 0..500 {
            t.bump(k);
            t.bump(k);
        }
        assert_eq!(t.total() + t.lost() * 2, 1000);
        // With 500 keys in 701 slots and 3 probes, losses are rare.
        assert!(t.lost() < 50, "too many lost: {}", t.lost());
    }

    #[test]
    fn hash_exhaustion_counts_lost() {
        let mut t = CounterTable::new(TableKind::Hash {
            slots: 5,
            max_probes: 3,
        });
        // Saturate a tiny table.
        for k in 0..100 {
            t.bump(k);
        }
        assert!(t.lost() > 0);
        assert_eq!(t.total() + t.lost(), 100);
    }

    #[test]
    fn hash_collisions_are_counted() {
        let mut t = CounterTable::new(TableKind::Hash {
            slots: 701,
            max_probes: 3,
        });
        // Distinct keys, no pressure yet: first insert may or may not
        // collide, but the same key again never adds collisions.
        t.bump(1);
        let after_first = t.collisions();
        t.bump(1);
        assert_eq!(t.collisions(), after_first);
        // Force collisions: key and key+701 share h1.
        t.bump(2);
        t.bump(2 + 701);
        assert!(t.collisions() > after_first);
        assert_eq!(
            CounterTable::new(TableKind::Array { size: 4 }).collisions(),
            0
        );
    }

    #[test]
    fn probe_walk_matches_the_double_hash_formula() {
        // The textbook form, one modulo per probe: slot, collision and
        // loss accounting must match it key for key.
        fn reference(slots: &mut [Option<(u64, u64)>], key: u64) -> (u64, bool) {
            let n = slots.len() as u64;
            let (h1, h2) = (key % n, 1 + key % (n - 2));
            let mut collisions = 0;
            for i in 0..3 {
                match &mut slots[((h1 + i * h2) % n) as usize] {
                    Some((k, c)) if *k == key => {
                        *c += 1;
                        return (collisions, false);
                    }
                    Some(_) => collisions += 1,
                    empty @ None => {
                        *empty = Some((key, 1));
                        return (collisions, false);
                    }
                }
            }
            (collisions, true)
        }
        for n in [3u64, 5, 13, 701] {
            let mut t = CounterTable::new(TableKind::Hash {
                slots: n,
                max_probes: 3,
            });
            let mut slots = vec![None; n as usize];
            let (mut collisions, mut lost) = (0, 0);
            let mut key = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..4 * n {
                key = key
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let k = (key >> 33) % (8 * n);
                let (c, l) = reference(&mut slots, k);
                collisions += c;
                lost += u64::from(l);
                t.bump(k as i64);
            }
            let CounterTable::Hash { slots: got, .. } = &t else {
                unreachable!("hash table")
            };
            assert_eq!(got, &slots, "{n} slots");
            assert_eq!(t.collisions(), collisions, "{n} slots");
            assert_eq!(t.lost(), lost, "{n} slots");
        }
    }

    #[test]
    fn saturated_and_occupancy_counts() {
        let mut t = CounterTable::new(TableKind::Array { size: 4 });
        t.add(0, u64::MAX);
        t.add(1, u64::MAX);
        t.bump(2);
        assert_eq!(t.saturated_count(), 2);
        assert_eq!(t.occupancy(), 3);
    }

    #[test]
    fn hash_same_key_accumulates() {
        let mut t = CounterTable::new(TableKind::Hash {
            slots: 701,
            max_probes: 3,
        });
        for _ in 0..10 {
            t.bump(12345);
        }
        assert_eq!(t.iter_counts().collect::<Vec<_>>(), vec![(12345, 10)]);
    }

    #[test]
    fn counters_saturate_instead_of_overflowing() {
        let mut t = CounterTable::new(TableKind::Array { size: 2 });
        t.add(0, u64::MAX - 1);
        assert!(!t.saturated());
        t.bump(0);
        assert!(t.saturated());
        t.bump(0); // would overflow without saturation
        assert_eq!(t.iter_counts().next(), Some((0, u64::MAX)));
        assert_eq!(t.total(), u64::MAX);

        let mut h = CounterTable::new(TableKind::Hash {
            slots: 7,
            max_probes: 3,
        });
        h.add(5, u64::MAX);
        h.bump(5);
        assert!(h.saturated());
        assert_eq!(h.iter_counts().collect::<Vec<_>>(), vec![(5, u64::MAX)]);
    }

    #[test]
    fn store_builds_from_module() {
        use ppp_ir::{FunctionBuilder, TableDecl};
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", 0);
        b.ret(None);
        let f = m.add_function(b.finish());
        let a = m.add_table(TableDecl {
            func: f,
            kind: TableKind::Array { size: 8 },
            hot_paths: 8,
        });
        let h = m.add_table(TableDecl {
            func: f,
            kind: TableKind::Hash {
                slots: 701,
                max_probes: 3,
            },
            hot_paths: 5000,
        });
        let mut s = ProfileStore::for_module(&m);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(!s.table(a).is_hash());
        assert!(s.table(h).is_hash());
        s.table_mut(a).bump(1);
        assert_eq!(s.table(a).total(), 1);
        assert_eq!(s.total_lost(), 0);
    }
}
