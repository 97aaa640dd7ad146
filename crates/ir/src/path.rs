//! Acyclic intraprocedural paths and path profiles.
//!
//! A *path* in the Ball–Larus sense (§3.1 of the paper) starts at the
//! function entry or at a loop header (immediately after a back edge is
//! taken), and ends at a `return` or with a taken back edge. Calls do not
//! end paths: the caller's path is deferred across the call.
//!
//! [`PathKey`] identifies a path by its start block and the sequence of CFG
//! edges taken, *including* the terminating back edge when the path ends at
//! one. This representation is shared by the VM's exact tracer (ground
//! truth) and by `ppp-core`'s decoded measured/estimated profiles, so the
//! two sides compare paths without agreeing on any particular numbering.

use crate::function::Function;
use crate::ids::{BlockId, EdgeRef, FuncId};
use std::collections::HashMap;

/// Identity of one acyclic intraprocedural path.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PathKey {
    /// First block of the path (function entry or a loop header).
    pub start: BlockId,
    /// CFG edges taken, in order, including the terminating back edge if
    /// the path ends at one. Empty for a single-block path that returns.
    pub edges: Vec<EdgeRef>,
}

impl PathKey {
    /// Number of *branches* on the path: taken edges whose source block has
    /// at least two CFG successors (§5.1's definition of a branch).
    pub fn branch_count(&self, f: &Function) -> u32 {
        self.edges
            .iter()
            .filter(|e| f.block(e.from).term.successor_count() >= 2)
            .count() as u32
    }

    /// Blocks visited by the path, in order, derived from the edges.
    ///
    /// When the path ends with a back edge, the back edge's target (the
    /// loop header) is *not* included; it belongs to the next path.
    pub fn blocks(&self, f: &Function) -> Vec<BlockId> {
        let mut out = vec![self.start];
        for (i, e) in self.edges.iter().enumerate() {
            debug_assert_eq!(e.from, *out.last().expect("non-empty"));
            let tgt = f.edge_target(*e);
            let is_last = i + 1 == self.edges.len();
            // The terminating edge may be a back edge, whose target starts
            // the *next* path; detect that by target repetition.
            if is_last && out.contains(&tgt) {
                break;
            }
            out.push(tgt);
        }
        out
    }
}

/// Statistics recorded for one path.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PathStats {
    /// Execution count.
    pub freq: u64,
    /// Branches on the path (cached [`PathKey::branch_count`]).
    pub branches: u32,
}

impl PathStats {
    /// Branch flow of this path: `freq * branches` (§5.1). Saturating, so
    /// a saturated frequency degrades to [`u64::MAX`] instead of a
    /// debug-build overflow panic.
    pub fn branch_flow(&self) -> u64 {
        self.freq.saturating_mul(u64::from(self.branches))
    }

    /// Unit flow of this path: just `freq` (§5.1).
    pub fn unit_flow(&self) -> u64 {
        self.freq
    }
}

/// Path profile of a single function.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FuncPathProfile {
    /// Paths and their statistics.
    pub paths: HashMap<PathKey, PathStats>,
}

impl FuncPathProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `freq` executions of `key` (computing the branch count from
    /// `f` if the path is new). Counts saturate at [`u64::MAX`] instead
    /// of overflowing.
    pub fn record(&mut self, f: &Function, key: PathKey, freq: u64) {
        let branches = key.branch_count(f);
        self.add(key, PathStats { freq, branches });
    }

    /// Adds `stats.freq` executions of `key`, taking ownership of the
    /// key; a path new to the profile keeps `stats.branches`. Counts
    /// saturate at [`u64::MAX`].
    pub fn add(&mut self, key: PathKey, stats: PathStats) {
        let e = self.paths.entry(key).or_insert(PathStats {
            freq: 0,
            branches: stats.branches,
        });
        e.freq = e.freq.saturating_add(stats.freq);
    }

    /// Adds every path of `delta`, moving its keys in rather than
    /// cloning them (saturating, as [`FuncPathProfile::merge`]).
    pub fn absorb(&mut self, delta: FuncPathDelta) {
        for (key, stats) in delta.paths {
            self.add(key, stats);
        }
    }

    /// Total branch flow over all paths (saturating).
    pub fn total_branch_flow(&self) -> u64 {
        self.paths
            .values()
            .fold(0u64, |acc, s| acc.saturating_add(s.branch_flow()))
    }

    /// Total unit flow (dynamic path count) over all paths (saturating).
    pub fn total_unit_flow(&self) -> u64 {
        self.paths
            .values()
            .fold(0u64, |acc, s| acc.saturating_add(s.unit_flow()))
    }

    /// Merges `other` into `self`, adding frequencies path by path.
    /// Counts saturate at [`u64::MAX`] instead of wrapping, which makes
    /// the merge commutative *and* associative — any merge order over
    /// any partition of deltas produces the same profile.
    pub fn merge(&mut self, other: &FuncPathProfile) {
        for (key, stats) in &other.paths {
            self.add(key.clone(), *stats);
        }
    }

    /// `true` when any path's frequency has pinned at [`u64::MAX`].
    pub fn saturated(&self) -> bool {
        self.paths.values().any(|s| s.freq == u64::MAX)
    }

    /// Drops every recorded path (used to quarantine a function whose
    /// path data cannot be trusted).
    pub fn clear(&mut self) {
        self.paths.clear();
    }

    /// Number of distinct paths recorded.
    pub fn distinct_paths(&self) -> usize {
        self.paths.len()
    }
}

/// The path records of one function's section of a path delta, decoded
/// for the shard that owns the function (see
/// [`crate::decode_path_delta`]), in record order. A path recorded twice
/// appears twice; absorbing sums it, as the dense loaders do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuncPathDelta {
    func: FuncId,
    paths: Vec<(PathKey, PathStats)>,
}

impl FuncPathDelta {
    pub(crate) fn new(func: FuncId) -> Self {
        Self {
            func,
            paths: Vec::new(),
        }
    }

    /// Appends one path record as the parser reads it.
    pub(crate) fn push(&mut self, key: PathKey, stats: PathStats) {
        self.paths.push((key, stats));
    }

    /// Every path of `p`, the profile of function `func`, taken by move.
    pub fn from_profile(func: FuncId, p: FuncPathProfile) -> Self {
        Self {
            func,
            paths: p.paths.into_iter().collect(),
        }
    }

    /// The function the paths belong to.
    pub fn func(&self) -> FuncId {
        self.func
    }

    /// `true` when the delta holds no path.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }
}

/// Path profiles for every function in a module.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ModulePathProfile {
    /// Per-function profiles, indexed by [`FuncId`].
    pub funcs: Vec<FuncPathProfile>,
}

impl ModulePathProfile {
    /// Creates an empty profile with one slot per function.
    pub fn with_capacity(func_count: usize) -> Self {
        Self {
            funcs: vec![FuncPathProfile::new(); func_count],
        }
    }

    /// Profile of function `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[inline]
    pub fn func(&self, f: FuncId) -> &FuncPathProfile {
        &self.funcs[f.index()]
    }

    /// Profile of function `f`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[inline]
    pub fn func_mut(&mut self, f: FuncId) -> &mut FuncPathProfile {
        &mut self.funcs[f.index()]
    }

    /// Merges `other` into `self` function by function (saturating; see
    /// [`FuncPathProfile::merge`]).
    ///
    /// # Panics
    ///
    /// Panics if the profiles have different function counts.
    pub fn merge(&mut self, other: &ModulePathProfile) {
        assert_eq!(
            self.funcs.len(),
            other.funcs.len(),
            "merging path profiles of different shapes"
        );
        for (a, b) in self.funcs.iter_mut().zip(&other.funcs) {
            a.merge(b);
        }
    }

    /// Program-wide branch flow (saturating).
    pub fn total_branch_flow(&self) -> u64 {
        self.funcs
            .iter()
            .fold(0u64, |acc, f| acc.saturating_add(f.total_branch_flow()))
    }

    /// Program-wide unit flow (total dynamic paths, saturating).
    pub fn total_unit_flow(&self) -> u64 {
        self.funcs
            .iter()
            .fold(0u64, |acc, f| acc.saturating_add(f.total_unit_flow()))
    }

    /// Total distinct paths across all functions.
    pub fn distinct_paths(&self) -> usize {
        self.funcs.iter().map(FuncPathProfile::distinct_paths).sum()
    }

    /// `true` when any function's path counts have saturated.
    pub fn saturated(&self) -> bool {
        self.funcs.iter().any(FuncPathProfile::saturated)
    }

    /// Iterates `(function, key, stats)` over all recorded paths.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, &PathKey, &PathStats)> {
        self.funcs
            .iter()
            .enumerate()
            .flat_map(|(i, fp)| fp.paths.iter().map(move |(k, s)| (FuncId::new(i), k, s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionBuilder;
    use crate::ids::Reg;

    /// entry(0) --cond--> b1 | b2; both -> b3(loop hdr); b3 -> b3(back) | b4(ret)
    fn looped() -> Function {
        let mut b = FunctionBuilder::new("f", 1);
        let b1 = b.new_block();
        let b2 = b.new_block();
        let b3 = b.new_block();
        let b4 = b.new_block();
        b.branch(Reg(0), b1, b2);
        b.switch_to(b1);
        b.jump(b3);
        b.switch_to(b2);
        b.jump(b3);
        b.switch_to(b3);
        b.branch(Reg(0), b3, b4);
        b.switch_to(b4);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn branch_count_counts_multi_successor_sources() {
        let f = looped();
        // entry -> b1 -> b3 -> (back to b3): entry edge is a branch, b1->b3
        // is not, the back edge b3->b3 is a branch.
        let key = PathKey {
            start: BlockId(0),
            edges: vec![
                EdgeRef::new(BlockId(0), 0),
                EdgeRef::new(BlockId(1), 0),
                EdgeRef::new(BlockId(3), 0),
            ],
        };
        assert_eq!(key.branch_count(&f), 2);
    }

    #[test]
    fn blocks_excludes_next_path_header() {
        let f = looped();
        let key = PathKey {
            start: BlockId(0),
            edges: vec![
                EdgeRef::new(BlockId(0), 0),
                EdgeRef::new(BlockId(1), 0),
                EdgeRef::new(BlockId(3), 0), // back edge to b3 itself
            ],
        };
        assert_eq!(key.blocks(&f), vec![BlockId(0), BlockId(1), BlockId(3)]);
        // A path ending at return includes the final block.
        let ret = PathKey {
            start: BlockId(3),
            edges: vec![EdgeRef::new(BlockId(3), 1)],
        };
        assert_eq!(ret.blocks(&f), vec![BlockId(3), BlockId(4)]);
    }

    #[test]
    fn record_accumulates_and_flows() {
        let f = looped();
        let mut p = FuncPathProfile::new();
        let key = PathKey {
            start: BlockId(3),
            edges: vec![EdgeRef::new(BlockId(3), 0)],
        };
        p.record(&f, key.clone(), 5);
        p.record(&f, key.clone(), 3);
        let s = p.paths[&key];
        assert_eq!(s.freq, 8);
        assert_eq!(s.branches, 1);
        assert_eq!(s.branch_flow(), 8);
        assert_eq!(p.total_branch_flow(), 8);
        assert_eq!(p.total_unit_flow(), 8);
        assert_eq!(p.distinct_paths(), 1);
    }

    #[test]
    fn merge_saturates_and_is_order_independent() {
        let f = looped();
        let key = PathKey {
            start: BlockId(3),
            edges: vec![EdgeRef::new(BlockId(3), 0)],
        };
        let other = PathKey {
            start: BlockId(3),
            edges: vec![EdgeRef::new(BlockId(3), 1)],
        };
        let mut near_max = FuncPathProfile::new();
        near_max.record(&f, key.clone(), u64::MAX - 1);
        let mut small = FuncPathProfile::new();
        small.record(&f, key.clone(), 7);
        small.record(&f, other.clone(), 3);

        // a ⊔ b == b ⊔ a, and the hot path pins at MAX instead of wrapping.
        let mut ab = near_max.clone();
        ab.merge(&small);
        let mut ba = small.clone();
        ba.merge(&near_max);
        assert_eq!(ab, ba);
        assert_eq!(ab.paths[&key].freq, u64::MAX);
        assert_eq!(ab.paths[&other].freq, 3);
        assert!(ab.saturated());
        // Totals over saturated entries stay saturating, not wrapping.
        assert_eq!(ab.total_unit_flow(), u64::MAX);

        let mut mp = ModulePathProfile::with_capacity(1);
        mp.funcs[0] = ab;
        assert_eq!(mp.total_unit_flow(), u64::MAX);
        assert_eq!(mp.total_branch_flow(), u64::MAX);
        let mut other_mp = ModulePathProfile::with_capacity(1);
        other_mp.funcs[0] = small;
        mp.merge(&other_mp);
        assert_eq!(mp.funcs[0].paths[&key].freq, u64::MAX);
    }

    #[test]
    fn module_profile_aggregates() {
        let f = looped();
        let mut mp = ModulePathProfile::with_capacity(2);
        let key = PathKey {
            start: BlockId(0),
            edges: vec![EdgeRef::new(BlockId(0), 1), EdgeRef::new(BlockId(2), 0)],
        };
        mp.func_mut(FuncId(0)).record(&f, key.clone(), 2);
        mp.func_mut(FuncId(1)).record(&f, key, 1);
        assert_eq!(mp.total_unit_flow(), 3);
        assert_eq!(mp.distinct_paths(), 2);
        assert_eq!(mp.iter().count(), 2);
        // One branch each (the entry branch edge).
        assert_eq!(mp.total_branch_flow(), 3);
    }
}
