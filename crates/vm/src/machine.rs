//! The interpreter.
//!
//! A small register-machine interpreter over [`ppp_ir`] modules with an
//! explicit frame stack (no host recursion), a deterministic input stream,
//! a cost model, optional exact tracing, and profile counter storage for
//! instrumented code. Each run first lowers the module into one flat
//! array of pre-decoded ops, so the loop never looks up a function, a
//! block or a table kind, and keeps every activation's registers in one
//! arena, so a call allocates nothing.

use crate::cost::CostModel;
use crate::rng::SplitMix64;
use crate::storage::ProfileStore;
use crate::trace::{PathCursor, TraceFaults, Tracer};
use ppp_ir::{
    BinOp, BlockId, EdgeRef, FuncId, Inst, Module, ModuleEdgeProfile, ModulePathProfile, ProfOp,
    Terminator, UnOp,
};
use std::fmt;

/// Why a run stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HaltReason {
    /// The entry function returned.
    Finished,
    /// The dynamic step budget was exhausted.
    StepLimit,
    /// The call stack exceeded the configured depth.
    CallDepthLimit,
}

/// Errors preventing a run from starting.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VmError {
    /// The named entry function does not exist.
    NoSuchFunction {
        /// The missing name.
        name: String,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::NoSuchFunction { name } => write!(f, "no function named {name:?}"),
        }
    }
}

impl std::error::Error for VmError {}

/// Run configuration.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Seed for the synthetic input stream ([`ppp_ir::Inst::Rand`]).
    pub seed: u64,
    /// Dynamic step budget (instructions + terminators, including
    /// instrumentation); the run halts with [`HaltReason::StepLimit`] when
    /// exhausted.
    pub max_steps: u64,
    /// Global memory size in 64-bit words; addresses wrap.
    pub mem_words: usize,
    /// Collect edge and exact path profiles.
    pub trace: bool,
    /// Additionally record the *ordered* stream of completed paths
    /// (implies nothing unless `trace` is set; memory: one entry per
    /// dynamic path). Consumed by online predictors such as NET.
    pub trace_sequence: bool,
    /// Cost model.
    pub cost: CostModel,
    /// Maximum call-stack depth.
    pub max_call_depth: usize,
    /// Deterministic trace-event dropping (fault injection; only
    /// meaningful when `trace` is set).
    pub trace_faults: Option<TraceFaults>,
    /// Cut an incremental [`ProfileDelta`](crate::trace::ProfileDelta) every this many trace events
    /// (0 = keep the whole profile until exit; only meaningful when
    /// `trace` is set). Merging a run's deltas reproduces its cumulative
    /// profiles exactly.
    pub delta_interval: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            seed: 0x5EED,
            max_steps: 200_000_000,
            mem_words: 1 << 16,
            trace: false,
            trace_sequence: false,
            cost: CostModel::default(),
            max_call_depth: 512,
            trace_faults: None,
            delta_interval: 0,
        }
    }
}

impl RunOptions {
    /// Returns options with tracing enabled.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Returns options with tracing and path-sequence recording enabled.
    pub fn traced_with_sequence(mut self) -> Self {
        self.trace = true;
        self.trace_sequence = true;
        self
    }

    /// Returns options with the given seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns options that drop trace events per `faults` (implies
    /// nothing unless tracing is also enabled).
    pub fn with_trace_faults(mut self, faults: TraceFaults) -> Self {
        self.trace_faults = Some(faults);
        self
    }

    /// Returns options that cut an incremental profile delta every
    /// `interval` trace events (implies nothing unless tracing is
    /// enabled).
    pub fn with_delta_interval(mut self, interval: u64) -> Self {
        self.delta_interval = interval;
        self
    }
}

/// The outcome of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Why the run stopped.
    pub halt: HaltReason,
    /// Order-sensitive checksum of all `emit`ted values; instrumentation
    /// and semantics-preserving optimizations must not change it.
    pub checksum: u64,
    /// Total cost units, including instrumentation.
    pub cost: u64,
    /// Cost units spent on profiling instrumentation only.
    pub prof_cost: u64,
    /// Dynamic step count (instructions + terminators, incl. prof ops).
    pub steps: u64,
    /// Dynamic profiling ops executed.
    pub prof_steps: u64,
    /// Number of calls executed (including the entry invocation).
    pub calls: u64,
    /// Runtime path-counter tables (instrumented runs).
    pub store: ProfileStore,
    /// Exact edge profile (when tracing).
    pub edge_profile: Option<ModuleEdgeProfile>,
    /// Exact path profile (when tracing).
    pub path_profile: Option<ModulePathProfile>,
    /// Ordered stream of completed paths (when `trace_sequence` was set).
    pub path_sequence: Vec<(FuncId, ppp_ir::PathKey)>,
    /// `(edge events, path completions)` dropped by injected trace faults
    /// (always `(0, 0)` without [`RunOptions::trace_faults`]).
    pub trace_events_dropped: (u64, u64),
    /// Incremental profile deltas cut during the run (empty without
    /// [`RunOptions::delta_interval`]); merging them reproduces
    /// `edge_profile`/`path_profile` exactly.
    pub deltas: Vec<crate::trace::ProfileDelta>,
}

impl RunResult {
    /// Cost units spent on the program itself (excluding instrumentation).
    pub fn program_cost(&self) -> u64 {
        self.cost - self.prof_cost
    }

    /// Runtime overhead of instrumentation relative to `baseline` cost:
    /// `cost / baseline - 1`, or `None` when `baseline` is zero (a
    /// degenerate benchmark — e.g. an entry function that halts before
    /// retiring any costed instruction). Callers that know their baseline
    /// is live should `expect` the value; pipeline code records a
    /// `ppp_degenerate_baseline_total` metric instead of panicking.
    pub fn overhead_vs(&self, baseline: u64) -> Option<f64> {
        if baseline == 0 {
            return None;
        }
        Some(self.cost as f64 / baseline as f64 - 1.0)
    }

    /// Records this run's VM-level observables into a metrics registry.
    ///
    /// Everything recorded here is read from counters the interpreter
    /// already maintains — the hot loop is untouched, so calling this (or
    /// not) cannot perturb the measured run.
    pub fn record_metrics(&self, reg: &ppp_obs::Registry, labels: &[(&str, &str)]) {
        reg.inc_by("ppp_vm_steps_total", labels, self.steps);
        reg.inc_by("ppp_vm_prof_steps_total", labels, self.prof_steps);
        reg.inc_by("ppp_vm_cost_units_total", labels, self.cost);
        reg.inc_by("ppp_vm_prof_cost_units_total", labels, self.prof_cost);
        reg.inc_by("ppp_vm_calls_total", labels, self.calls);
        let (edges, paths) = self.trace_events_dropped;
        reg.inc_by("ppp_vm_trace_edge_events_dropped_total", labels, edges);
        reg.inc_by("ppp_vm_trace_path_events_dropped_total", labels, paths);
        reg.inc_by("ppp_vm_paths_lost_total", labels, self.store.total_lost());
        reg.inc_by("ppp_vm_paths_cold_total", labels, self.store.total_cold());
        reg.inc_by(
            "ppp_vm_hash_collisions_total",
            labels,
            self.store.total_collisions(),
        );
        reg.inc_by(
            "ppp_vm_counters_saturated_total",
            labels,
            self.store.total_saturated(),
        );
        for table in self.store.iter() {
            if table.is_hash() {
                reg.observe("ppp_vm_hash_occupancy", labels, table.occupancy());
            }
        }
    }
}

/// Sentinel register index: a call that discards its result, or a
/// `return` without a value.
const NO_REG: u32 = u32::MAX;

/// One operation of the lowered form: an [`Inst`] or a [`Terminator`]
/// with registers as plain indices, jump targets resolved to code
/// offsets, and profiling costs resolved from the table kinds.
#[derive(Clone, Copy, Debug)]
enum Op {
    Const {
        dst: u32,
        value: i64,
    },
    Copy {
        dst: u32,
        src: u32,
    },
    Unary {
        dst: u32,
        op: UnOp,
        src: u32,
    },
    Binary {
        dst: u32,
        op: BinOp,
        lhs: u32,
        rhs: u32,
    },
    Load {
        dst: u32,
        addr: u32,
    },
    Store {
        addr: u32,
        src: u32,
    },
    Rand {
        dst: u32,
        bound: u32,
    },
    Emit {
        src: u32,
    },
    /// Argument registers are `pool[args..args + argc]`.
    Call {
        dst: u32,
        callee: u32,
        args: u32,
        argc: u32,
    },
    Prof {
        op: ProfOp,
        cost: u64,
    },
    Jump {
        target: BlockId,
        pc: u32,
    },
    Branch {
        cond: u32,
        then_target: BlockId,
        then_pc: u32,
        else_target: BlockId,
        else_pc: u32,
    },
    /// In-range targets are `pool[targets..targets + len]`; the default
    /// follows them.
    Switch {
        disc: u32,
        targets: u32,
        len: u32,
    },
    Return {
        value: u32,
    },
}

/// A module lowered for execution: every function's blocks laid out in
/// one code array, each block's instructions followed by its terminator.
struct Program {
    code: Vec<Op>,
    /// Call arguments (registers) and switch targets (blocks).
    pool: Vec<u32>,
    funcs: Vec<LoweredFn>,
}

struct LoweredFn {
    /// `block_pc[b]` is the offset in `code` of block `b`'s first op.
    block_pc: Vec<u32>,
    entry: BlockId,
    reg_count: u32,
}

impl Program {
    fn lower(module: &Module, cost: &CostModel) -> Self {
        let mut p = Program {
            code: Vec::with_capacity(module.size()),
            pool: Vec::new(),
            funcs: Vec::with_capacity(module.functions.len()),
        };
        for f in &module.functions {
            let mut block_pc = Vec::with_capacity(f.blocks.len());
            let mut pc = p.code.len();
            for b in &f.blocks {
                block_pc.push(u32::try_from(pc).expect("code fits u32 offsets"));
                pc += b.len_with_term();
            }
            let pc_of = |b: BlockId| block_pc[b.index()];
            for b in &f.blocks {
                for inst in &b.insts {
                    let op = match inst {
                        Inst::Const { dst, value } => Op::Const {
                            dst: dst.0,
                            value: *value,
                        },
                        Inst::Copy { dst, src } => Op::Copy {
                            dst: dst.0,
                            src: src.0,
                        },
                        Inst::Unary { dst, op, src } => Op::Unary {
                            dst: dst.0,
                            op: *op,
                            src: src.0,
                        },
                        Inst::Binary { dst, op, lhs, rhs } => Op::Binary {
                            dst: dst.0,
                            op: *op,
                            lhs: lhs.0,
                            rhs: rhs.0,
                        },
                        Inst::Load { dst, addr } => Op::Load {
                            dst: dst.0,
                            addr: addr.0,
                        },
                        Inst::Store { addr, src } => Op::Store {
                            addr: addr.0,
                            src: src.0,
                        },
                        Inst::Rand { dst, bound } => Op::Rand {
                            dst: dst.0,
                            bound: bound.0,
                        },
                        Inst::Emit { src } => Op::Emit { src: src.0 },
                        Inst::Call { dst, callee, args } => {
                            let at = p.pool.len() as u32;
                            p.pool.extend(args.iter().map(|r| r.0));
                            Op::Call {
                                dst: dst.map_or(NO_REG, |r| r.0),
                                callee: callee.0,
                                args: at,
                                argc: args.len() as u32,
                            }
                        }
                        Inst::Prof(op) => {
                            let is_hash =
                                op.table().is_some_and(|t| module.table(t).kind.is_hash());
                            Op::Prof {
                                op: *op,
                                cost: cost.prof_cost(*op, is_hash),
                            }
                        }
                    };
                    p.code.push(op);
                }
                let op = match &b.term {
                    Terminator::Jump { target } => Op::Jump {
                        target: *target,
                        pc: pc_of(*target),
                    },
                    Terminator::Branch {
                        cond,
                        then_target,
                        else_target,
                    } => Op::Branch {
                        cond: cond.0,
                        then_target: *then_target,
                        then_pc: pc_of(*then_target),
                        else_target: *else_target,
                        else_pc: pc_of(*else_target),
                    },
                    Terminator::Switch {
                        disc,
                        targets,
                        default,
                    } => {
                        let at = p.pool.len() as u32;
                        p.pool.extend(targets.iter().chain([default]).map(|b| b.0));
                        Op::Switch {
                            disc: disc.0,
                            targets: at,
                            len: targets.len() as u32,
                        }
                    }
                    Terminator::Return { value } => Op::Return {
                        value: value.map_or(NO_REG, |r| r.0),
                    },
                };
                p.code.push(op);
            }
            p.funcs.push(LoweredFn {
                block_pc,
                entry: f.entry,
                reg_count: f.reg_count,
            });
        }
        p
    }
}

/// A suspended activation. The running one's position lives in the
/// interpreter loop's locals and is written back only when it calls.
struct Frame {
    func: FuncId,
    block: BlockId,
    pc: usize,
    /// Offset of the activation's registers in the register arena.
    base: usize,
    path_r: i64,
    ret_dst: u32,
    cursor: Option<PathCursor>,
}

/// Runs `module` starting at its function named `entry`.
///
/// # Errors
///
/// Returns [`VmError::NoSuchFunction`] if `entry` does not name a function.
///
/// # Examples
///
/// ```
/// use ppp_ir::{FunctionBuilder, Module};
/// use ppp_vm::{run, RunOptions};
///
/// let mut b = FunctionBuilder::new("main", 0);
/// let c = b.constant(41);
/// b.emit(c);
/// b.ret(Some(c));
/// let mut m = Module::new();
/// m.add_function(b.finish());
///
/// let result = run(&m, "main", &RunOptions::default())?;
/// assert_eq!(result.halt, ppp_vm::HaltReason::Finished);
/// # Ok::<(), ppp_vm::VmError>(())
/// ```
pub fn run(module: &Module, entry: &str, options: &RunOptions) -> Result<RunResult, VmError> {
    let entry_id = module
        .function_by_name(entry)
        .ok_or_else(|| VmError::NoSuchFunction {
            name: entry.to_owned(),
        })?;
    Ok(run_func(module, entry_id, options))
}

/// Runs `module` starting at `entry` (which receives zeroed arguments).
pub fn run_func(module: &Module, entry: FuncId, options: &RunOptions) -> RunResult {
    Interp::new(module, options).run(entry)
}

struct Interp<'m> {
    module: &'m Module,
    opts: &'m RunOptions,
    mem: Vec<i64>,
    rng: SplitMix64,
    checksum: u64,
    cost: u64,
    prof_cost: u64,
    steps: u64,
    prof_steps: u64,
    calls: u64,
    store: ProfileStore,
    tracer: Option<Tracer>,
    stack: Vec<Frame>,
    /// Every activation's registers, innermost last; its length is the
    /// innermost activation's base plus its register count.
    arena: Vec<i64>,
}

impl<'m> Interp<'m> {
    fn new(module: &'m Module, opts: &'m RunOptions) -> Self {
        Self {
            module,
            opts,
            mem: vec![0; opts.mem_words.max(1)],
            rng: SplitMix64::new(opts.seed),
            checksum: 0,
            cost: 0,
            prof_cost: 0,
            steps: 0,
            prof_steps: 0,
            calls: 0,
            store: ProfileStore::for_module(module),
            tracer: opts.trace.then(|| {
                let mut t = Tracer::new(module);
                if opts.trace_sequence {
                    t.record_sequence();
                }
                if let Some(f) = opts.trace_faults {
                    t.inject_faults(f);
                }
                if opts.delta_interval > 0 {
                    t.enable_deltas(module, opts.delta_interval);
                }
                t
            }),
            stack: Vec::new(),
            arena: Vec::new(),
        }
    }

    /// Enters `func`, copying the caller's registers `args` (read at
    /// `caller_base`) into its first registers.
    fn push_frame(
        &mut self,
        prog: &Program,
        func: FuncId,
        caller_base: usize,
        args: &[u32],
        ret_dst: u32,
    ) {
        let f = &prog.funcs[func.index()];
        let base = self.arena.len();
        let n = f.reg_count as usize;
        self.arena.resize(base + n, 0);
        for (i, &a) in args.iter().take(n).enumerate() {
            self.arena[base + i] = self.arena[caller_base + a as usize];
        }
        let cursor = self
            .tracer
            .as_mut()
            .map(|t| t.enter_function(func, f.entry));
        self.calls += 1;
        self.stack.push(Frame {
            func,
            block: f.entry,
            pc: f.block_pc[f.entry.index()] as usize,
            base,
            path_r: 0,
            ret_dst,
            cursor,
        });
    }

    fn run(mut self, entry: FuncId) -> RunResult {
        let prog = Program::lower(self.module, &self.opts.cost);
        self.push_frame(&prog, entry, 0, &[], NO_REG);
        let halt = self.exec(&prog);
        let (edge_profile, path_profile, path_sequence, trace_events_dropped, deltas) =
            match self.tracer {
                Some(t) => {
                    let dropped = t.dropped_events();
                    let (e, p, s, d) = t.finish_full(self.module);
                    (Some(e), Some(p), s, dropped, d)
                }
                None => (None, None, Vec::new(), (0, 0), Vec::new()),
            };
        RunResult {
            halt,
            checksum: self.checksum,
            cost: self.cost,
            prof_cost: self.prof_cost,
            steps: self.steps,
            prof_steps: self.prof_steps,
            calls: self.calls,
            store: self.store,
            edge_profile,
            path_profile,
            path_sequence,
            trace_events_dropped,
            deltas,
        }
    }

    /// The interpreter loop. Steps and costs are counted per op, so a
    /// budget can stop a run anywhere inside a block.
    fn exec(&mut self, prog: &Program) -> HaltReason {
        let CostModel {
            basic,
            memory,
            rand,
            call,
            terminator,
            ..
        } = self.opts.cost;
        let (max_steps, max_depth) = (self.opts.max_steps, self.opts.max_call_depth);
        let mem_len = self.mem.len() as i64;
        // Addresses wrap Euclidean; for a power-of-two size that is a mask.
        let mask = (mem_len.count_ones() == 1).then_some(mem_len - 1);
        let wrap = |a: i64| match mask {
            Some(m) => (a & m) as usize,
            None => a.rem_euclid(mem_len) as usize,
        };
        let (mut steps, mut cost, mut prof_steps, mut prof_cost, mut checksum) = (
            self.steps,
            self.cost,
            self.prof_steps,
            self.prof_cost,
            self.checksum,
        );
        let halt = 'frames: loop {
            let top = self.stack.last().expect("non-empty stack in loop");
            let (func, base) = (top.func, top.base);
            let (mut pc, mut block, mut path_r, mut cursor) =
                (top.pc, top.block, top.path_r, top.cursor);
            let block_pc = &prog.funcs[func.index()].block_pc;
            let regs = &mut self.arena[base..];
            loop {
                if steps >= max_steps {
                    break 'frames HaltReason::StepLimit;
                }
                steps += 1;
                let op = prog.code[pc];
                pc += 1;
                // Terminators set `(successor index, target, target pc)`;
                // every other op continues straight on.
                let (s, target, to) = match op {
                    Op::Const { dst, value } => {
                        cost += basic;
                        regs[dst as usize] = value;
                        continue;
                    }
                    Op::Copy { dst, src } => {
                        cost += basic;
                        regs[dst as usize] = regs[src as usize];
                        continue;
                    }
                    Op::Unary { dst, op, src } => {
                        cost += basic;
                        regs[dst as usize] = op.eval(regs[src as usize]);
                        continue;
                    }
                    Op::Binary { dst, op, lhs, rhs } => {
                        cost += basic;
                        regs[dst as usize] = op.eval(regs[lhs as usize], regs[rhs as usize]);
                        continue;
                    }
                    Op::Load { dst, addr } => {
                        cost += memory;
                        regs[dst as usize] = self.mem[wrap(regs[addr as usize])];
                        continue;
                    }
                    Op::Store { addr, src } => {
                        cost += memory;
                        self.mem[wrap(regs[addr as usize])] = regs[src as usize];
                        continue;
                    }
                    Op::Rand { dst, bound } => {
                        cost += rand;
                        regs[dst as usize] = self.rng.below(regs[bound as usize]);
                        continue;
                    }
                    Op::Emit { src } => {
                        cost += basic;
                        checksum = checksum
                            .rotate_left(13)
                            .wrapping_add(regs[src as usize] as u64 ^ 0x9E37_79B9_7F4A_7C15);
                        continue;
                    }
                    Op::Prof { op, cost: c } => {
                        prof_steps += 1;
                        cost += c;
                        prof_cost += c;
                        match op {
                            ProfOp::SetR { value } => path_r = value,
                            ProfOp::AddR { value } => path_r = path_r.wrapping_add(value),
                            ProfOp::CountR { table } => self.store.table_mut(table).bump(path_r),
                            ProfOp::CountRPlus { table, addend } => {
                                self.store
                                    .table_mut(table)
                                    .bump(path_r.wrapping_add(addend));
                            }
                            ProfOp::CountConst { table, index } => {
                                self.store.table_mut(table).bump(index);
                            }
                            ProfOp::CountRChecked { table } => {
                                let t = self.store.table_mut(table);
                                if path_r < 0 {
                                    t.bump_cold();
                                } else {
                                    t.bump(path_r);
                                }
                            }
                            ProfOp::CountRPlusChecked { table, addend } => {
                                let t = self.store.table_mut(table);
                                if path_r < 0 {
                                    t.bump_cold();
                                } else {
                                    t.bump(path_r.wrapping_add(addend));
                                }
                            }
                        }
                        continue;
                    }
                    Op::Call {
                        dst,
                        callee,
                        args,
                        argc,
                    } => {
                        cost += call;
                        if self.stack.len() >= max_depth {
                            break 'frames HaltReason::CallDepthLimit;
                        }
                        let top = self.stack.last_mut().expect("frame");
                        (top.pc, top.block, top.path_r, top.cursor) = (pc, block, path_r, cursor);
                        let args = &prog.pool[args as usize..(args + argc) as usize];
                        self.push_frame(prog, FuncId(callee), base, args, dst);
                        continue 'frames;
                    }
                    Op::Return { value } => {
                        cost += terminator;
                        let v = if value == NO_REG {
                            0
                        } else {
                            regs[value as usize]
                        };
                        let done = self.stack.pop().expect("frame");
                        if let (Some(t), Some(c)) = (self.tracer.as_mut(), cursor) {
                            t.exit_function(func, c);
                        }
                        self.arena.truncate(base);
                        match self.stack.last() {
                            None => break 'frames HaltReason::Finished,
                            Some(parent) => {
                                if done.ret_dst != NO_REG {
                                    self.arena[parent.base + done.ret_dst as usize] = v;
                                }
                                continue 'frames;
                            }
                        }
                    }
                    Op::Jump { target, pc } => (0, target, pc),
                    Op::Branch {
                        cond,
                        then_target,
                        then_pc,
                        else_target,
                        else_pc,
                    } => {
                        if regs[cond as usize] != 0 {
                            (0, then_target, then_pc)
                        } else {
                            (1, else_target, else_pc)
                        }
                    }
                    Op::Switch { disc, targets, len } => {
                        let v = regs[disc as usize];
                        let s = if v >= 0 && v < i64::from(len) {
                            v as u32
                        } else {
                            len
                        };
                        let target = BlockId(prog.pool[(targets + s) as usize]);
                        (s, target, block_pc[target.index()])
                    }
                };
                cost += terminator;
                if let (Some(t), Some(c)) = (self.tracer.as_mut(), cursor.as_mut()) {
                    t.take_edge(
                        func,
                        c,
                        EdgeRef {
                            from: block,
                            succ: s,
                        },
                        target,
                    );
                }
                block = target;
                pc = to as usize;
            }
        };
        (
            self.steps,
            self.cost,
            self.prof_steps,
            self.prof_cost,
            self.checksum,
        ) = (steps, cost, prof_steps, prof_cost, checksum);
        halt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_ir::{FunctionBuilder, Reg, TableDecl, TableKind};

    fn module_one(f: ppp_ir::Function) -> Module {
        let mut m = Module::new();
        m.add_function(f);
        m
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut b = FunctionBuilder::new("main", 0);
        let x = b.constant(20);
        let y = b.constant(22);
        let s = b.binary(BinOp::Add, x, y);
        b.emit(s);
        b.ret(Some(s));
        let m = module_one(b.finish());
        let r = run(&m, "main", &RunOptions::default()).unwrap();
        assert_eq!(r.halt, HaltReason::Finished);
        assert_eq!(r.calls, 1);
        // const + const + add + emit = 4 basic, ret = 1 terminator.
        assert_eq!(r.steps, 5);
        assert_eq!(r.cost, 5);
        assert_eq!(r.prof_cost, 0);
    }

    #[test]
    fn missing_entry_errors() {
        let mut b = FunctionBuilder::new("main", 0);
        b.ret(None);
        let m = module_one(b.finish());
        assert!(matches!(
            run(&m, "nope", &RunOptions::default()),
            Err(VmError::NoSuchFunction { .. })
        ));
    }

    #[test]
    fn branch_selects_successor() {
        // if 1 != 0 then emit 7 else emit 9
        let mut b = FunctionBuilder::new("main", 0);
        let c = b.constant(1);
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, t, e);
        b.switch_to(t);
        let v7 = b.constant(7);
        b.emit(v7);
        b.jump(j);
        b.switch_to(e);
        let v9 = b.constant(9);
        b.emit(v9);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        let m = module_one(b.finish());
        let r1 = run(&m, "main", &RunOptions::default()).unwrap();

        // Flip the condition to 0: different checksum (else arm).
        let mut m2 = m.clone();
        m2.function_mut(FuncId(0)).blocks[0].insts[0] = Inst::Const {
            dst: Reg(0),
            value: 0,
        };
        let r2 = run(&m2, "main", &RunOptions::default()).unwrap();
        assert_ne!(r1.checksum, r2.checksum);
    }

    #[test]
    fn switch_in_and_out_of_range() {
        let mut b = FunctionBuilder::new("main", 1);
        let (a, c, d) = (b.new_block(), b.new_block(), b.new_block());
        let disc = b.constant(1);
        b.switch(disc, vec![a, c], d);
        b.switch_to(a);
        b.ret(None);
        b.switch_to(c);
        let v = b.constant(5);
        b.emit(v);
        b.ret(None);
        b.switch_to(d);
        b.ret(None);
        let m = module_one(b.finish());
        let r = run(&m, "main", &RunOptions::default()).unwrap();
        // disc = 1 selects targets[1] = c, which emits.
        assert_ne!(r.checksum, 0);
    }

    #[test]
    fn calls_pass_args_and_return_values() {
        let mut m = Module::new();
        let mut g = FunctionBuilder::new("inc", 1);
        let p = g.param(0);
        let one = g.constant(1);
        let s = g.binary(BinOp::Add, p, one);
        g.ret(Some(s));
        let gid = m.add_function(g.finish());

        let mut b = FunctionBuilder::new("main", 0);
        let x = b.constant(41);
        let y = b.call(gid, vec![x]);
        b.emit(y);
        b.ret(Some(y));
        m.add_function(b.finish());

        let r = run(&m, "main", &RunOptions::default()).unwrap();
        assert_eq!(r.halt, HaltReason::Finished);
        assert_eq!(r.calls, 2);
    }

    #[test]
    fn loops_and_step_limit() {
        // Infinite loop halts at the step budget.
        let mut b = FunctionBuilder::new("main", 0);
        let l = b.new_block();
        b.jump(l);
        b.switch_to(l);
        b.jump(l);
        let m = module_one(b.finish());
        let opts = RunOptions {
            max_steps: 1000,
            ..RunOptions::default()
        };
        let r = run(&m, "main", &opts).unwrap();
        assert_eq!(r.halt, HaltReason::StepLimit);
        assert_eq!(r.steps, 1000);
    }

    #[test]
    fn recursion_depth_limit() {
        let mut m = Module::new();
        // f() calls f() forever.
        let mut b = FunctionBuilder::new("main", 0);
        b.call_void(FuncId(0), vec![]);
        b.ret(None);
        m.add_function(b.finish());
        let opts = RunOptions {
            max_call_depth: 16,
            ..RunOptions::default()
        };
        let r = run(&m, "main", &opts).unwrap();
        assert_eq!(r.halt, HaltReason::CallDepthLimit);
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let mut b = FunctionBuilder::new("main", 0);
        let bound = b.constant(1000);
        let v = b.rand(bound);
        b.emit(v);
        b.ret(None);
        let m = module_one(b.finish());
        let r1 = run(&m, "main", &RunOptions::default().with_seed(9)).unwrap();
        let r2 = run(&m, "main", &RunOptions::default().with_seed(9)).unwrap();
        let r3 = run(&m, "main", &RunOptions::default().with_seed(10)).unwrap();
        assert_eq!(r1.checksum, r2.checksum);
        assert_ne!(r1.checksum, r3.checksum);
    }

    #[test]
    fn memory_wraps_addresses() {
        let mut b = FunctionBuilder::new("main", 0);
        let addr = b.constant(-3);
        let v = b.constant(77);
        b.store(addr, v);
        let l = b.load(addr);
        b.emit(l);
        b.ret(None);
        let m = module_one(b.finish());
        let opts = RunOptions {
            mem_words: 8,
            ..RunOptions::default()
        };
        let r = run(&m, "main", &opts).unwrap();
        assert_eq!(r.halt, HaltReason::Finished);
        // Load observes the stored value through the same wrapped address.
        let mut b2 = FunctionBuilder::new("main", 0);
        let v2 = b2.constant(77);
        b2.emit(v2);
        b2.ret(None);
        let m2 = module_one(b2.finish());
        let r2 = run(&m2, "main", &opts).unwrap();
        assert_eq!(r.checksum, r2.checksum);
    }

    #[test]
    fn prof_ops_update_store_and_costs() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("main", 0);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let t = m.add_table(TableDecl {
            func: fid,
            kind: TableKind::Array { size: 8 },
            hot_paths: 8,
        });
        let f = m.function_mut(fid);
        f.blocks[0].insts.extend([
            Inst::Prof(ProfOp::SetR { value: 2 }),
            Inst::Prof(ProfOp::AddR { value: 3 }),
            Inst::Prof(ProfOp::CountR { table: t }),
            Inst::Prof(ProfOp::CountRPlus {
                table: t,
                addend: -5,
            }),
            Inst::Prof(ProfOp::CountConst { table: t, index: 7 }),
        ]);
        let r = run(&m, "main", &RunOptions::default()).unwrap();
        let counts: Vec<_> = r.store.table(t).iter_counts().collect();
        assert_eq!(counts, vec![(0, 1), (5, 1), (7, 1)]);
        assert_eq!(r.prof_steps, 5);
        // 2 reg ops + 3 array counts = 2*1 + 3*2 = 8 cost units.
        assert_eq!(r.prof_cost, 8);
        assert_eq!(r.program_cost(), 1); // just the ret
    }

    #[test]
    fn checked_counts_report_cold() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("main", 0);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let t = m.add_table(TableDecl {
            func: fid,
            kind: TableKind::Array { size: 8 },
            hot_paths: 8,
        });
        let f = m.function_mut(fid);
        f.blocks[0].insts.extend([
            Inst::Prof(ProfOp::SetR { value: -1_000_000 }),
            Inst::Prof(ProfOp::CountRChecked { table: t }),
            Inst::Prof(ProfOp::SetR { value: 3 }),
            Inst::Prof(ProfOp::CountRPlusChecked {
                table: t,
                addend: 1,
            }),
        ]);
        let r = run(&m, "main", &RunOptions::default()).unwrap();
        assert_eq!(r.store.table(t).cold(), 1);
        assert_eq!(
            r.store.table(t).iter_counts().collect::<Vec<_>>(),
            vec![(4, 1)]
        );
    }

    /// Runs `m` untraced and traced under `opts`, checks that tracing
    /// changes none of the counters, and returns the traced result.
    fn run_both(m: &Module, opts: RunOptions) -> RunResult {
        let plain = run(m, "main", &opts).unwrap();
        let traced = run(m, "main", &opts.traced()).unwrap();
        assert_eq!(
            (plain.halt, plain.steps, plain.cost, plain.calls),
            (traced.halt, traced.steps, traced.cost, traced.calls)
        );
        assert_eq!(plain.checksum, traced.checksum);
        traced
    }

    fn limited(max_steps: u64) -> RunOptions {
        RunOptions {
            max_steps,
            ..RunOptions::default()
        }
    }

    /// `main`: b0 = [const 5, call inc(r0), emit] jump b1; b1: ret.
    /// `inc`: [const 1, add] ret.
    fn call_then_jump() -> Module {
        let mut m = Module::new();
        let mut g = FunctionBuilder::new("inc", 1);
        let p = g.param(0);
        let one = g.constant(1);
        let s = g.binary(BinOp::Add, p, one);
        g.ret(Some(s));
        let inc = m.add_function(g.finish());
        let mut b = FunctionBuilder::new("main", 0);
        let x = b.constant(5);
        let y = b.call(inc, vec![x]);
        b.emit(y);
        let b1 = b.new_block();
        b.jump(b1);
        b.switch_to(b1);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn step_limit_mid_block_on_call_and_on_terminator() {
        let m = call_then_jump();
        let main = FuncId(1);
        // (budget, steps, cost, calls): the full run is const, call, then
        // inc's const, add, ret, then emit, jump, ret.
        let cases = [
            (1, 1, 1, 1), // stops mid-block, before the call
            (2, 2, 4, 2), // the call is the last step: inc entered, nothing run
            (4, 4, 6, 2), // stops mid-block inside the callee
            (5, 5, 7, 2), // inc's return is the last step
            (7, 7, 9, 2), // main's jump is the last step
            (8, 8, 10, 2),
        ];
        for (budget, steps, cost, calls) in cases {
            let r = run_both(&m, limited(budget));
            let halt = if budget == 8 {
                HaltReason::Finished
            } else {
                HaltReason::StepLimit
            };
            assert_eq!(
                (r.halt, r.steps, r.cost, r.calls),
                (halt, steps, cost, calls),
                "budget {budget}"
            );
        }
        // A budget that ends on the jump still records the edge taken.
        let r = run_both(&m, limited(7));
        let edges = r.edge_profile.unwrap();
        assert_eq!(edges.func(main).edge(EdgeRef::new(BlockId(0), 0)), 1);
        assert_eq!(edges.func(main).block(BlockId(1)), 1);
        // A budget of one step less leaves it untaken.
        let r = run_both(&m, limited(6));
        assert_eq!(r.edge_profile.unwrap().func(main).block(BlockId(1)), 0);
    }

    #[test]
    fn call_depth_limit_charges_the_refused_call() {
        // main: [const 1, call main()] ret — each activation runs two
        // steps costing 1 + 3 before recursing.
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("main", 0);
        b.constant(1);
        b.call_void(FuncId(0), vec![]);
        b.ret(None);
        m.add_function(b.finish());
        let r = run_both(
            &m,
            RunOptions {
                max_call_depth: 4,
                ..RunOptions::default()
            },
        );
        assert_eq!(r.halt, HaltReason::CallDepthLimit);
        assert_eq!((r.steps, r.cost, r.calls), (8, 16, 4));
        assert_eq!(r.edge_profile.unwrap().func(FuncId(0)).entries(), 4);
        // No activation returned, so no path completed.
        assert_eq!(r.path_profile.unwrap().func(FuncId(0)).total_unit_flow(), 0);
    }

    #[test]
    fn extra_call_args_are_dropped_and_missing_ones_read_zero() {
        let mut m = Module::new();
        // first(a) = a, with one register only.
        let mut g = FunctionBuilder::new("first", 1);
        let p = g.param(0);
        g.ret(Some(p));
        let first = m.add_function(g.finish());
        // third(a, b, c) = c.
        let mut h = FunctionBuilder::new("third", 3);
        let c = h.param(2);
        h.ret(Some(c));
        let third = m.add_function(h.finish());
        let mut b = FunctionBuilder::new("main", 0);
        let (x, y, z) = (b.constant(11), b.constant(22), b.constant(33));
        let u = b.call(first, vec![x, y, z]);
        b.emit(u);
        let v = b.call(third, vec![x]);
        b.emit(v);
        b.ret(None);
        m.add_function(b.finish());
        let r = run_both(&m, RunOptions::default());
        assert_eq!(r.halt, HaltReason::Finished);
        // 3 consts, 2 calls (3 each), 2 emits, 3 returns.
        assert_eq!((r.steps, r.cost, r.calls), (10, 14, 3));

        let mut e = FunctionBuilder::new("main", 0);
        let (a, zero) = (e.constant(11), e.constant(0));
        e.emit(a);
        e.emit(zero);
        e.ret(None);
        let expect = run(&module_one(e.finish()), "main", &RunOptions::default()).unwrap();
        assert_eq!(r.checksum, expect.checksum);
    }

    #[test]
    fn switch_out_of_range_discriminants_take_the_default() {
        for (disc, succ) in [(-1, 2), (i64::MIN, 2), (2, 2), (i64::MAX, 2), (1, 1)] {
            let mut b = FunctionBuilder::new("main", 0);
            let (t0, t1, d) = (b.new_block(), b.new_block(), b.new_block());
            let v = b.constant(disc);
            b.switch(v, vec![t0, t1], d);
            for (blk, out) in [(t0, 100), (t1, 200), (d, 300)] {
                b.switch_to(blk);
                let c = b.constant(out);
                b.emit(c);
                b.ret(None);
            }
            let m = module_one(b.finish());
            let r = run_both(&m, RunOptions::default());
            // const, switch, const, emit, ret.
            assert_eq!((r.steps, r.cost), (5, 5), "disc {disc}");
            let edges = r.edge_profile.unwrap();
            assert_eq!(
                edges.func(FuncId(0)).edge(EdgeRef::new(BlockId(0), succ)),
                1,
                "disc {disc}"
            );
            let mut e = FunctionBuilder::new("main", 0);
            let c = e.constant([100, 200, 300][succ]);
            e.emit(c);
            e.ret(None);
            let expect = run(&module_one(e.finish()), "main", &RunOptions::default()).unwrap();
            assert_eq!(r.checksum, expect.checksum, "disc {disc}");
        }
    }

    #[test]
    fn negative_addresses_wrap_euclidean_in_odd_sized_memory() {
        // With 7 words, -3, 4, 11 and -10 all name word 4.
        let mut b = FunctionBuilder::new("main", 0);
        let (a, v) = (b.constant(-3), b.constant(77));
        b.store(a, v);
        for addr in [4, 11, -10, -3] {
            let p = b.constant(addr);
            let l = b.load(p);
            b.emit(l);
        }
        let (p, w) = (b.constant(i64::MIN), b.constant(5));
        b.store(p, w); // i64::MIN mod 7 = 6
        let q = b.constant(-1);
        let l = b.load(q);
        b.emit(l);
        b.ret(None);
        let m = module_one(b.finish());
        let opts = RunOptions {
            mem_words: 7,
            ..RunOptions::default()
        };
        let r = run_both(&m, opts);
        // 2 + 4×1 + 2 + 1 consts, 2 stores and 5 loads (2 each), 5 emits,
        // one ret.
        assert_eq!((r.steps, r.cost), (22, 29));
        let mut e = FunctionBuilder::new("main", 0);
        let (s, f) = (e.constant(77), e.constant(5));
        for _ in 0..4 {
            e.emit(s);
        }
        e.emit(f);
        e.ret(None);
        let expect = run(&module_one(e.finish()), "main", &opts).unwrap();
        assert_eq!(r.checksum, expect.checksum);
    }

    #[test]
    fn tracing_produces_profiles_and_costs_match_untraced() {
        let mut b = FunctionBuilder::new("main", 0);
        let ten = b.constant(10);
        let i = b.copy(ten); // countdown register
        let (hdr, body, exit) = (b.new_block(), b.new_block(), b.new_block());
        b.jump(hdr);
        b.switch_to(hdr);
        b.branch(i, body, exit);
        b.switch_to(body);
        let one = b.constant(1);
        b.binary_to(i, BinOp::Sub, i, one);
        b.jump(hdr);
        b.switch_to(exit);
        b.ret(None);
        let m = module_one(b.finish());

        let plain = run(&m, "main", &RunOptions::default()).unwrap();
        let traced = run(&m, "main", &RunOptions::default().traced()).unwrap();
        assert_eq!(plain.cost, traced.cost, "tracing must not perturb cost");
        assert_eq!(plain.checksum, traced.checksum);

        let edges = traced.edge_profile.unwrap();
        let paths = traced.path_profile.unwrap();
        let f0 = FuncId(0);
        assert_eq!(edges.func(f0).entries(), 1);
        // Loop body executes 10 times.
        assert_eq!(edges.func(f0).edge(EdgeRef::new(BlockId(1), 0)), 10);
        // Paths: entry..back (1), header-iteration..back (9), header->exit (1).
        assert_eq!(paths.func(f0).total_unit_flow(), 11);
        assert_eq!(paths.func(f0).distinct_paths(), 3);
    }
}
