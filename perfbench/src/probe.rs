//! Interpreter runs booked by kind: steps per second, and the
//! wall-clock overhead of each profiler over the uninstrumented run.

use std::time::Instant;

use ppp_core::ProfilerConfig;
use ppp_ir::Module;
use ppp_vm::{run, RunOptions, RunResult};

use crate::stats::mean;
use crate::trace::Tracer;
use crate::Outcome;

/// Interpreter runs by kind, for throughput and wall-clock overhead.
#[derive(Default)]
pub struct VmProbe {
    steps: [u64; 5],
    secs: [f64; 5],
    /// Per module, one for each benchmark and input draw: the fastest
    /// untraced, PP, TPP and PPP run.
    min_wall: Vec<[f64; 4]>,
}

/// Index of each run kind in [`VmProbe`].
#[derive(Clone, Copy)]
pub enum Kind {
    Untraced = 0,
    Traced = 1,
    Pp = 2,
    Tpp = 3,
    Ppp = 4,
}

/// The profilers the pipeline evaluates, in its order, with their run kind.
pub const PROFILERS: [(Kind, fn() -> ProfilerConfig); 3] = [
    (Kind::Pp, ProfilerConfig::pp),
    (Kind::Tpp, ProfilerConfig::tpp),
    (Kind::Ppp, ProfilerConfig::ppp),
];

impl VmProbe {
    /// Runs `module` under `kind`, inside a `vm.run` span, and books its
    /// steps and wall time; `slot` names the benchmark and input draw.
    pub fn run(
        &mut self,
        tr: &mut Tracer,
        kind: Kind,
        slot: usize,
        module: &Module,
        seed: u64,
    ) -> Result<RunResult, String> {
        let mut options = RunOptions::default().with_seed(seed);
        if matches!(kind, Kind::Traced) {
            options = options.traced();
        }
        let t = Instant::now();
        let r = tr
            .span("vm.run", |_| run(module, "main", &options))
            .map_err(|e| e.to_string())?;
        let wall = t.elapsed().as_secs_f64();
        let k = kind as usize;
        self.steps[k] += r.steps;
        self.secs[k] += wall;
        if k != Kind::Traced as usize {
            if self.min_wall.len() <= slot {
                self.min_wall.resize(slot + 1, [f64::INFINITY; 4]);
            }
            let m = &mut self.min_wall[slot][k.saturating_sub(1)];
            *m = m.min(wall);
        }
        Ok(r)
    }

    /// Total interpreter steps booked.
    pub fn steps(&self) -> u64 {
        self.steps.iter().sum()
    }

    /// Sets the `vm.*` throughput and wall-overhead metrics.
    pub fn report(&self, out: &mut Outcome) {
        let msteps = |k: Kind| {
            let k = k as usize;
            if self.secs[k] > 0.0 {
                self.steps[k] as f64 / self.secs[k] / 1e6
            } else {
                0.0
            }
        };
        out.set("vm.untraced_msteps_per_s", msteps(Kind::Untraced));
        out.set("vm.traced_msteps_per_s", msteps(Kind::Traced));
        out.set("vm.pp_msteps_per_s", msteps(Kind::Pp));
        out.set("vm.tpp_msteps_per_s", msteps(Kind::Tpp));
        out.set("vm.ppp_msteps_per_s", msteps(Kind::Ppp));
        // Mean over modules of the fastest instrumented run over the
        // fastest uninstrumented run, minus one: Figure 12's overhead in
        // wall time rather than cost units.
        let overhead = |slot: usize| {
            let per: Vec<f64> = self
                .min_wall
                .iter()
                .filter(|w| w[0].is_finite() && w[slot].is_finite() && w[0] > 0.0)
                .map(|w| w[slot] / w[0] - 1.0)
                .collect();
            mean(&per)
        };
        out.set("vm.pp_overhead_wall", overhead(1));
        out.set("vm.tpp_overhead_wall", overhead(2));
        out.set("vm.ppp_overhead_wall", overhead(3));
    }
}
