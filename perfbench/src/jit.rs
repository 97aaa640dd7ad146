//! The `jit` workload: `run_jit`, warm, to steady state over the suite.
//!
//! It is the only workload that hot-swaps code in a `VmHost`, folds a
//! served profile and transfers it through `ppp-match`, and it uses the
//! aggregator in process, without durability, with many small deltas
//! between interpreter runs. Its cost-model speedup catches a "faster"
//! change that skips re-optimization work.

use std::time::Instant;

use ppp_core::{instrument_module, normalize_module};
use ppp_ir::Module;
use ppp_jit::{run_jit, transfer_guidance, JitOptions, JitOutcome};
use ppp_opt::optimize_module_witnessed;
use ppp_repro::jit_gate;
use ppp_vm::{run, RunOptions};
use ppp_workloads::{generate, spec2000_suite};

use crate::calib;
use crate::probe::{Kind, VmProbe, PROFILERS};
use crate::stats::{median, typical_pass};
use crate::trace::Tracer;
use crate::{Outcome, Repeats, RunArgs, DRAWS};

/// Workload scale: one pass over the suite takes about two seconds.
pub const SCALE: f64 = 0.25;

/// Times the traced run repeats the match and interpreter probe on draw 0,
/// for the fastest of each interpreter run.
const PROBE_REPS: usize = 4;

/// What a pass must repeat per benchmark: its name, the generations run,
/// and the initial and final cost; `None` when `run_jit` failed.
type Fingerprint = Option<(String, usize, u64, u64)>;

pub struct Setup {
    benches: Vec<(String, Module)>,
    generate_ms: f64,
    repeats: Repeats<Fingerprint>,
}

fn options(seed: u64) -> JitOptions {
    JitOptions {
        seed,
        scale: SCALE,
        ..JitOptions::default()
    }
}

/// Set-up: generate the suite, then a warm-up pass on draw 0 whose
/// outputs the measured passes on that draw must repeat.
pub fn setup(r: &RunArgs) -> Result<Setup, String> {
    let t = Instant::now();
    let benches: Vec<(String, Module)> = spec2000_suite()
        .iter()
        .map(|e| (e.spec.name.clone(), generate(&e.spec.clone().scaled(SCALE))))
        .collect();
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut warm = Outcome::default();
    let mut lat = vec![Vec::new(); benches.len()];
    let outcomes = pass(
        &benches,
        &options(r.draw_seed(0)),
        &mut Tracer::new(false),
        &mut warm,
        &mut lat,
    );
    if let Some(e) = warm.check_failures.first() {
        return Err(format!("warm-up pass: {e}"));
    }
    let mut repeats = Repeats::default();
    repeats.check(0, fingerprints(&outcomes), &mut warm);
    Ok(Setup {
        benches,
        generate_ms,
        repeats,
    })
}

fn fingerprints(outcomes: &[Option<JitOutcome>]) -> Vec<Fingerprint> {
    outcomes
        .iter()
        .map(|o| {
            o.as_ref().map(|o| {
                (
                    o.bench.clone(),
                    o.generations_run,
                    o.initial_cost,
                    o.final_cost,
                )
            })
        })
        .collect()
}

/// One pass: `run_jit` on every benchmark, each call one latency sample
/// in `lat`, in ms, and the convergence gate on every outcome. The
/// outcomes are in benchmark order, `None` where `run_jit` failed.
fn pass(
    benches: &[(String, Module)],
    options: &JitOptions,
    tr: &mut Tracer,
    out: &mut Outcome,
    lat: &mut [Vec<f64>],
) -> Vec<Option<JitOutcome>> {
    let mut outcomes = Vec::new();
    for (i, (bench, module)) in benches.iter().enumerate() {
        out.attempted += 1;
        calib::tick();
        let t = Instant::now();
        let outcome = tr.span("jit.run_jit", |_| run_jit(module, bench, options));
        lat[i].push(t.elapsed().as_secs_f64() * 1e3);
        match outcome {
            Ok(o) => {
                if let Err(e) = jit_gate(std::slice::from_ref(&o)) {
                    out.fail_check(e);
                }
                outcomes.push(Some(o));
            }
            Err(e) => {
                out.fail_check(format!("{bench}: {e}"));
                outcomes.push(None);
            }
        }
    }
    outcomes
}

pub fn timed(s: &Setup, r: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut repeats = s.repeats.clone();
    let mut tr = Tracer::new(false);
    let n = s.benches.len();
    let mut slowdowns = Vec::new();
    let mut lat = vec![Vec::new(); DRAWS * n];
    let started = Instant::now();
    while !r.done(started, slowdowns.len(), DRAWS) {
        let draw = slowdowns.len() % DRAWS;
        let mut raw = vec![Vec::new(); n];
        let (outcomes, slow) = calib::bracket(|| {
            pass(
                &s.benches,
                &options(r.draw_seed(draw)),
                &mut tr,
                &mut out,
                &mut raw,
            )
        });
        calib::add_pass(&mut lat[draw * n..(draw + 1) * n], raw, slow);
        slowdowns.push(slow);
        repeats.check(draw, fingerprints(&outcomes), &mut out);
    }
    let pass_s = typical_pass(&lat, DRAWS) / 1e3;
    out.set("pass_s", pass_s);
    out.set("ops_per_s", n as f64 / pass_s);
    out.notes.push(("scale", SCALE.to_string()));
    out.notes.push(("passes", slowdowns.len().to_string()));
    out.notes
        .push(("host_slowdown", median(&slowdowns).to_string()));
    out
}

/// Layers `run_jit` drives, measured on its own inputs and outputs: the
/// profile transfer from the bootstrapped module to the final one, and
/// the interpreter on the final module, untraced, traced and under each
/// profiler with the final guidance. Benchmarks whose `run_jit` failed
/// are left out.
fn probe(
    s: &Setup,
    seed: u64,
    outcomes: &[Option<JitOutcome>],
    vm: &mut VmProbe,
    out: &mut Outcome,
) -> Result<f64, String> {
    let mut tr = Tracer::new(false);
    let mut transfer_ms = 0.0;
    for (i, ((bench, module), o)) in s.benches.iter().zip(outcomes).enumerate() {
        let Some(o) = o else { continue };
        let mut boot = module.clone();
        optimize_module_witnessed(&mut boot);
        normalize_module(&mut boot);
        let traced = run(
            &boot,
            "main",
            &RunOptions::default().with_seed(seed).traced(),
        )
        .map_err(|e| format!("{bench}: {e}"))?;
        let edges = traced
            .edge_profile
            .ok_or("traced run returned no profile")?;
        let t = Instant::now();
        let (moved, _) = transfer_guidance(&boot, &o.final_module, &edges);
        transfer_ms += t.elapsed().as_secs_f64() * 1e3;
        out.attempted += 1;
        let flow = ppp_lint::check_profile(&o.final_module, &moved);
        if !flow.is_clean() {
            out.fail_check(format!("{bench}: transferred profile: {flow}"));
        }
        vm.run(&mut tr, Kind::Untraced, i, &o.final_module, seed)?;
        vm.run(&mut tr, Kind::Traced, i, &o.final_module, seed)?;
        for (kind, config) in PROFILERS {
            let plan = instrument_module(&o.final_module, Some(&o.final_guidance), &config());
            vm.run(&mut tr, kind, i, &plan.module, seed)?;
        }
    }
    Ok(transfer_ms)
}

pub fn traced(s: &Setup, r: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut repeats = s.repeats.clone();
    let mut root = Tracer::new(true);
    let (mut on_s, mut off_s, mut run_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = Vec::new();
    let started = Instant::now();
    // Each draw runs twice in a row, once recording spans and once not, so
    // the two medians give the tracing overhead.
    while !r.done(started, on_s.len() + off_s.len(), 2 * DRAWS) {
        let p = on_s.len() + off_s.len();
        let (on, draw) = (p % 2 == 0, (p / 2) % DRAWS);
        let options = options(r.draw_seed(draw));
        let mut tr = if on { root.fork() } else { Tracer::new(false) };
        let mut lat = vec![Vec::new(); s.benches.len()];
        let t = Instant::now();
        let outcomes = tr.span("bench.pass", |tr| {
            pass(&s.benches, &options, tr, &mut out, &mut lat)
        });
        let wall = t.elapsed().as_secs_f64();
        repeats.check(draw, fingerprints(&outcomes), &mut out);
        if on {
            on_s.push(wall);
            root.join(tr);
        } else {
            off_s.push(wall);
        }
        run_ms.push(lat.iter().flatten().sum::<f64>() / s.benches.len() as f64);
        if draw == 0 {
            last = outcomes;
        }
    }
    let mut vm = VmProbe::default();
    let mut transfer_ms = Vec::new();
    for _ in 0..PROBE_REPS {
        match probe(s, r.draw_seed(0), &last, &mut vm, &mut out) {
            Ok(ms) => transfer_ms.push(ms),
            Err(e) => out.fail_check(e),
        }
    }
    vm.report(&mut out);
    out.set("vm.steps", (vm.steps() / PROBE_REPS as u64) as f64);
    out.set("match.transfer_ms", median(&transfer_ms));
    out.set("workloads.generate_ms", s.generate_ms);
    out.set("jit.run_ms", median(&run_ms));
    out.set(
        "jit.generations",
        last.iter()
            .flatten()
            .map(|o| o.generations_run as f64)
            .sum(),
    );
    let costs: Vec<(u64, u64)> = repeats.recorded().flatten().map(|f| (f.2, f.3)).collect();
    let logs: f64 = costs
        .iter()
        .map(|&(initial, last)| (initial as f64 / last.max(1) as f64).ln())
        .sum();
    out.set("jit.speedup", (logs / costs.len().max(1) as f64).exp());
    out.set("trace_overhead", median(&on_s) / median(&off_s));
    out.set_shares(&root);
    crate::write_trace("jit", r.seed, &root);
    out.notes.push(("scale", SCALE.to_string()));
    out.notes
        .push(("passes", (on_s.len() + off_s.len()).to_string()));
    out
}
