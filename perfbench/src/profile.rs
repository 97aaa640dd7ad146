//! The `profile` workload: the paper's pipeline over all 18 suite
//! personalities on one thread. `prepare_benchmark` (three traced profile
//! runs, witnessed inline, unroll and scalar passes) then PP, TPP and PPP
//! instrument + run + estimate, without ablations.
//!
//! The interpreter does almost all of this work and no frames are sent,
//! so interpreter and planning changes show here and codec or aggregator
//! changes should not.

use std::time::Instant;

use ppp_core::{
    accuracy, edge_profile_coverage, edge_profile_estimate, instrument_module,
    instrumented_fraction, normalize_module, profiler_coverage, profiler_estimate, EstimateOptions,
    FlowKind,
};
use ppp_ir::{Module, ModulePathProfile};
use ppp_opt::{
    inline_module_witnessed, optimize_module_witnessed, unroll_module_witnessed, InlineOptions,
    UnrollOptions,
};
use ppp_repro::{ingest_guidance, prepare_benchmark, run_prepared, PipelineOptions};
use ppp_workloads::{generate, spec2000_suite, SuiteEntry};

use crate::calib;
use crate::probe::{Kind, VmProbe, PROFILERS};
use crate::stats::{mean, median, typical_pass};
use crate::trace::Tracer;
use crate::{Outcome, Repeats, RunArgs, DRAWS};

/// Workload scale: one pass over the suite takes about two seconds.
pub const SCALE: f64 = 0.25;

/// The deterministic outputs of one benchmark's pipeline.
#[derive(Clone, Debug, PartialEq)]
pub struct Guards {
    bench: String,
    baseline_cost: u64,
    /// Per profiler: overhead, accuracy, coverage.
    profilers: Vec<(f64, f64, f64)>,
}

/// Set-up: a warm-up pass on draw 0, whose outputs the measured passes
/// on that draw must repeat.
pub struct Setup {
    entries: Vec<SuiteEntry>,
    repeats: Repeats<Guards>,
}

fn options(seed: u64) -> PipelineOptions {
    PipelineOptions {
        scale: SCALE,
        seed,
        ablations: false,
        ..PipelineOptions::default()
    }
}

pub fn setup(r: &RunArgs) -> Result<Setup, String> {
    let entries = spec2000_suite();
    let mut warm = Outcome::default();
    let mut lat = vec![Vec::new(); entries.len()];
    let guards = pass(&entries, &options(r.draw_seed(0)), &mut warm, &mut lat);
    if let Some(e) = warm.check_failures.first() {
        return Err(format!("warm-up pass: {e}"));
    }
    let mut repeats = Repeats::default();
    repeats.check(0, guards, &mut warm);
    Ok(Setup { entries, repeats })
}

/// One pass through the public pipeline entry points. Each benchmark's
/// `prepare_benchmark` + `run_prepared` time is one latency sample in
/// `lat`, in ms; the output check between the two calls is not timed.
fn pass(
    entries: &[SuiteEntry],
    options: &PipelineOptions,
    out: &mut Outcome,
    lat: &mut [Vec<f64>],
) -> Vec<Guards> {
    let mut guards = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        out.attempted += 1;
        calib::tick();
        let t = Instant::now();
        let prep = prepare_benchmark(entry, options);
        let mut took = t.elapsed().as_secs_f64();
        let prep = match prep {
            Ok(p) => p,
            Err(e) => {
                out.fail_check(format!("{}: prepare: {e}", entry.spec.name));
                continue;
            }
        };
        let flow = ppp_lint::check_profile(&prep.module, &prep.edges);
        if !flow.is_clean() {
            out.fail_check(format!("{}: guidance profile: {flow}", entry.spec.name));
        }
        let baseline_cost = prep.baseline_cost;
        let t = Instant::now();
        let run = run_prepared(prep, options);
        took += t.elapsed().as_secs_f64();
        lat[i].push(took * 1e3);
        match run {
            Ok(run) => guards.push(Guards {
                bench: run.name.clone(),
                baseline_cost,
                profilers: PROFILERS
                    .iter()
                    .map(|(_, config)| {
                        run.profiler(&config().label())
                            .map_or((f64::NAN, f64::NAN, f64::NAN), |p| {
                                (p.overhead, p.accuracy, p.coverage)
                            })
                    })
                    .collect(),
            }),
            Err(e) => out.fail_check(format!("{}: run: {e}", entry.spec.name)),
        }
    }
    guards
}

pub fn timed(s: &Setup, r: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut repeats = s.repeats.clone();
    let n = s.entries.len();
    let mut lat = vec![Vec::new(); DRAWS * n];
    let mut slowdowns = Vec::new();
    let started = Instant::now();
    while !r.done(started, slowdowns.len(), DRAWS) {
        let draw = slowdowns.len() % DRAWS;
        let mut raw = vec![Vec::new(); n];
        let (guards, slow) =
            calib::bracket(|| pass(&s.entries, &options(r.draw_seed(draw)), &mut out, &mut raw));
        calib::add_pass(&mut lat[draw * n..(draw + 1) * n], raw, slow);
        slowdowns.push(slow);
        repeats.check(draw, guards, &mut out);
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

/// The traced run's view of the pipeline: the same public calls
/// `prepare_benchmark` and `run_prepared` make, each inside a span named
/// after its crate. Its outputs must equal the real pipeline's on the
/// same draw.
fn bench_traced(
    entry: &SuiteEntry,
    index: usize,
    options: &PipelineOptions,
    tr: &mut Tracer,
    vm: &mut VmProbe,
    out: &mut Outcome,
) -> Result<Guards, String> {
    let name = entry.spec.name.clone();
    let seed = options.seed;
    let mut check = |tr: &mut Tracer, what: &str, f: &dyn Fn() -> ppp_lint::LintReport| {
        let report = tr.span("lint.check", |_| f());
        if !report.is_clean() {
            out.fail_check(format!("{name}: {what}: {report}"));
        }
    };
    let spec = entry.spec.clone().scaled(options.scale);
    let mut m = tr.span("workloads.generate", |_| generate(&spec));
    let scalar = |tr: &mut Tracer, m: &mut Module| {
        let src = m.clone();
        let (_, w) = tr.span("opt.transform", |_| optimize_module_witnessed(m));
        (src, w)
    };
    let traced = |tr: &mut Tracer, vm: &mut VmProbe, m: &Module| {
        let r = vm.run(tr, Kind::Traced, index, m, seed)?;
        match (r.edge_profile.clone(), r.path_profile.clone()) {
            (Some(e), Some(p)) => Ok::<_, String>((r, e, p)),
            _ => Err("traced run returned no profiles".to_owned()),
        }
    };

    let (src, w) = scalar(tr, &mut m);
    check(tr, "scalar@gen", &|| {
        ppp_lint::check_transform(&src, &w, &m)
    });
    tr.span("core.normalize", |_| normalize_module(&mut m));
    let (_, e0, _) = traced(tr, vm, &m)?;
    check(tr, "profile@orig", &|| ppp_lint::check_profile(&m, &e0));

    let src = m.clone();
    let (_, w) = tr.span("opt.transform", |_| {
        inline_module_witnessed(&mut m, &e0, &InlineOptions::default())
    });
    check(tr, "inline", &|| ppp_lint::check_transform(&src, &w, &m));
    let (_, e1, _) = traced(tr, vm, &m)?;
    check(tr, "profile@inline", &|| ppp_lint::check_profile(&m, &e1));
    let src = m.clone();
    let (_, w) = tr.span("opt.transform", |_| {
        unroll_module_witnessed(&mut m, &e1, &UnrollOptions::default())
    });
    check(tr, "unroll", &|| ppp_lint::check_transform(&src, &w, &m));
    let (src, w) = scalar(tr, &mut m);
    check(tr, "scalar@opt", &|| {
        ppp_lint::check_transform(&src, &w, &m)
    });
    tr.span("core.normalize", |_| normalize_module(&mut m));
    let (r2, e2, truth) = traced(tr, vm, &m)?;
    check(tr, "guidance profile", &|| ppp_lint::check_profile(&m, &e2));
    let baseline_cost = r2.cost;
    vm.run(tr, Kind::Untraced, index, &m, seed)?;

    let (guidance, _) = tr.span("repro.ingest_guidance", |_| {
        ingest_guidance(&m, Some(e2), Some(&truth))
    });
    let guidance = guidance.ok_or("the degradation ladder dropped the guidance")?;
    let est = estimate_options(&truth, options);
    let metric = options.metric;
    tr.span("core.estimate", |_| {
        let e = edge_profile_estimate(&m, &guidance, FlowKind::Potential, metric, &est);
        accuracy(&truth, &e, metric, options.hot_ratio);
        edge_profile_coverage(&m, &guidance, &truth, metric);
    });
    let mut profilers = Vec::new();
    for (kind, config) in PROFILERS {
        let config = config();
        let plan = tr.span("core.instrument", |_| {
            instrument_module(&m, Some(&guidance), &config)
        });
        check(tr, "plan", &|| ppp_lint::lint_plan(&plan));
        let r = vm.run(tr, kind, index, &plan.module, seed)?;
        let (acc, cov) = tr.span("core.estimate", |_| {
            let e = profiler_estimate(&m, &plan, &guidance, &r.store, metric, &est);
            let acc = accuracy(&truth, &e, metric, options.hot_ratio);
            let cov = profiler_coverage(&m, &plan, &r.store, &truth, metric, &est);
            instrumented_fraction(&m, &plan, &r.store, &truth);
            (acc, cov.ratio())
        });
        profilers.push((r.overhead_vs(baseline_cost).unwrap_or(0.0), acc, cov));
    }
    Ok(Guards {
        bench: entry.spec.name.clone(),
        baseline_cost,
        profilers,
    })
}

/// The pipeline's potential-flow cutoff: half the hot threshold of the
/// ground truth's total flow.
fn estimate_options(truth: &ModulePathProfile, options: &PipelineOptions) -> EstimateOptions {
    let total = truth
        .iter()
        .map(|(_, _, s)| options.metric.flow(s.freq, s.branches))
        .sum::<u64>();
    EstimateOptions {
        potential_cutoff: ((options.hot_ratio * 0.5) * total as f64) as u64,
        max_paths_per_func: 50_000,
    }
}

/// Span names whose per-pass totals are reported, with their metric.
const SPAN_TOTALS: [(&str, &str); 5] = [
    ("workloads.generate", "workloads.generate_ms"),
    ("opt.transform", "opt.transform_ms"),
    ("lint.check", "lint.check_ms"),
    ("core.instrument", "core.instrument_ms"),
    ("core.estimate", "core.estimate_ms"),
];

pub fn traced(s: &Setup, r: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut repeats = s.repeats.clone();
    let mut root = Tracer::new(true);
    let mut vm = VmProbe::default();
    let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
    let mut totals: Vec<Vec<f64>> = vec![Vec::new(); SPAN_TOTALS.len()];
    let mut first_pass_steps = None;
    let n = s.entries.len();
    let started = Instant::now();
    // Each draw runs twice in a row: first through the real pipeline,
    // untraced, which records `run_prepared`'s guards for the draw (or must
    // repeat those of set-up on draw 0); then through the traced view of
    // the same calls, which must reproduce them. The two medians give the
    // tracing overhead.
    while !r.done(started, on_s.len() + off_s.len(), 2 * DRAWS) {
        let p = on_s.len() + off_s.len();
        let (on, draw) = (p % 2 == 1, (p / 2) % DRAWS);
        let options = options(r.draw_seed(draw));
        let t = Instant::now();
        let guards = if on {
            let mut tr = root.fork();
            let steps_before = vm.steps();
            let mut guards = Vec::new();
            tr.span("bench.pass", |tr| {
                for (i, entry) in s.entries.iter().enumerate() {
                    out.attempted += 1;
                    match bench_traced(entry, draw * n + i, &options, tr, &mut vm, &mut out) {
                        Ok(g) => guards.push(g),
                        Err(e) => out.fail_check(format!("{}: {e}", entry.spec.name)),
                    }
                }
            });
            on_s.push(t.elapsed().as_secs_f64());
            first_pass_steps.get_or_insert(vm.steps() - steps_before);
            for (i, (span, _)) in SPAN_TOTALS.iter().enumerate() {
                totals[i].push(tr.total_ms(span));
            }
            root.join(tr);
            guards
        } else {
            let mut lat = vec![Vec::new(); n];
            let guards = pass(&s.entries, &options, &mut out, &mut lat);
            off_s.push(t.elapsed().as_secs_f64());
            guards
        };
        repeats.check(draw, guards, &mut out);
    }
    for (i, (_, metric)) in SPAN_TOTALS.iter().enumerate() {
        out.set(metric, median(&totals[i]));
    }
    vm.report(&mut out);
    out.set("vm.steps", first_pass_steps.unwrap_or(0) as f64);
    let ppp = |f: fn(&(f64, f64, f64)) -> f64| {
        mean(
            &repeats
                .recorded()
                .map(|g| f(&g.profilers[2]))
                .collect::<Vec<_>>(),
        )
    };
    out.set("core.ppp_overhead_cost", ppp(|p| p.0));
    out.set("core.ppp_accuracy", ppp(|p| p.1));
    out.set("core.ppp_coverage", ppp(|p| p.2));
    out.set("trace_overhead", median(&on_s) / median(&off_s));
    out.set_shares(&root);
    crate::write_trace("profile", r.seed, &root);
    out.notes.push(("scale", SCALE.to_string()));
    out.notes
        .push(("passes", (on_s.len() + off_s.len()).to_string()));
    out
}
