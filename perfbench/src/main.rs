//! The repository's benchmark: one command runs a named workload for a
//! fixed time, checks its outputs, and prints every metric by name with
//! its unit.
//!
//! ```text
//! perfbench --workload <profile|ingest|jit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off.
//! `--trace 1` is a separate run that records spans around each call into
//! the program and prints the per-layer metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! The line before it records provenance. See `README.md` for the
//! workloads, the metrics, and which end-to-end metric each per-layer
//! metric should move.

mod calib;
mod ingest;
mod jit;
mod probe;
mod profile;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use trace::Tracer;

/// Set-up runs this many times per run; `setup_s` is the median of the
/// calibrated times (see [`calib`]).
const SETUP_REPS: usize = 3;

/// Input draws a run cycles through, each made from its own seed derived
/// from `--seed`. How much work an input holds depends on its seed (one
/// benchmark's step count moves by ±20%, its `run_jit` time by ±30%), so a
/// run spreads its passes over several draws instead of timing one, and
/// times each draw at least once.
pub const DRAWS: usize = 8;

/// Where runs keep their scratch directories and trace files, relative to
/// the directory the benchmark runs in.
const OUT_DIR: &str = ".perfbench";

/// End-to-end metrics: every workload reports each of these.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("pass_s", "s"), ("ops_per_s", "1/s")];

/// Per-layer metrics: every workload reports each of these, 0 for a layer
/// that is not on its path.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_ms", "ms"),
    ("vm.untraced_msteps_per_s", "Msteps/s"),
    ("vm.traced_msteps_per_s", "Msteps/s"),
    ("vm.pp_msteps_per_s", "Msteps/s"),
    ("vm.tpp_msteps_per_s", "Msteps/s"),
    ("vm.ppp_msteps_per_s", "Msteps/s"),
    ("vm.pp_overhead_wall", "ratio"),
    ("vm.tpp_overhead_wall", "ratio"),
    ("vm.ppp_overhead_wall", "ratio"),
    ("vm.steps", "count"),
    ("core.instrument_ms", "ms"),
    ("core.estimate_ms", "ms"),
    ("core.ppp_overhead_cost", "ratio"),
    ("core.ppp_accuracy", "ratio"),
    ("core.ppp_coverage", "ratio"),
    ("opt.transform_ms", "ms"),
    ("lint.check_ms", "ms"),
    ("ir.crc32_mb_per_s", "MB/s"),
    ("ir.wire_decode_mb_per_s", "MB/s"),
    ("ir.v2_encode_mb_per_s", "MB/s"),
    ("ir.v2_decode_mb_per_s", "MB/s"),
    ("agg.ingest_frame_p50_us", "us"),
    ("agg.ingest_frame_p99_us", "us"),
    ("agg.wal_append_p50_us", "us"),
    ("agg.checkpoint_ms", "ms"),
    ("agg.snapshot_ms", "ms"),
    ("agg.recover_ms", "ms"),
    ("agg.frames", "count"),
    ("agg.bytes", "count"),
    ("agg.backpressure_stalls", "count"),
    ("agg.duplicates", "count"),
    ("agg.rejects", "count"),
    ("match.transfer_ms", "ms"),
    ("jit.run_ms", "ms"),
    ("jit.generations", "count"),
    ("jit.speedup", "ratio"),
    ("trace_overhead", "ratio"),
    ("failed_ops_frac", "ratio"),
    ("bench.self_share", "frac"),
    ("workloads.self_share", "frac"),
    ("vm.self_share", "frac"),
    ("core.self_share", "frac"),
    ("opt.self_share", "frac"),
    ("lint.self_share", "frac"),
    ("repro.self_share", "frac"),
    ("ir.self_share", "frac"),
    ("agg.self_share", "frac"),
    ("match.self_share", "frac"),
    ("jit.self_share", "frac"),
];

/// What one run of a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errors, refusals, missing acks, failed
    /// output checks.
    pub failed: u64,
    /// Output checks that failed, each described.
    pub check_failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Provenance fields particular to the workload.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records a failed output check; it also counts as a failed operation.
    pub fn fail_check(&mut self, what: String) {
        eprintln!("perfbench: check failed: {what}");
        self.failed += 1;
        self.check_failures.push(what);
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets the `<layer>.self_share` metrics from a tracer's spans.
    pub fn set_shares(&mut self, tracer: &Tracer) {
        let layers = tracer.layer_self_ms();
        let total: f64 = layers.values().sum();
        for (&layer, &ms) in &layers {
            let name = PER_LAYER
                .iter()
                .map(|(n, _)| *n)
                .find(|n| n.strip_suffix(".self_share") == Some(layer));
            match name {
                Some(n) if total > 0.0 => self.set(n, ms / total),
                Some(_) => {}
                None => panic!("span layer {layer:?} has no self_share metric"),
            }
        }
    }
}

/// The options every workload receives.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Seed the inputs are made from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: Duration,
}

impl RunArgs {
    /// The seed input draw `draw` is made from.
    pub fn draw_seed(&self, draw: usize) -> u64 {
        ppp_vm::SplitMix64::new(self.seed ^ (draw as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .next_u64()
    }

    /// Whether a loop that started its measured window at `started` and
    /// has completed `done` passes should stop: the window is over and at
    /// least `min` passes are in.
    pub fn done(&self, started: Instant, done: usize, min: usize) -> bool {
        done >= min && started.elapsed() >= self.seconds
    }
}

/// Each input draw's deterministic outputs, one entry per benchmark: the
/// first pass on a draw records them and every later pass on the same draw
/// must repeat them exactly.
#[derive(Clone)]
pub struct Repeats<T>(Vec<Option<Vec<T>>>);

impl<T: Clone> Default for Repeats<T> {
    fn default() -> Self {
        Self(vec![None; DRAWS])
    }
}

impl<T: PartialEq + std::fmt::Debug + Clone> Repeats<T> {
    /// Checks `got` against the outputs recorded for `draw`, or records
    /// them.
    pub fn check(&mut self, draw: usize, got: Vec<T>, out: &mut Outcome) {
        match &self.0[draw] {
            None => self.0[draw] = Some(got),
            Some(want) if want.len() != got.len() => out.fail_check(format!(
                "draw {draw}: a pass produced {} outputs, an earlier one {}",
                got.len(),
                want.len()
            )),
            Some(want) => {
                for (w, g) in want.iter().zip(&got) {
                    if w != g {
                        out.fail_check(format!(
                            "draw {draw}: outputs differ between passes: {w:?} vs {g:?}"
                        ));
                    }
                }
            }
        }
    }

    /// The outputs recorded so far, of every draw.
    pub fn recorded(&self) -> impl Iterator<Item = &T> {
        self.0.iter().flatten().flatten()
    }
}

/// A scratch directory unique to this process and call, removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `.perfbench/run-<pid>-<n>` under the working directory.
    pub fn new() -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(OUT_DIR).join(format!("run-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

enum Workload {
    Profile,
    Ingest,
    Jit,
}

struct Args {
    workload: Workload,
    name: String,
    run: RunArgs,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = match name.as_str() {
        "profile" => Workload::Profile,
        "ingest" => Workload::Ingest,
        "jit" => Workload::Jit,
        _ => return Err(format!("unknown workload {name:?} (profile, ingest, jit)")),
    };
    Ok(Args {
        workload,
        name,
        run: RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        },
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs set-up [`SETUP_REPS`] times and returns the last state with the
/// median calibrated time in seconds.
fn set_up<S>(mut f: impl FnMut() -> Result<S, String>) -> Result<(S, f64), String> {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let (took, slow) = calib::bracket(|| {
            let t = Instant::now();
            state = Some(f()?);
            Ok::<_, String>(t.elapsed().as_secs_f64())
        });
        times.push(took? / slow);
    }
    Ok((state.expect("SETUP_REPS > 0"), stats::median(&times)))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let r = args.run;
    let (mut out, setup_s) = match args.workload {
        Workload::Profile => {
            let (s, setup_s) = set_up(|| profile::setup(&r))?;
            let out = if args.trace {
                profile::traced(&s, &r)
            } else {
                profile::timed(&s, &r)
            };
            (out, setup_s)
        }
        Workload::Ingest => {
            let (s, setup_s) = set_up(|| ingest::setup(&r))?;
            let out = if args.trace {
                ingest::traced(&s, &r)?
            } else {
                ingest::timed(&s, &r)?
            };
            (out, setup_s)
        }
        Workload::Jit => {
            let (s, setup_s) = set_up(|| jit::setup(&r))?;
            let out = if args.trace {
                jit::traced(&s, &r)
            } else {
                jit::timed(&s, &r)
            };
            (out, setup_s)
        }
    };
    if args.trace {
        out.set(
            "failed_ops_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
    } else {
        out.set("setup_s", setup_s);
    }
    Ok(out)
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <profile|ingest|jit> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.name);
            return ExitCode::from(1);
        }
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut prov = format!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"rustc\":{},\"nproc\":{nproc},\"git_rev\":{}",
        json_str(&args.name),
        args.run.seed,
        args.run.seconds.as_secs(),
        u8::from(args.trace),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_rev()),
    );
    for (k, v) in &out.notes {
        let _ = write!(prov, ",{}:{}", json_str(k), json_str(v));
    }
    prov.push_str("}}");
    println!("{prov}");

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for name in out.metrics.keys() {
        assert!(
            table.iter().any(|(n, _)| n == name),
            "metric {name} is not declared for this run kind"
        );
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(v),
                json_str(unit)
            )
        })
        .collect();
    let correct = out.check_failures.is_empty();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Writes `tracer`'s spans to `.perfbench/trace-<workload>-<seed>-<pid>.json`
/// and prints each layer's self time and share on standard error.
pub fn write_trace(workload: &str, seed: u64, tracer: &Tracer) {
    let path = Path::new(OUT_DIR).join(format!(
        "trace-{workload}-{seed}-{}.json",
        std::process::id()
    ));
    let written =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, tracer.to_json()));
    if let Err(e) = written {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
    let layers = tracer.layer_self_ms();
    let total: f64 = layers.values().sum();
    eprintln!(
        "perfbench: {workload}: layer self time (spans in {})",
        path.display()
    );
    for (layer, ms) in &layers {
        eprintln!(
            "  {layer:<10} {ms:>12.1} ms  {:>5.1}%",
            100.0 * ms / total.max(f64::MIN_POSITIVE)
        );
    }
}
