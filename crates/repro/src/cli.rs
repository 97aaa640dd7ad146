//! The `ppp-repro` command line: one table of subcommands.
//!
//! Each row of the table names a subcommand, the positional argument it
//! takes, the flags it reads and its runner. [`parse`] turns an argument
//! list into one [`Invocation`] and refuses a flag the subcommand does
//! not read; [`usage`] is generated from the same rows, so the help text
//! lists exactly what the parser accepts. Every runner hands back one
//! output, and [`run`] is the one place that writes `--out`, prints JSON
//! or text, and turns an error into `error: …` with exit 2.

use crate::pipeline::sweep;
use crate::{
    all_reports, baseline_from_json, baseline_json, baseline_table, chaos_json, chaos_suite,
    chaos_table, collect_baseline, compare_baselines, drift_json, drift_suite, drift_table, drive,
    drive_json, drive_table, fig10, fig11, fig12, fig13, fig9, inspect_benchmark, jit_gate,
    jit_json, jit_suite, jit_table, lint_benchmark, predict_gate, predict_json, predict_suite,
    predict_table, regressions_json, regressions_table, run_suite, serve, table1, table2,
    trace_benchmark, trace_benchmark_json, validate_benchmark, wall_trends, wall_trends_table,
    BenchmarkRun, DriveOptions, PipelineError, PipelineOptions, Selection, TopOptions, Transport,
};
use ppp_core::ProfilerConfig;
use ppp_jit::JitOptions;
use ppp_lint::LintReport;
use ppp_workloads::SuiteEntry;
use std::net::SocketAddr;
use std::str::FromStr;
use std::time::Duration;

/// What a subcommand takes after its name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arg {
    None,
    /// An optional benchmark or comma list; the whole suite without one.
    Benchmarks,
    Benchmark,
    /// `host:port`.
    Addr,
}

/// A runner's failure: `error: …` and exit 2.
type Failure = Box<dyn std::error::Error>;

/// One row of the subcommand table. `flags` lists what the runner reads,
/// each flag followed by its value's name (`--seed S`); any other flag
/// is refused.
#[derive(Debug)]
struct Command {
    name: &'static str,
    arg: Arg,
    flags: &'static str,
    run: fn(&Invocation) -> Result<Output, Failure>,
}

/// The row run when no subcommand is named: the [`REPORTS`] named on
/// the command line, all of them when none is.
static REPORTS_ROW: Command = Command {
    name: "reports",
    arg: Arg::None,
    flags: "--scale X --quick --no-ablations --out FILE",
    run: run_reports,
};

const COMMANDS: &[Command] = &[
    Command {
        name: "inspect",
        arg: Arg::Benchmark,
        flags: "--scale X --quick --out FILE",
        run: run_inspect,
    },
    Command {
        name: "lint",
        arg: Arg::Benchmarks,
        flags: "--scale X --quick --no-ablations --format text|json --out FILE",
        run: run_lint,
    },
    Command {
        name: "validate",
        arg: Arg::Benchmarks,
        flags: "--scale X --quick --format text|json --out FILE",
        run: run_validate,
    },
    Command {
        name: "chaos",
        arg: Arg::Benchmarks,
        flags: "--scale X --quick --workers N --seed S --format text|json --out FILE \
                --flight-dir DIR",
        run: run_chaos,
    },
    Command {
        name: "drift",
        arg: Arg::Benchmarks,
        flags: "--scale X --quick --workers N --seed S --format text|json --out FILE",
        run: run_drift,
    },
    Command {
        name: "predict",
        arg: Arg::Benchmarks,
        flags: "--scale X --quick --workers N --seed S --format text|json --out FILE",
        run: run_predict,
    },
    Command {
        name: "bench",
        arg: Arg::Benchmarks,
        flags: "--scale X --quick --workers N --seed S --format text|json --out FILE \
                --compare OLD.json --against NEW.json --threshold X",
        run: run_bench,
    },
    Command {
        name: "jit",
        arg: Arg::Benchmarks,
        flags: "--scale X --quick --workers N --seed S --format text|json --out FILE \
                --generations N --hot-threshold F --epsilon X --cold",
        run: run_jit,
    },
    Command {
        name: "trace",
        arg: Arg::Benchmark,
        flags: "--scale X --quick --seed S --format text|json --out FILE",
        run: run_trace,
    },
    Command {
        name: "drive",
        arg: Arg::Benchmarks,
        flags: "--scale X --quick --workers N --seed S --format text|json --out FILE \
                --shards K --repeats R --tcp --connect HOST:PORT --checkpoint-dir DIR \
                --checkpoint-every N --kill-after FRAMES --flight-dir DIR",
        run: run_drive,
    },
    Command {
        name: "serve",
        arg: Arg::None,
        flags: "--addr HOST:PORT --shards K --max-conns N --checkpoint-dir DIR \
                --checkpoint-every N --flight-dir DIR",
        run: run_serve,
    },
    Command {
        name: "top",
        arg: Arg::Addr,
        flags: "--once --interval MS",
        run: run_top,
    },
];

type Report = (&'static str, fn(&[BenchmarkRun]) -> String);

/// The paper's tables and figures; the last is the default.
const REPORTS: [Report; 8] = [
    ("table1", table1),
    ("table2", table2),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("all", all_reports),
];

/// The flag values. The library's option structs hold the flags they
/// configure, so an absent flag keeps the library's default.
#[derive(Debug)]
struct Flags {
    pipeline: PipelineOptions,
    seed: u64,
    json: bool,
    out: Option<String>,
    compare: Option<String>,
    against: Option<String>,
    threshold: f64,
    jit: JitOptions,
    drive: DriveOptions,
    addr: String,
    max_conns: usize,
    top: TopOptions,
    flight_dir: String,
}

impl Default for Flags {
    fn default() -> Self {
        Self {
            pipeline: PipelineOptions {
                ablations: true,
                ..PipelineOptions::default()
            },
            seed: 701,
            json: false,
            out: None,
            compare: None,
            against: None,
            threshold: 0.10,
            jit: JitOptions::default(),
            drive: DriveOptions::default(),
            addr: "127.0.0.1:7011".to_owned(),
            max_conns: 64,
            top: TopOptions::default(),
            flight_dir: "target/ppp-flight".to_owned(),
        }
    }
}

type Args = std::iter::Peekable<std::vec::IntoIter<String>>;

/// Takes `flag`'s value off the stream, parsed as `T`.
fn value<T: FromStr>(args: &mut Args, flag: &str, what: &str) -> Result<T, String> {
    let parsed = args.next().and_then(|v| v.parse().ok());
    parsed.ok_or_else(|| format!("{flag} needs {what}"))
}

/// A count flag's value: an integer of at least 1.
fn count(args: &mut Args, flag: &str) -> Result<usize, String> {
    match value(args, flag, "a positive integer")? {
        0 => Err(format!("{flag} needs a positive integer")),
        n => Ok(n),
    }
}

impl Flags {
    /// Reads flag `f`, and its value off the stream.
    fn set(&mut self, f: &str, args: &mut Args) -> Result<(), String> {
        match f {
            "--scale" => self.scale(value(args, f, "a number")?),
            "--quick" => self.scale(0.1),
            "--no-ablations" => self.pipeline.ablations = false,
            "--workers" => self.pipeline.workers = value(args, f, "an integer")?,
            "--seed" => self.seed = value(args, f, "an integer")?,
            "--format" => match value::<String>(args, f, "text or json")?.as_str() {
                "text" => self.json = false,
                "json" => self.json = true,
                other => return Err(format!("unknown format {other:?}")),
            },
            "--out" => self.out = Some(value(args, f, "a file path")?),
            "--compare" => self.compare = Some(value(args, f, "a baseline file")?),
            "--against" => self.against = Some(value(args, f, "a baseline file")?),
            "--threshold" => self.threshold = value(args, f, "a number")?,
            "--generations" => self.jit.generations = count(args, f)?,
            "--hot-threshold" => self.jit.hot_threshold = value(args, f, "a number")?,
            "--epsilon" => self.jit.epsilon = value(args, f, "a number")?,
            "--cold" => self.jit.cold_start = true,
            "--shards" => self.drive.shards = count(args, f)?,
            "--repeats" => self.drive.repeats = count(args, f)?,
            // --connect wins over --tcp in either order.
            "--tcp" if self.drive.transport == Transport::InProc => {
                self.drive.transport = Transport::Tcp;
            }
            "--tcp" => {}
            "--connect" => self.drive.transport = Transport::Connect(value(args, f, "host:port")?),
            "--checkpoint-dir" => {
                self.drive.checkpoint_dir = Some(value(args, f, "a directory path")?)
            }
            "--checkpoint-every" => self.drive.checkpoint_every = value(args, f, "an integer")?,
            "--kill-after" => self.drive.kill_after = Some(value(args, f, "a frame count")?),
            "--flight-dir" => self.flight_dir = value(args, f, "a directory path")?,
            "--addr" => self.addr = value(args, f, "host:port")?,
            "--max-conns" => self.max_conns = value(args, f, "an integer")?,
            "--once" => self.top.once = true,
            "--interval" => {
                let ms: u64 = value(args, f, "milliseconds")?;
                self.top.interval = Duration::from_millis(ms.max(50));
            }
            "--help" | "-h" => return Err(String::new()),
            _ => return Err(format!("unknown flag {f}")),
        }
        Ok(())
    }

    fn scale(&mut self, scale: f64) {
        self.pipeline.scale = scale;
        self.drive.scale = scale;
    }
}

/// One parsed command line: the subcommand's row, the benchmarks it
/// runs over (the suite unless the positional named some), the reports
/// or address it was given, and the flags.
#[derive(Debug)]
pub struct Invocation {
    command: &'static Command,
    selection: Selection,
    reports: Vec<Report>,
    target: Option<SocketAddr>,
    flags: Flags,
}

impl Invocation {
    /// The subcommand (`reports` when only report names were given).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.command.name
    }

    /// Where the flight recorder dumps (`--flight-dir`).
    #[must_use]
    pub fn flight_dir(&self) -> &str {
        &self.flags.flight_dir
    }

    /// The PP/TPP/PPP pipeline at `--seed`, as `bench` and `trace` run
    /// it; the other sweeps keep the pipeline's own VM seed and use
    /// `--seed` for what they inject.
    fn seeded(&self) -> PipelineOptions {
        PipelineOptions {
            ablations: false,
            seed: self.flags.seed,
            ..self.flags.pipeline
        }
    }
}

/// Parses a command line (without the program name).
///
/// Flags may come before or after the subcommand. With no subcommand
/// the named reports run, all of them when none is named.
///
/// # Errors
///
/// The usage message: an unknown flag, report or benchmark, a bad or
/// missing value, a second subcommand, or a flag the subcommand does not
/// read. An empty message means `--help` was asked for.
pub fn parse(args: Vec<String>) -> Result<Invocation, String> {
    let mut flags = Flags::default();
    let mut command: Option<&'static Command> = None;
    let (mut positional, mut target) = (None, None);
    let (mut reports, mut seen) = (Vec::new(), Vec::new());
    let mut args = args.into_iter().peekable();
    while let Some(tok) = args.next() {
        if tok.starts_with('-') {
            flags.set(&tok, &mut args)?;
            seen.push(tok);
        } else if let Some(report) = REPORTS.iter().find(|(name, _)| *name == tok) {
            if let Some(first) = command.map(|c| c.name) {
                return Err(format!("one subcommand at a time: {first} and {tok}"));
            }
            reports.push(*report);
        } else {
            let next = COMMANDS.iter().find(|c| c.name == tok);
            let next = next.ok_or_else(|| format!("unknown report {tok}"))?;
            let reported = (!reports.is_empty()).then_some(REPORTS_ROW.name);
            if let Some(first) = command.map(|c| c.name).or(reported) {
                return Err(format!("one subcommand at a time: {first} and {tok}"));
            }
            command = Some(next);
            match next.arg {
                Arg::Benchmarks => positional = args.next_if(|a| !a.starts_with('-')),
                Arg::Benchmark => positional = Some(value(&mut args, &tok, "a benchmark name")?),
                Arg::Addr => target = Some(value(&mut args, &tok, "host:port")?),
                Arg::None => {}
            }
        }
    }
    let command = command.unwrap_or(&REPORTS_ROW);
    let reads = |flag: &&String| command.flags.split(' ').any(|t| t == *flag);
    if let Some(flag) = seen.iter().find(|f| !reads(f)) {
        return Err(format!("{} does not read {flag}", command.name));
    }
    let selection = match positional {
        Some(name) if command.arg == Arg::Benchmark => Selection::of(&[name])?,
        Some(list) => Selection::of(&list.split(',').collect::<Vec<_>>())?,
        None => Selection::all(),
    };
    // No report named: all of them (only the reports row reads these).
    if reports.is_empty() {
        reports.push(REPORTS[REPORTS.len() - 1]);
    }
    Ok(Invocation {
        command,
        selection,
        reports,
        target,
        flags,
    })
}

/// The usage text: every subcommand with the flags it reads, generated
/// from the command table.
#[must_use]
pub fn usage() -> String {
    let reports = REPORTS.map(|(name, _)| name).join("|");
    let mut text = format!(
        "usage: ppp-repro [SUBCOMMAND] [FLAGS] (flags go before or after)\n  [{reports}]... {}",
        REPORTS_ROW.flags
    );
    for c in COMMANDS {
        let arg = match c.arg {
            Arg::None => "",
            Arg::Benchmarks => " [BENCH[,BENCH...]]",
            Arg::Benchmark => " BENCH",
            Arg::Addr => " HOST:PORT",
        };
        text += &format!("\n  {}{arg} {}", c.name, c.flags);
    }
    text
}

/// What a runner hands back: the document printed under `--format json`
/// (and written to `--out`, unless `artifact` replaces it), the text
/// printed otherwise, and the exit code. A text-only subcommand's JSON
/// is its text.
#[derive(Debug, Default)]
struct Output {
    json: String,
    text: String,
    code: i32,
    artifact: Option<String>,
}

impl Output {
    /// A document whose run exits 1 when `failed`.
    fn new(json: String, text: String, failed: bool) -> Self {
        Self {
            json,
            text,
            code: i32::from(failed),
            artifact: None,
        }
    }

    fn text(text: String) -> Self {
        Self::new(text.clone(), text, false)
    }
}

/// Runs the subcommand and delivers its output: writes `--out`, prints
/// the JSON or text document (an empty one prints nothing) and returns
/// the exit code. A failure prints as `error: …` and exits 2.
pub fn run(inv: &Invocation) -> i32 {
    let delivered = (inv.command.run)(inv).and_then(|out| {
        if let Some(path) = &inv.flags.out {
            let doc = out.artifact.as_ref().unwrap_or(&out.json);
            std::fs::write(path, format!("{doc}\n"))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        let doc = if inv.flags.json { out.json } else { out.text };
        if !doc.is_empty() {
            println!("{doc}");
        }
        Ok(out.code)
    });
    delivered.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    })
}

fn run_reports(inv: &Invocation) -> Result<Output, Failure> {
    let reports = &inv.reports;
    let mut options = inv.flags.pipeline;
    // Figure 13 is the only consumer of the ablations.
    options.ablations &= reports.iter().any(|(r, _)| matches!(*r, "fig13" | "all"));
    let runs = run_suite(&options);
    let rendered: Vec<_> = reports.iter().map(|(_, render)| render(&runs)).collect();
    Ok(Output::text(rendered.join("\n")))
}

fn run_inspect(inv: &Invocation) -> Result<Output, Failure> {
    let entry = &inv.selection.entries()[0];
    let plan = |config| inspect_benchmark(entry, &config, &inv.flags.pipeline);
    let plans = [
        plan(ProfilerConfig::pp()),
        plan(ProfilerConfig::tpp()),
        plan(ProfilerConfig::ppp()),
    ];
    Ok(Output::text(plans.join("\n")))
}

/// Lints every instrumentation plan (exit 1 unless all are clean).
fn run_lint(inv: &Invocation) -> Result<Output, Failure> {
    run_checks(inv, "config", lint_benchmark, |r| !r.is_clean())
}

/// Translation-validates every witnessed stage (exit 1 on any finding).
fn run_validate(inv: &Invocation) -> Result<Output, Failure> {
    run_checks(inv, "stage", validate_benchmark, |r| !r.is_empty())
}

type Checks = Result<Vec<(String, LintReport)>, PipelineError>;

/// Sweeps `check` over the selection: one list of labelled reports per
/// benchmark, keyed `item` in the JSON. A benchmark whose pipeline fails
/// is reported on stderr and fails the run.
fn run_checks(
    inv: &Invocation,
    item: &str,
    check: fn(&SuiteEntry, &PipelineOptions) -> Checks,
    dirty: fn(&LintReport) -> bool,
) -> Result<Output, Failure> {
    let options = inv.flags.pipeline;
    let results = sweep(inv.name(), &inv.selection, options.workers, |e| {
        check(e, &options)
    });
    let (mut failed, mut json, mut text) = (false, Vec::new(), Vec::new());
    for (entry, result) in inv.selection.entries().iter().zip(results) {
        let name = &entry.spec.name;
        let reports = match result {
            Ok(reports) => reports,
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
                continue;
            }
        };
        let mut items = Vec::new();
        for (label, report) in &reports {
            failed |= dirty(report);
            let report_json = report.to_json();
            items.push(format!(
                "{{\"{item}\":\"{label}\",\"report\":{report_json}}}"
            ));
            text.push(if report.is_empty() {
                format!("{name}/{label}: clean")
            } else {
                format!("{name}/{label}:\n{report}")
            });
        }
        let items = items.join(",");
        json.push(format!(
            "{{\"benchmark\":\"{name}\",\"{item}s\":[{items}]}}"
        ));
    }
    let json = format!("[{}]", json.join(","));
    Ok(Output::new(json, text.join("\n"), failed))
}

/// Sweeps every fault site (exit 1 on a silent degradation or dirty
/// surviving guidance).
fn run_chaos(inv: &Invocation) -> Result<Output, Failure> {
    let outcomes = chaos_suite(&inv.selection, inv.flags.seed, &inv.flags.pipeline)?;
    let (json, text) = (chaos_json(&outcomes), chaos_table(&outcomes));
    Ok(Output::new(json, text, outcomes.iter().any(|o| !o.ok())))
}

/// Sweeps every version-drift scenario (exit 1 unless every transfer is
/// flow-conservative and the identity scenario lossless).
fn run_drift(inv: &Invocation) -> Result<Output, Failure> {
    let seed = inv.flags.seed;
    let outcomes = drift_suite(&inv.selection, seed, &inv.flags.pipeline)?;
    let (json, text) = (drift_json(&outcomes, seed), drift_table(&outcomes));
    Ok(Output::new(json, text, outcomes.iter().any(|o| !o.ok())))
}

/// Scores static estimates against measured profiles (exit 1 unless
/// [`predict_gate`] passes).
fn run_predict(inv: &Invocation) -> Result<Output, Failure> {
    let seed = inv.flags.seed;
    let options = PipelineOptions {
        seed,
        ..inv.flags.pipeline
    };
    let outcomes = predict_suite(&inv.selection, &options)?;
    let (json, text) = (predict_json(&outcomes, seed), predict_table(&outcomes));
    Ok(Output::new(json, text, !predict_gate(&outcomes)))
}

/// Collects a perf baseline or, with `--compare`, diffs one (exit 1 on
/// a regression; incomparable baselines are a failure).
fn run_bench(inv: &Invocation) -> Result<Output, Failure> {
    let load = |path: &String| {
        let doc = std::fs::read_to_string(path).map_err(|e| e.to_string());
        doc.and_then(|doc| baseline_from_json(&doc))
            .map_err(|e| format!("{path}: {e}"))
    };
    let old = inv.flags.compare.as_ref().map(load).transpose()?;
    let new = match (&inv.flags.against, &old) {
        (Some(path), Some(_)) => load(path)?,
        (Some(_), None) => return Err("--against needs --compare".into()),
        (None, _) => collect_baseline(&inv.selection, &inv.seeded()),
    };
    let (json, text) = (baseline_json(&new), baseline_table(&new));
    let Some(old) = old else {
        return Ok(Output::new(json, text, false));
    };
    let regs = compare_baselines(&old, &new, inv.flags.threshold)
        .map_err(|e| format!("baselines incomparable: {e}"))?;
    let mut text = regressions_table(&regs);
    // Wall-clock movement is shown, never gated.
    let trends = wall_trends(&old, &new);
    if !trends.is_empty() {
        text += &format!("\n\n{}", wall_trends_table(&trends));
    }
    let mut verdict = Output::new(regressions_json(&regs), text, !regs.is_empty());
    verdict.artifact = Some(json);
    Ok(verdict)
}

/// Runs the closed re-optimization loop (exit 1 when the convergence
/// gate trips).
fn run_jit(inv: &Invocation) -> Result<Output, Failure> {
    let f = &inv.flags;
    let jopts = JitOptions {
        seed: f.seed,
        scale: f.pipeline.scale,
        ..f.jit
    };
    let outcomes = jit_suite(&inv.selection, &jopts, f.pipeline.workers.max(1))?;
    let gate = jit_gate(&outcomes).map_err(|e| eprintln!("error: jit convergence gate: {e}"));
    let (json, text) = (jit_json(&outcomes, &jopts), jit_table(&outcomes));
    Ok(Output::new(json, text, gate.is_err()))
}

/// Replays one benchmark with spans on. Only the asked-for format is
/// rendered (each rendering is a replay), so `--out` gets that one.
fn run_trace(inv: &Invocation) -> Result<Output, Failure> {
    let render = if inv.flags.json {
        trace_benchmark_json
    } else {
        trace_benchmark
    };
    let doc = render(&inv.selection.entries()[0], &inv.seeded())?;
    Ok(Output::text(doc))
}

/// Runs the parallel load driver (exit 1 when a snapshot check fails).
fn run_drive(inv: &Invocation) -> Result<Output, Failure> {
    let options = DriveOptions {
        workers: inv.flags.pipeline.workers.max(1),
        seed: inv.flags.seed,
        ..inv.flags.drive.clone()
    };
    let report = drive(&inv.selection, &options)?;
    let (json, text) = (drive_json(&report), drive_table(&report));
    Ok(Output::new(json, text, !report.ok()))
}

/// Hosts a standalone aggregation server until the process is killed.
fn run_serve(inv: &Invocation) -> Result<Output, Failure> {
    let f = &inv.flags;
    let (shards, durability) = (f.drive.shards, f.drive.durability());
    let durable = durability.as_ref().map_or("", |_| ", durable");
    let server = serve(&f.addr, shards, f.max_conns, durability)?;
    let addr = server.addr();
    println!("ppp-agg listening on {addr} ({shards} shards{durable})");
    // Serve until killed; the accept loop runs on its own thread.
    loop {
        std::thread::park();
    }
}

/// Polls a live server's stats into a dashboard on stdout.
fn run_top(inv: &Invocation) -> Result<Output, Failure> {
    crate::top(inv.target.expect("parsed with its address"), &inv.flags.top)?;
    Ok(Output::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn every_flag_in_the_table_parses_for_its_subcommand_and_is_in_usage() {
        let text = usage();
        for c in COMMANDS.iter().chain([&REPORTS_ROW]) {
            assert!(text.contains(&format!(" {}\n", c.flags)) || text.ends_with(c.flags));
            for flag in c.flags.split(" --").map(|f| f.trim_start_matches("--")) {
                let value = match flag.split_once(' ') {
                    Some(("format", _)) => "json",
                    Some(("connect" | "addr", _)) => "127.0.0.1:1",
                    Some(_) => "3",
                    None => "",
                };
                let arg = match c.arg {
                    Arg::Benchmark => "mcf",
                    Arg::Addr => "127.0.0.1:1",
                    _ => "",
                };
                let name = if c.name == REPORTS_ROW.name {
                    ""
                } else {
                    c.name
                };
                let line = format!("--{} {value} {name} {arg}", flag.split(' ').next().unwrap());
                let inv = parse(words(&line)).unwrap_or_else(|e| panic!("{line}: {e}"));
                assert_eq!(inv.name(), c.name, "{line}");
            }
        }
    }

    #[test]
    fn flags_fill_the_library_options() {
        let line = "--quick drive --tcp --connect 127.0.0.1:9 --shards 3";
        let f = parse(words(line)).unwrap().flags;
        assert_eq!((f.pipeline.scale, f.drive.scale), (0.1, 0.1));
        assert_eq!((f.drive.shards, f.drive.repeats), (3, 2));
        assert!(matches!(f.drive.transport, Transport::Connect(_)), "{line}");
        let inv = parse(words("table1 fig12 --no-ablations")).unwrap();
        assert!(!inv.flags.pipeline.ablations);
        let names: Vec<_> = inv.reports.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["table1", "fig12"]);
        let inv = parse(Vec::new()).unwrap();
        assert_eq!(
            (inv.name(), inv.reports[0].0, inv.reports.len()),
            ("reports", "all", 1)
        );
        assert_eq!(inv.flags.pipeline.scale, 1.0);
    }

    /// Every `ppp-repro -- …` command line in a document, with shell line
    /// continuations (`\` and YAML `run: >` folding) joined and anything
    /// from the first redirection, pipe, `&`, `;` or comment on dropped.
    fn documented_invocations(doc: &str) -> Vec<String> {
        let mut lines: Vec<String> = Vec::new();
        let mut folding: Option<usize> = None;
        for line in doc.lines() {
            let indent = line.len() - line.trim_start().len();
            let continues = lines.last().is_some_and(|l| l.ends_with('\\'))
                || folding.is_some_and(|at| indent > at && !line.trim().is_empty());
            match lines.last_mut() {
                Some(last) if continues => {
                    *last = format!("{} {}", last.trim_end_matches('\\').trim_end(), line.trim());
                }
                _ => {
                    folding = None;
                    lines.push(line.to_owned());
                }
            }
            if line.trim_end().ends_with("run: >") {
                folding = Some(indent);
            }
        }
        lines
            .iter()
            .filter_map(|l| l.split_once("ppp-repro -- "))
            .map(|(_, rest)| {
                rest.split(['&', '>', '|', ';', '#'])
                    .next()
                    .unwrap()
                    .to_owned()
            })
            .collect()
    }

    #[test]
    fn every_documented_invocation_parses() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (doc, at_least) in [("README.md", 35), (".github/workflows/ci.yml", 12)] {
            let text = std::fs::read_to_string(root.join(doc)).expect("readable doc");
            let invocations = documented_invocations(&text);
            assert!(invocations.len() >= at_least, "{doc}: {invocations:?}");
            for line in invocations {
                if let Err(e) = parse(words(&line)) {
                    panic!("{doc}: `ppp-repro {line}` does not parse: {e}");
                }
            }
        }
    }

    #[test]
    fn continuations_are_joined_before_parsing() {
        let doc = "x:\n        run: >\n          cargo run -p ppp-repro -- jit mcf --quick\n          \
                   --seed 7 > /dev/null\n      - name: next\ncargo run -- ppp-repro -- drive \\\n    \
                   --tcp &\n";
        assert_eq!(
            documented_invocations(doc),
            ["jit mcf --quick --seed 7 ", "drive --tcp "]
        );
    }
}
