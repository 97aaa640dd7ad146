//! The `ingest` workload: a closed loop of at most `nproc` TCP clients,
//! each replaying pre-encoded benchmark streams into a durable `Server`
//! and starting its next stream only after the previous one is acked.
//! After the streams the run takes a snapshot, drops the server, and
//! recovers the aggregators from the WAL and checkpoints on disk.
//!
//! The frames are cut in set-up from delta-exporting traced runs of the
//! suite, so no interpreter work runs in the measured window: CRC, codec,
//! WAL and merge carry all of its cost. A stream goes over the wire the
//! way `AggClient` over `TcpSink` sends it: `Hello` (acked), the sequenced
//! delta frames pipelined without waiting, and one `Done`, whose ack
//! carries the client's watermark; the client checks it equals the last
//! frame's sequence number.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Instant;

use ppp_agg::wal::Wal;
use ppp_agg::{
    run_indexed, AggClient, AggConfig, AggService, Aggregator, DurOptions, FrameSink, Hello,
    IngestOutcome, ModuleResolver, ServeOptions, Server, TcpSink,
};
use ppp_ir::wire::{decode_frame, encode_frame, split_seq_payload, FrameKind};
use ppp_ir::{
    crc32, read_edge_profile_v2, read_path_profile_v2, write_edge_profile_v2,
    write_path_profile_v2, Module, ModuleEdgeProfile, ModulePathProfile,
};
use ppp_vm::{run, RunOptions};
use ppp_workloads::{generate, spec2000_suite};

use crate::calib;
use crate::stats::{median, percentile, typical_pass};
use crate::trace::Tracer;
use crate::{Outcome, RunArgs, RunDir};

/// Input draws: fewer than the other workloads cycle through, since
/// set-up cuts the frames of every draw, and a pass is short enough that
/// each draw is timed many times.
const DRAWS: usize = 4;

/// Workload scale of the runs the frames are cut from.
pub const SCALE: f64 = 0.25;

/// Trace events per delta cut.
const DELTA_INTERVAL: u64 = 2048;

/// Deltas per frame, as `AggClient` batches them.
const BATCH: usize = 4;

/// The server checkpoints after this many accepted deltas, as `repro
/// serve` does by default, so recovery reads a checkpoint and replays the
/// WAL written after it.
const CHECKPOINT_EVERY: u64 = 64;

const CONFIG: AggConfig = AggConfig {
    shards: 2,
    queue_cap: 64,
};

/// Each codec probe repeats until it has run this long.
const PROBE_SECONDS: f64 = 0.2;

struct Frame {
    seq: u64,
    kind: FrameKind,
    bytes: Vec<u8>,
}

/// One benchmark's delta stream.
struct Stream {
    bench: String,
    module: Arc<Module>,
    hello: Vec<u8>,
    frames: Vec<Frame>,
    /// Sequence number of the last frame: the watermark `Done` must ack.
    last_seq: u64,
    /// persist_v2 bytes of a local saturating merge of the frames.
    reference: (String, String),
}

pub struct Setup {
    /// Per input draw, one stream per benchmark.
    draws: Vec<Vec<Stream>>,
    clients: usize,
    generate_ms: f64,
}

/// A sink that keeps the frames an `AggClient` sends.
struct Capture(Vec<Vec<u8>>);

impl FrameSink for Capture {
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.0.push(bytes.to_vec());
        Ok(())
    }
}

pub fn setup(r: &RunArgs) -> Result<Setup, String> {
    let t = Instant::now();
    let modules: Vec<(String, Arc<Module>)> = spec2000_suite()
        .iter()
        .map(|e| {
            let module = generate(&e.spec.clone().scaled(SCALE));
            (e.spec.name.clone(), Arc::new(module))
        })
        .collect();
    let generate_ms = t.elapsed().as_secs_f64() * 1e3;
    // The draws are cut on up to `nproc` threads.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let draws = run_indexed(nproc, DRAWS, |d| {
        modules
            .iter()
            .enumerate()
            .map(|(i, (bench, module))| cut_stream(bench, module, i as u64 + 1, r.draw_seed(d)))
            .collect::<Result<Vec<_>, String>>()
    })
    .into_iter()
    .collect::<Result<Vec<_>, String>>()?;
    Ok(Setup {
        clients: nproc.min(modules.len()),
        draws,
        generate_ms,
    })
}

/// Cuts the frames a client with id `worker` sends for one traced run of
/// `module`: a delta-exporting run, batched and encoded by `AggClient`.
fn cut_stream(bench: &str, module: &Arc<Module>, worker: u64, seed: u64) -> Result<Stream, String> {
    let err = |e: &dyn std::fmt::Display| format!("{bench}: {e}");
    let options = RunOptions::default()
        .traced()
        .with_seed(seed)
        .with_delta_interval(DELTA_INTERVAL);
    let result = run(module, "main", &options).map_err(|e| err(&e))?;
    let hello = Hello {
        bench: bench.to_owned(),
        funcs: module.functions.len(),
        scale_bits: SCALE.to_bits(),
        worker,
    };
    let mut client = AggClient::open(Arc::clone(module), Capture(Vec::new()), BATCH, &hello)?;
    for d in &result.deltas {
        client.push_delta(&d.edges, &d.paths)?;
    }
    client.finish()?;
    let mut captured = client.into_sink().0;
    captured.pop(); // the closing `Done`
    let hello = captured.remove(0);

    let mut edges = ModuleEdgeProfile::zeroed(module);
    let mut paths = ModulePathProfile::with_capacity(module.functions.len());
    let mut frames = Vec::new();
    for bytes in captured {
        let (frame, _) = decode_frame(&bytes).map_err(|e| err(&e))?;
        let (_, seq, body) = split_seq_payload(&frame.payload).map_err(|e| err(&e))?;
        match frame.kind {
            FrameKind::SeqEdgeDelta => {
                edges.merge(&read_edge_profile_v2(module, body).map_err(|e| err(&e))?)
            }
            FrameKind::SeqPathDelta => {
                paths.merge(&read_path_profile_v2(module, body).map_err(|e| err(&e))?)
            }
            other => return Err(format!("{bench}: unexpected {other} frame")),
        }
        frames.push(Frame {
            seq,
            kind: frame.kind,
            bytes,
        });
    }
    Ok(Stream {
        bench: bench.to_owned(),
        module: Arc::clone(module),
        hello,
        last_seq: frames.last().map_or(0, |f| f.seq),
        frames,
        reference: (
            write_edge_profile_v2(module, &edges),
            write_path_profile_v2(module, &paths),
        ),
    })
}

#[derive(Default)]
struct ClientStats {
    attempted: u64,
    failed: u64,
    acked: u64,
    bytes: u64,
    rejects: u64,
    /// Hello→`Done`-ack time in ms per stream, by its position in the draw.
    lat: Vec<(usize, f64)>,
    /// Streams whose `Done` was not acked with their last sequence number.
    check_failures: Vec<String>,
}

/// Streams each of `streams` over its own connection: hello, the delta
/// frames pipelined, then `Done`, whose ack must carry the last frame's
/// sequence number. One stream is in flight at a time.
fn client<'a>(
    addr: SocketAddr,
    streams: impl Iterator<Item = (usize, &'a Stream)>,
    tr: &mut Tracer,
) -> ClientStats {
    let done = encode_frame(FrameKind::Done, b"");
    let mut st = ClientStats::default();
    for (op, s) in streams {
        let n = s.frames.len() as u64;
        // Every frame, and the check of the final watermark.
        st.attempted += n + 1;
        let t = Instant::now();
        let ack = tr.span("agg.stream", |_| {
            let mut sink = TcpSink::connect(addr).map_err(|e| format!("connect: {e}"))?;
            sink.send_frame(&s.hello)?;
            for f in &s.frames {
                sink.send_frame(&f.bytes)?;
            }
            sink.send_frame(&done)?;
            sink.read_ack()
        });
        st.lat.push((op, t.elapsed().as_secs_f64() * 1e3));
        match ack {
            Ok(w) => {
                for f in &s.frames {
                    if f.seq <= w {
                        st.acked += 1;
                        st.bytes += f.bytes.len() as u64;
                    } else {
                        st.failed += 1;
                    }
                }
                if w != s.last_seq {
                    st.check_failures.push(format!(
                        "{}: done acked watermark {w}, the last frame is seq {}",
                        s.bench, s.last_seq
                    ));
                }
            }
            Err(e) => {
                // A stream whose `Done` is never acked has no frame
                // confirmed, and its watermark check fails too.
                st.failed += n;
                if e.contains("rejected") {
                    st.rejects += 1;
                }
                st.check_failures.push(format!("{}: {e}", s.bench));
            }
        }
    }
    st
}

#[derive(Default)]
struct PassStats {
    /// Hello→`Done`-ack time in ms per stream, by stream.
    lat: Vec<(usize, f64)>,
    /// Per stream: snapshot and persist_v2 encoding, ms.
    snapshot_ms: Vec<f64>,
    /// Per stream: recovery from disk until the state is readable, ms.
    recover_ms: Vec<f64>,
    acked: u64,
    bytes: u64,
    rejects: u64,
    stalls: u64,
    duplicates: u64,
}

fn encode(module: &Module, snap: &(ModuleEdgeProfile, ModulePathProfile)) -> (String, String) {
    (
        write_edge_profile_v2(module, &snap.0),
        write_path_profile_v2(module, &snap.1),
    )
}

/// One pass: fresh directory and server, the closed-loop stream, a
/// snapshot, the server dropped, and recovery from disk.
fn pass(
    streams: &[Stream],
    clients: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<PassStats, String> {
    let dir = RunDir::new()?;
    let dur = DurOptions::new(dir.path(), CHECKPOINT_EVERY);
    let mut ps = PassStats::default();
    let service = AggService::new_durable(CONFIG, dur.clone());
    let modules: BTreeMap<String, Arc<Module>> = streams
        .iter()
        .map(|st| (st.bench.clone(), Arc::clone(&st.module)))
        .collect();
    let resolver: Arc<ModuleResolver> = Arc::new(move |h: &Hello| modules.get(&h.bench).cloned());
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let server = Server::spawn(
        listener,
        Arc::clone(&service),
        resolver,
        ServeOptions::default(),
    )
    .map_err(|e| format!("spawn: {e}"))?;
    let addr = server.addr();

    let clients = tr.span("bench.stream", |tr| {
        std::thread::scope(|sc| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let mut ct = tr.fork();
                    let mine = streams.iter().enumerate().skip(c).step_by(clients);
                    sc.spawn(move || (client(addr, mine, &mut ct), ct))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        })
    });
    for (st, ct) in clients {
        tr.join(ct);
        out.attempted += st.attempted;
        out.failed += st.failed;
        ps.acked += st.acked;
        ps.bytes += st.bytes;
        ps.rejects += st.rejects;
        ps.lat.extend(st.lat);
        for e in st.check_failures {
            out.fail_check(e);
        }
    }

    let mut before = Vec::new();
    for st in streams {
        let agg = service
            .get(&st.bench)
            .ok_or_else(|| format!("{}: no aggregator after the stream", st.bench))?;
        let t = Instant::now();
        let snap = tr.span("agg.snapshot", |_| agg.snapshot());
        let bytes = tr.span("ir.v2_encode", |_| encode(&st.module, &snap));
        ps.snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ps.stalls += agg.backpressure_stalls();
        out.attempted += 1;
        if bytes != st.reference {
            out.fail_check(format!(
                "{}: snapshot differs from the local merge of its frames",
                st.bench
            ));
        }
        before.push(bytes);
    }
    // Dropping the server and the service stops them without a final
    // checkpoint; what recovery finds on disk is what the stream wrote.
    tr.span("agg.stop", |_| {
        drop(server);
        drop(service);
    });

    for (st, want) in streams.iter().zip(&before) {
        let t = Instant::now();
        let (agg, report) = tr.span("agg.recover", |_| {
            let (agg, report) =
                Aggregator::recover(&st.bench, Arc::clone(&st.module), CONFIG, dur.clone())?;
            let snap = agg.snapshot();
            Ok::<_, String>(((agg, snap), report))
        })?;
        ps.recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        ps.duplicates += report.duplicates;
        let (agg, snap) = agg;
        let bytes = tr.span("ir.v2_encode", |_| encode(&st.module, &snap));
        out.attempted += 1;
        if &bytes != want {
            out.fail_check(format!(
                "{}: recovered snapshot differs from the one before the stop",
                st.bench
            ));
        }
        drop(agg);
    }
    Ok(ps)
}

/// Every pass's per-operation times, kept per draw so each operation's
/// median over the passes of its draw can stand for it.
struct Typical {
    streams: Vec<Vec<Vec<f64>>>,
    /// Frames of each draw.
    frames: Vec<usize>,
    snapshots: Vec<Vec<Vec<f64>>>,
    recoveries: Vec<Vec<Vec<f64>>>,
}

impl Typical {
    fn new(s: &Setup) -> Self {
        let per_draw = |n: &dyn Fn(&[Stream]) -> usize| -> Vec<Vec<Vec<f64>>> {
            s.draws.iter().map(|d| vec![Vec::new(); n(d)]).collect()
        };
        Self {
            streams: per_draw(&|d| d.len()),
            frames: s
                .draws
                .iter()
                .map(|d| d.iter().map(|st| st.frames.len()).sum())
                .collect(),
            snapshots: per_draw(&|d| d.len()),
            recoveries: per_draw(&|d| d.len()),
        }
    }

    /// Adds one pass's times on `draw`, divided by the host's slowdown
    /// `slow` over the pass.
    fn add(&mut self, draw: usize, p: &PassStats, slow: f64) {
        for &(op, ms) in &p.lat {
            self.streams[draw][op].push(ms / slow);
        }
        for (b, &ms) in p.snapshot_ms.iter().enumerate() {
            self.snapshots[draw][b].push(ms / slow);
        }
        for (b, &ms) in p.recover_ms.iter().enumerate() {
            self.recoveries[draw][b].push(ms / slow);
        }
    }

    /// A typical pass in seconds and the frames per second of a typical
    /// stream phase, averaged over the draws. The clients stream
    /// concurrently, so the streams' summed time is shared among them.
    fn report(&self, clients: usize) -> (f64, f64) {
        let sum = |ops: &[Vec<f64>]| typical_pass(ops, 1) / 1e3;
        let (mut pass_s, mut stream_s) = (0.0, 0.0);
        for d in 0..self.streams.len() {
            let stream = sum(&self.streams[d]) / clients as f64;
            pass_s += stream + sum(&self.snapshots[d]) + sum(&self.recoveries[d]);
            stream_s += stream;
        }
        let frames: usize = self.frames.iter().sum();
        (pass_s / self.streams.len() as f64, frames as f64 / stream_s)
    }
}

pub fn timed(s: &Setup, r: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let _flight = install_flight()?;
    let mut tr = Tracer::new(false);
    let mut typical = Typical::new(s);
    let mut slowdowns = Vec::new();
    let started = Instant::now();
    while !r.done(started, slowdowns.len(), 2 * DRAWS) {
        let draw = slowdowns.len() % DRAWS;
        let (p, slow) = calib::bracket(|| pass(&s.draws[draw], s.clients, &mut tr, &mut out));
        typical.add(draw, &p?, slow);
        slowdowns.push(slow);
    }
    let (pass_s, frames_per_s) = typical.report(s.clients);
    out.set("pass_s", pass_s);
    out.set("ops_per_s", frames_per_s);
    notes(s, &mut out, slowdowns.len());
    out.notes
        .push(("host_slowdown", median(&slowdowns).to_string()));
    Ok(out)
}

fn notes(s: &Setup, out: &mut Outcome, passes: usize) {
    let frames: Vec<String> = s
        .draws
        .iter()
        .map(|d| {
            d.iter()
                .map(|st| st.frames.len())
                .sum::<usize>()
                .to_string()
        })
        .collect();
    out.notes.push(("scale", SCALE.to_string()));
    out.notes.push(("clients", s.clients.to_string()));
    out.notes.push(("frames_per_draw", frames.join("/")));
    out.notes.push(("passes", passes.to_string()));
}

/// Flight-recorder dumps go to a directory of this run's own, as the
/// serve tier's do; it is removed when the returned guard drops.
fn install_flight() -> Result<RunDir, String> {
    let dir = RunDir::new()?;
    ppp_obs::install_flight(dir.path().join("flight"), ppp_obs::DEFAULT_FLIGHT_CAPACITY);
    Ok(dir)
}

/// Megabytes per second of `f` over `bytes` bytes per round, repeated
/// for at least [`PROBE_SECONDS`].
fn throughput(bytes: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || t.elapsed().as_secs_f64() < PROBE_SECONDS {
        f();
        rounds += 1;
    }
    (bytes as f64 * rounds as f64) / t.elapsed().as_secs_f64() / 1e6
}

/// The `ir` layer alone on this workload's frames.
fn probe_codec(streams: &[Stream], out: &mut Outcome) -> Result<(), String> {
    let frames: Vec<(&Module, &Frame)> = streams
        .iter()
        .flat_map(|st| st.frames.iter().map(move |f| (&*st.module, f)))
        .collect();
    let wire: usize = frames.iter().map(|(_, f)| f.bytes.len()).sum();
    out.set(
        "ir.crc32_mb_per_s",
        throughput(wire, || {
            for (_, f) in &frames {
                black_box(crc32(black_box(&f.bytes)));
            }
        }),
    );
    out.set(
        "ir.wire_decode_mb_per_s",
        throughput(wire, || {
            for (_, f) in &frames {
                black_box(decode_frame(black_box(&f.bytes)).is_ok());
            }
        }),
    );
    enum Decoded {
        Edges(ModuleEdgeProfile),
        Paths(ModulePathProfile),
    }
    let mut bodies = Vec::new();
    for (m, f) in &frames {
        let (frame, _) = decode_frame(&f.bytes).map_err(|e| e.to_string())?;
        let (_, _, body) = split_seq_payload(&frame.payload).map_err(|e| e.to_string())?;
        bodies.push((*m, f.kind, body.to_vec()));
    }
    let body_bytes: usize = bodies.iter().map(|b| b.2.len()).sum();
    let decode = |m: &Module, kind: FrameKind, body: &[u8]| -> Result<Decoded, String> {
        Ok(match kind {
            FrameKind::SeqEdgeDelta => {
                Decoded::Edges(read_edge_profile_v2(m, body).map_err(|e| e.to_string())?)
            }
            _ => Decoded::Paths(read_path_profile_v2(m, body).map_err(|e| e.to_string())?),
        })
    };
    let mut failed = None;
    out.set(
        "ir.v2_decode_mb_per_s",
        throughput(body_bytes, || {
            for (m, kind, body) in &bodies {
                if let Err(e) = decode(m, *kind, body).map(black_box) {
                    failed = Some(e);
                }
            }
        }),
    );
    if let Some(e) = failed {
        return Err(e);
    }
    let decoded = bodies
        .iter()
        .map(|(m, kind, body)| Ok((*m, decode(m, *kind, body)?)))
        .collect::<Result<Vec<_>, String>>()?;
    out.set(
        "ir.v2_encode_mb_per_s",
        throughput(body_bytes, || {
            for (m, d) in &decoded {
                match d {
                    Decoded::Edges(e) => black_box(write_edge_profile_v2(m, e)),
                    Decoded::Paths(p) => black_box(write_path_profile_v2(m, p)),
                };
            }
        }),
    );
    Ok(())
}

/// The `agg` layer in process: `ingest_frame` on durable aggregators,
/// explicit checkpoints, and WAL appends, each timed per call.
fn probe_agg(streams: &[Stream], out: &mut Outcome) -> Result<(), String> {
    let dir = RunDir::new()?;
    let mut ingest_us = Vec::new();
    let mut checkpoint_ms = Vec::new();
    let mut duplicates = 0u64;
    for st in streams {
        let dur = DurOptions::new(dir.path(), 0);
        let (agg, _) = Aggregator::recover(&st.bench, Arc::clone(&st.module), CONFIG, dur)?;
        for f in &st.frames {
            let (frame, _) = decode_frame(&f.bytes).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let outcome = agg.ingest_frame(&frame);
            ingest_us.push(t.elapsed().as_secs_f64() * 1e6);
            out.attempted += 1;
            match outcome {
                Ok(IngestOutcome::Applied) => {}
                Ok(IngestOutcome::Duplicate) => duplicates += 1,
                Err(e) => out.fail_check(format!("{}: in-process ingest: {e}", st.bench)),
            }
        }
        let t = Instant::now();
        agg.checkpoint()?;
        checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        if encode(&st.module, &agg.snapshot()) != st.reference {
            out.fail_check(format!(
                "{}: in-process snapshot differs from the local merge",
                st.bench
            ));
        }
    }
    let mut wal =
        Wal::open(&dir.path().join("append.wal"), 0, "append").map_err(|e| format!("wal: {e}"))?;
    let mut append_us = Vec::new();
    for f in streams.iter().flat_map(|st| &st.frames) {
        let t = Instant::now();
        wal.append(&f.bytes)
            .map_err(|e| format!("wal append: {e}"))?;
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.set("agg.ingest_frame_p50_us", percentile(&ingest_us, 0.50));
    out.set("agg.ingest_frame_p99_us", percentile(&ingest_us, 0.99));
    out.set("agg.wal_append_p50_us", percentile(&append_us, 0.50));
    out.notes
        .push(("ingest_frame_samples", ingest_us.len().to_string()));
    out.set("agg.checkpoint_ms", median(&checkpoint_ms));
    out.set("agg.duplicates", duplicates as f64);
    Ok(())
}

pub fn traced(s: &Setup, r: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let _flight = install_flight()?;
    let mut root = Tracer::new(true);
    let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
    let (mut snapshot_ms, mut recover_ms) = (Vec::new(), Vec::new());
    let mut draw0 = PassStats::default();
    let started = Instant::now();
    // Each draw runs twice in a row, once recording spans and once not, so
    // the two medians give the tracing overhead.
    while !r.done(started, on_s.len() + off_s.len(), 2 * DRAWS) {
        let p = on_s.len() + off_s.len();
        let (on, draw) = (p % 2 == 0, (p / 2) % DRAWS);
        let mut tr = if on { root.fork() } else { Tracer::new(false) };
        let t = Instant::now();
        let stats = tr.span("bench.pass", |tr| {
            pass(&s.draws[draw], s.clients, tr, &mut out)
        })?;
        let wall = t.elapsed().as_secs_f64();
        if on {
            on_s.push(wall);
            snapshot_ms.push(tr.total_ms("agg.snapshot"));
            recover_ms.push(tr.total_ms("agg.recover"));
            root.join(tr);
        } else {
            off_s.push(wall);
        }
        if draw == 0 {
            draw0 = stats;
        }
    }
    probe_codec(&s.draws[0], &mut out)?;
    probe_agg(&s.draws[0], &mut out)?;
    out.set("workloads.generate_ms", s.generate_ms);
    out.set("agg.snapshot_ms", median(&snapshot_ms));
    out.set("agg.recover_ms", median(&recover_ms));
    out.set("agg.frames", draw0.acked as f64);
    out.set("agg.bytes", draw0.bytes as f64);
    out.set("agg.backpressure_stalls", draw0.stalls as f64);
    out.set("agg.rejects", draw0.rejects as f64);
    let in_process = out.metrics.get("agg.duplicates").copied().unwrap_or(0.0);
    out.set("agg.duplicates", in_process + draw0.duplicates as f64);
    out.set("trace_overhead", median(&on_s) / median(&off_s));
    out.set_shares(&root);
    crate::write_trace("ingest", r.seed, &root);
    notes(s, &mut out, on_s.len() + off_s.len());
    Ok(out)
}
