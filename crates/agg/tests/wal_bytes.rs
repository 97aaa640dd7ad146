//! The WAL logs exactly the bytes a client sent: streaming sequenced
//! frames into a durable aggregator (no automatic checkpoints) leaves a
//! WAL that is the byte-for-byte concatenation of the client's delta
//! frames, over TCP and in process alike, and recovering from that WAL
//! alone rebuilds the same persist_v2 snapshot.

use ppp_agg::wal::wal_path;
use ppp_agg::{
    AggClient, AggConfig, AggService, Aggregator, DurOptions, FrameSink, Hello, InProcSink,
    ModuleResolver, ServeOptions, Server, TcpSink,
};
use ppp_ir::wire::{encode_frame, FrameKind};
use ppp_ir::{write_edge_profile_v2, write_path_profile_v2, Module};
use ppp_vm::{run, RunOptions};
use ppp_workloads::{generate, spec2000_suite};
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;

const SCALE: f64 = 0.02;

const CONFIG: AggConfig = AggConfig {
    shards: 2,
    queue_cap: 8,
};

/// A sink that keeps every frame an `AggClient` sends, as bytes.
struct Capture(Vec<Vec<u8>>);

impl FrameSink for Capture {
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.0.push(bytes.to_vec());
        Ok(())
    }
}

/// One benchmark's client stream: hello, the sequenced delta frames and
/// done, each as the client encoded it.
struct Stream {
    bench: String,
    module: Arc<Module>,
    hello: Vec<u8>,
    deltas: Vec<Vec<u8>>,
    done: Vec<u8>,
}

fn streams() -> Vec<Stream> {
    spec2000_suite()
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            let module = Arc::new(generate(&e.spec.clone().scaled(SCALE)));
            let options = RunOptions::default()
                .traced()
                .with_seed(i as u64 + 1)
                .with_delta_interval(1024);
            let result = run(&module, "main", &options).expect("runs");
            let hello = Hello {
                bench: e.spec.name.clone(),
                funcs: module.functions.len(),
                scale_bits: SCALE.to_bits(),
                worker: i as u64 + 1,
            };
            let mut client =
                AggClient::open(Arc::clone(&module), Capture(Vec::new()), 2, &hello).expect("open");
            for d in &result.deltas {
                client.push_delta(&d.edges, &d.paths).expect("push");
            }
            client.finish().expect("finish");
            let mut frames = client.into_sink().0;
            let done = frames.pop().expect("done frame");
            let hello = frames.remove(0);
            assert_eq!(done, encode_frame(FrameKind::Done, b""));
            Stream {
                bench: e.spec.name,
                module,
                hello,
                deltas: frames,
                done,
            }
        })
        .collect()
}

fn persisted(agg: &Aggregator) -> (String, String) {
    let (edges, paths) = agg.snapshot();
    (
        write_edge_profile_v2(agg.module(), &edges),
        write_path_profile_v2(agg.module(), &paths),
    )
}

/// Checks the WAL under `dir` is the concatenation of the stream's delta
/// frames, then recovers from a copy of that WAL alone and compares
/// snapshots.
fn check_wal(st: &Stream, dir: &Path, live: &Aggregator, how: &str) {
    let wal = std::fs::read(wal_path(dir, &st.bench)).expect("wal exists");
    assert!(!st.deltas.is_empty(), "{}: no delta frames", st.bench);
    assert!(
        wal == st.deltas.concat(),
        "{} ({how}): WAL is not the client's delta frames byte for byte",
        st.bench
    );
    let copy = ppp_obs::Scratch::new("wal-bytes-recover").expect("scratch dir");
    std::fs::write(wal_path(copy.path(), &st.bench), &wal).expect("copy wal");
    let (recovered, report) = Aggregator::recover(
        &st.bench,
        Arc::clone(&st.module),
        CONFIG,
        DurOptions::new(copy.path(), 0),
    )
    .expect("recover");
    assert!(!report.had_checkpoint);
    assert_eq!(report.replayed, st.deltas.len() as u64, "{}", st.bench);
    assert_eq!(
        persisted(&recovered),
        persisted(live),
        "{} ({how}): recovered snapshot differs",
        st.bench
    );
}

#[test]
fn in_process_wal_is_the_sent_frames() {
    for st in streams() {
        let tmp = ppp_obs::Scratch::new("wal-bytes-inproc").expect("scratch dir");
        let (agg, _) = Aggregator::recover(
            &st.bench,
            Arc::clone(&st.module),
            CONFIG,
            DurOptions::new(tmp.path(), 0),
        )
        .expect("durable aggregator");
        let agg = Arc::new(agg);
        let mut sink = InProcSink::new(Arc::clone(&agg));
        sink.send_frame(&st.hello).expect("hello");
        for f in &st.deltas {
            sink.send_frame(f).expect("delta");
        }
        sink.send_frame(&st.done).expect("done");
        check_wal(&st, tmp.path(), &agg, "in process");
    }
}

#[test]
fn tcp_wal_is_the_sent_frames() {
    let streams = streams();
    let tmp = ppp_obs::Scratch::new("wal-bytes-tcp").expect("scratch dir");
    let service = AggService::new_durable(CONFIG, DurOptions::new(tmp.path(), 0));
    let modules: Vec<(String, Arc<Module>)> = streams
        .iter()
        .map(|st| (st.bench.clone(), Arc::clone(&st.module)))
        .collect();
    let resolver: Arc<ModuleResolver> = Arc::new(move |h: &Hello| {
        modules
            .iter()
            .find(|(b, _)| *b == h.bench)
            .map(|(_, m)| Arc::clone(m))
    });
    let server = Server::spawn(
        TcpListener::bind("127.0.0.1:0").expect("bind"),
        Arc::clone(&service),
        resolver,
        ServeOptions::default(),
    )
    .expect("spawn");
    for st in &streams {
        let mut sink = TcpSink::connect(server.addr()).expect("connect");
        sink.send_frame(&st.hello).expect("hello");
        for f in &st.deltas {
            sink.send_frame(f).expect("delta");
        }
        sink.send_frame(&st.done).expect("done");
        // The done ack comes after every delta before it was logged.
        sink.read_ack().expect("done ack");
        let agg = service.get(&st.bench).expect("registered");
        check_wal(st, tmp.path(), &agg, "tcp");
    }
    server.shutdown();
}
