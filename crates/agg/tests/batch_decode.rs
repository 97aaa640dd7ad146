//! Decoding a delta straight into per-shard batches and adding them in
//! gives the same profile as the strict persist_v2 loader plus a merge:
//! over the delta frames of every suite benchmark for 1–4 shards, and on
//! hand-made containers that pin the loaders' rules for repeated records
//! (an edge counter set twice keeps its last value, a path recorded
//! twice sums). A frame whose CRCs hold but whose records do not parse
//! is refused before anything is logged.

use ppp_agg::wal::wal_path;
use ppp_agg::{AggClient, AggConfig, Aggregator, DurOptions, FrameSink, Hello, IngestOutcome};
use ppp_ir::wire::{decode_frame, encode_frame, encode_seq_payload, split_seq_payload, FrameKind};
use ppp_ir::{
    crc32, decode_edge_delta, decode_path_delta, read_edge_profile_v2, read_path_profile_v2,
    write_edge_profile_v2, write_path_profile_v2, BlockId, EdgeRef, FuncId, FunctionBuilder,
    Module, ModuleEdgeProfile, ModulePathProfile, PathKey, Reg,
};
use ppp_vm::{run, RunOptions};
use ppp_workloads::{generate, spec2000_suite};
use std::sync::Arc;

const SCALE: f64 = 0.02;

/// A sequenced delta's frame kind and persist_v2 container.
type Delta = (FrameKind, Vec<u8>);

/// A sink that keeps the sequenced delta frames' containers.
struct Containers(Vec<Delta>);

impl FrameSink for Containers {
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), String> {
        let (frame, _) = decode_frame(bytes).map_err(|e| e.to_string())?;
        if matches!(
            frame.kind,
            FrameKind::SeqEdgeDelta | FrameKind::SeqPathDelta
        ) {
            let (_, _, container) = split_seq_payload(&frame.payload).map_err(|e| e.to_string())?;
            self.0.push((frame.kind, container.to_vec()));
        }
        Ok(())
    }
}

fn suite_deltas() -> Vec<(Arc<Module>, Vec<Delta>)> {
    spec2000_suite()
        .into_iter()
        .enumerate()
        .map(|(i, e)| {
            let module = Arc::new(generate(&e.spec.clone().scaled(SCALE)));
            let options = RunOptions::default()
                .traced()
                .with_seed(i as u64 + 3)
                .with_delta_interval(1024);
            let result = run(&module, "main", &options).expect("runs");
            let hello = Hello {
                bench: e.spec.name.clone(),
                funcs: module.functions.len(),
                scale_bits: SCALE.to_bits(),
                worker: 1,
            };
            let mut client =
                AggClient::open(Arc::clone(&module), Containers(Vec::new()), 3, &hello)
                    .expect("open");
            for d in &result.deltas {
                client.push_delta(&d.edges, &d.paths).expect("push");
            }
            client.finish().expect("finish");
            (module, client.into_sink().0)
        })
        .collect()
}

fn persisted(m: &Module, edges: &ModuleEdgeProfile, paths: &ModulePathProfile) -> (String, String) {
    (
        write_edge_profile_v2(m, edges),
        write_path_profile_v2(m, paths),
    )
}

/// Batch decode plus add, checking every batch holds only its shard's
/// functions.
fn batch_merge(
    m: &Module,
    deltas: &[Delta],
    shards: usize,
) -> (ModuleEdgeProfile, ModulePathProfile) {
    let mut edges = ModuleEdgeProfile::zeroed(m);
    let mut paths = ModulePathProfile::with_capacity(m.functions.len());
    for (kind, container) in deltas {
        if *kind == FrameKind::SeqEdgeDelta {
            let batches = decode_edge_delta(m, container, shards).expect("edge delta decodes");
            assert_eq!(batches.len(), shards);
            for (k, batch) in batches.iter().enumerate() {
                for d in batch {
                    assert_eq!(d.func().index() % shards, k, "function in the wrong batch");
                    assert!(!d.is_empty());
                    edges.func_mut(d.func()).add_delta(d);
                }
            }
        } else {
            let batches = decode_path_delta(m, container, shards).expect("path delta decodes");
            assert_eq!(batches.len(), shards);
            for (k, batch) in batches.into_iter().enumerate() {
                for d in batch {
                    assert_eq!(d.func().index() % shards, k, "function in the wrong batch");
                    paths.func_mut(d.func()).absorb(d);
                }
            }
        }
    }
    (edges, paths)
}

#[test]
fn batch_decode_matches_the_strict_loaders_across_the_suite() {
    for (m, deltas) in suite_deltas() {
        let mut edges = ModuleEdgeProfile::zeroed(&m);
        let mut paths = ModulePathProfile::with_capacity(m.functions.len());
        for (kind, container) in &deltas {
            if *kind == FrameKind::SeqEdgeDelta {
                edges.merge(&read_edge_profile_v2(&m, container).expect("loads"));
            } else {
                paths.merge(&read_path_profile_v2(&m, container).expect("loads"));
            }
        }
        let want = persisted(&m, &edges, &paths);
        for shards in 1..=4 {
            let (e, p) = batch_merge(&m, &deltas, shards);
            assert_eq!(persisted(&m, &e, &p), want, "{shards} shards, decoder");

            // The same deltas through an aggregator's shard threads.
            let agg = Aggregator::new(
                "batch",
                Arc::clone(&m),
                AggConfig {
                    shards,
                    queue_cap: 4,
                },
            );
            for (seq, (kind, container)) in deltas.iter().enumerate() {
                let frame =
                    ppp_ir::Frame::new(*kind, encode_seq_payload(1, seq as u64 + 1, container));
                assert_eq!(
                    agg.ingest_frame(&frame).expect("ingests"),
                    IngestOutcome::Applied
                );
            }
            let (e, p) = agg.snapshot();
            assert_eq!(persisted(&m, &e, &p), want, "{shards} shards, aggregator");
        }
    }
}

/// `main`: b0 branches to b1 or b2, both jump to b3, which returns.
fn diamond() -> Module {
    let mut m = Module::new();
    let mut b = FunctionBuilder::new("main", 1);
    let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
    b.branch(Reg(0), t, e);
    b.switch_to(t);
    b.jump(j);
    b.switch_to(e);
    b.jump(j);
    b.switch_to(j);
    b.ret(None);
    m.add_function(b.finish());
    let mut g = FunctionBuilder::new("g", 0);
    g.ret(None);
    m.add_function(g.finish());
    m
}

/// A v2 container with one hand-written payload per function and valid
/// section CRCs.
fn container(kind: &str, m: &Module, payloads: &[&str]) -> Vec<u8> {
    let mut out = format!("ppp-profile v2 {kind} funcs {}\n", payloads.len());
    for (i, (f, p)) in m.functions.iter().zip(payloads).enumerate() {
        out.push_str(&format!(
            "func {i} len {} crc {:08x} name {}\n",
            p.len(),
            crc32(p.as_bytes()),
            f.name
        ));
        out.push_str(p);
    }
    out.push_str("end\n");
    out.into_bytes()
}

#[test]
fn repeated_edge_records_keep_the_last_value() {
    let m = diamond();
    // Out of writer order, with repeats: a counter raised, one lowered,
    // one set back to zero, and a comment.
    let bytes = container(
        "edge",
        &m,
        &[
            "edge b0 1 4\nblock b0 5\nentries 3\nblock b0 7 ; again\nedge b0 1 2\n\
             block b1 9\nblock b1 0\nedge b1 0 6\n",
            "entries 2\nentries 1\n",
        ],
    );
    let dense = read_edge_profile_v2(&m, &bytes).expect("loads");
    let f0 = dense.func(FuncId(0));
    assert_eq!(f0.entries(), 3);
    assert_eq!(f0.block(BlockId(0)), 7);
    assert_eq!(f0.edge(EdgeRef::new(BlockId(0), 1)), 2);
    assert_eq!(f0.block(BlockId(1)), 0);
    assert_eq!(f0.edge(EdgeRef::new(BlockId(1), 0)), 6);
    assert_eq!(dense.func(FuncId(1)).entries(), 1);
    for shards in 1..=3 {
        let (e, _) = batch_merge(&m, &[(FrameKind::SeqEdgeDelta, bytes.clone())], shards);
        assert_eq!(e, dense, "{shards} shards");
    }
}

#[test]
fn repeated_path_records_sum() {
    let m = diamond();
    let bytes = container(
        "path",
        &m,
        &[
            "path b0 2 : b0#0 b1#0\npath b0 0 : b0#1 b2#0\npath b0 3 : b0#0 b1#0\n",
            "path b0 4 :\npath b0 1 :\n",
        ],
    );
    let dense = read_path_profile_v2(&m, &bytes).expect("loads");
    let key = |edges: Vec<EdgeRef>| PathKey {
        start: BlockId(0),
        edges,
    };
    let hot = key(vec![
        EdgeRef::new(BlockId(0), 0),
        EdgeRef::new(BlockId(1), 0),
    ]);
    let zero = key(vec![
        EdgeRef::new(BlockId(0), 1),
        EdgeRef::new(BlockId(2), 0),
    ]);
    let f0 = dense.func(FuncId(0));
    assert_eq!(f0.paths[&hot].freq, 5);
    assert_eq!(f0.paths[&hot].branches, 1);
    assert_eq!(
        f0.paths[&zero].freq, 0,
        "a zero-count path is still recorded"
    );
    assert_eq!(dense.func(FuncId(1)).paths[&key(vec![])].freq, 5);
    for shards in 1..=3 {
        let (_, p) = batch_merge(&m, &[(FrameKind::SeqPathDelta, bytes.clone())], shards);
        assert_eq!(p, dense, "{shards} shards");
    }
}

#[test]
fn crc_valid_frame_with_bad_records_is_refused_before_logging() {
    let m = Arc::new(diamond());
    let tmp = ppp_obs::Scratch::new("batch-bad-records").expect("scratch dir");
    let (agg, _) = Aggregator::recover(
        "bad",
        Arc::clone(&m),
        AggConfig {
            shards: 2,
            queue_cap: 4,
        },
        DurOptions::new(tmp.path(), 0),
    )
    .expect("durable aggregator");
    let good = container("edge", &m, &["entries 1\nblock b0 1\n", "entries 0\n"]);
    let seq_frame = |seq: u64, body: &[u8]| {
        encode_frame(FrameKind::SeqEdgeDelta, &encode_seq_payload(9, seq, body))
    };
    let report = agg.ingest_stream(&seq_frame(1, &good));
    assert!(report.rejected.is_empty() && report.wire_error.is_none());
    let wal = wal_path(tmp.path(), "bad");
    let logged = std::fs::read(&wal).expect("wal");
    assert_eq!(logged, seq_frame(1, &good));

    // Both CRCs hold; the successor index does not exist.
    let bad = container("edge", &m, &["entries 1\nedge b0 7 1\n", "entries 0\n"]);
    let report = agg.ingest_stream(&seq_frame(2, &bad));
    assert!(report.wire_error.is_none(), "the frame CRC is intact");
    assert_eq!(report.rejected.len(), 1);
    assert_eq!(report.rejected[0].1.class, "payload");
    assert!(
        report.rejected[0]
            .1
            .detail
            .contains("successor index out of range"),
        "{}",
        report.rejected[0].1.detail
    );
    assert_eq!(std::fs::read(&wal).expect("wal"), logged, "nothing logged");
    assert_eq!(agg.watermark(9), 1, "watermark unchanged");
    let (edges, _) = agg.snapshot();
    assert_eq!(edges.func(FuncId(0)).entries(), 1, "nothing merged");
}
