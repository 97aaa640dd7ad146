//! Micro-benchmarks for the ingest codec, in MB/s: the frame CRC, wire
//! decoding, the strict persist_v2 loaders and writers, and the
//! per-shard delta decoders the aggregator ingests with.
//!
//! The inputs are one parser-sized edge delta and path delta: the first
//! four deltas of a delta-exporting traced run of `parser` at scale 0.25,
//! merged the way an aggregation client batches them, framed as
//! sequenced deltas.

use ppp_bench::harness::bench_bytes;
use ppp_ir::wire::{decode_frame, encode_frame, encode_seq_payload, FrameKind};
use ppp_ir::{
    crc32, decode_edge_delta, decode_path_delta, read_edge_profile_v2, read_path_profile_v2,
    write_edge_profile_v2, write_path_profile_v2, Module, ModuleEdgeProfile, ModulePathProfile,
};
use ppp_vm::{run, RunOptions};
use ppp_workloads::{generate, spec2000_suite};

/// Deltas per frame, as the aggregation client batches them.
const BATCH: usize = 4;

/// Shards the delta decoders split for (the serve default).
const SHARDS: usize = 2;

fn parser_delta() -> (Module, ModuleEdgeProfile, ModulePathProfile) {
    let spec = spec2000_suite()
        .into_iter()
        .find(|e| e.spec.name == "parser")
        .expect("parser is in the suite")
        .spec;
    let module = generate(&spec.scaled(0.25));
    let options = RunOptions::default()
        .traced()
        .with_seed(7)
        .with_delta_interval(2048);
    let result = run(&module, "main", &options).expect("parser runs");
    let mut edges = ModuleEdgeProfile::zeroed(&module);
    let mut paths = ModulePathProfile::with_capacity(module.functions.len());
    for d in result.deltas.iter().take(BATCH) {
        edges.merge(&d.edges);
        paths.merge(&d.paths);
    }
    (module, edges, paths)
}

fn main() {
    let (module, edges, paths) = parser_delta();
    let containers = [
        ("edge", write_edge_profile_v2(&module, &edges)),
        ("path", write_path_profile_v2(&module, &paths)),
    ];
    for (kind, container) in &containers {
        let bytes = container.as_bytes();
        let frame_kind = if *kind == "edge" {
            FrameKind::SeqEdgeDelta
        } else {
            FrameKind::SeqPathDelta
        };
        let frame = encode_frame(frame_kind, &encode_seq_payload(1, 1, bytes));
        println!(
            "codec: {kind} delta of {} functions: {} container bytes, {} frame bytes",
            module.functions.len(),
            bytes.len(),
            frame.len()
        );
        let name = |op: &str| format!("{op}-{kind}");
        bench_bytes("codec", &name("crc32"), frame.len(), || crc32(&frame));
        bench_bytes("codec", &name("decode-frame"), frame.len(), || {
            decode_frame(&frame).expect("frame decodes")
        });
        if *kind == "edge" {
            bench_bytes("codec", &name("read-v2"), bytes.len(), || {
                read_edge_profile_v2(&module, bytes).expect("loads")
            });
            bench_bytes("codec", &name("write-v2"), bytes.len(), || {
                write_edge_profile_v2(&module, &edges)
            });
            bench_bytes("codec", &name("decode-batches"), bytes.len(), || {
                decode_edge_delta(&module, bytes, SHARDS).expect("decodes")
            });
        } else {
            bench_bytes("codec", &name("read-v2"), bytes.len(), || {
                read_path_profile_v2(&module, bytes).expect("loads")
            });
            bench_bytes("codec", &name("write-v2"), bytes.len(), || {
                write_path_profile_v2(&module, &paths)
            });
            bench_bytes("codec", &name("decode-batches"), bytes.len(), || {
                decode_path_delta(&module, bytes, SHARDS).expect("decodes")
            });
        }
    }
}
