//! Golden digests of the interpreter's observable output.
//!
//! Every benchmark of the suite, at two input seeds and a small scale,
//! runs untraced, traced, traced with delta export and trace faults, cut
//! short by a step budget and by a call-depth budget, and instrumented by
//! PP, TPP, PPP and PPP with checked poisoning. Each run folds into one
//! FNV-1a digest over its halt reason, checksum, cost and step counters,
//! every counter table, its ordered path stream, and the persist_v2 bytes
//! of its edge and path profiles and of every delta it cut. The constants
//! below were produced by the interpreter before any change to its
//! execution strategy; a change that moves one of them changes what the
//! VM computes, not just how fast.

use ppp_core::{instrument_module, normalize_module, ProfilerConfig, Technique};
use ppp_ir::{write_edge_profile_v2, write_path_profile_v2, Module, TableKind};
use ppp_vm::{run, HaltReason, RunOptions, RunResult, TraceFaults};
use ppp_workloads::{generate, spec2000_suite};

const SCALE: f64 = 0.02;
const SEEDS: [u64; 2] = [7, 701];

/// 64-bit FNV-1a, written out so the digests do not depend on the
/// standard library's unspecified hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// What the runs exercised, summed over the suite, so the digests are
/// known to cover every counter they fold.
#[derive(Default)]
struct Seen {
    step_limit: u64,
    depth_limit: u64,
    collisions: u64,
    lost: u64,
    cold: u64,
    dropped: u64,
    deltas: u64,
}

fn fold(h: &mut Fnv, seen: &mut Seen, module: &Module, r: &RunResult) {
    seen.step_limit += u64::from(r.halt == HaltReason::StepLimit);
    seen.depth_limit += u64::from(r.halt == HaltReason::CallDepthLimit);
    seen.collisions += r.store.total_collisions();
    seen.lost += r.store.total_lost();
    seen.cold += r.store.total_cold();
    seen.dropped += r.trace_events_dropped.0 + r.trace_events_dropped.1;
    seen.deltas += r.deltas.len() as u64;
    h.u64(match r.halt {
        HaltReason::Finished => 0,
        HaltReason::StepLimit => 1,
        HaltReason::CallDepthLimit => 2,
    });
    for v in [
        r.checksum,
        r.cost,
        r.prof_cost,
        r.steps,
        r.prof_steps,
        r.calls,
        r.trace_events_dropped.0,
        r.trace_events_dropped.1,
    ] {
        h.u64(v);
    }
    h.u64(r.store.len() as u64);
    for t in r.store.iter() {
        for (k, c) in t.iter_counts() {
            h.u64(k);
            h.u64(c);
        }
        h.u64(u64::MAX);
        h.u64(t.lost());
        h.u64(t.cold());
        h.u64(t.collisions());
    }
    if let (Some(e), Some(p)) = (&r.edge_profile, &r.path_profile) {
        h.str(&write_edge_profile_v2(module, e));
        h.str(&write_path_profile_v2(module, p));
    }
    h.u64(r.path_sequence.len() as u64);
    for (f, key) in &r.path_sequence {
        h.u64(f.index() as u64);
        h.u64(key.start.index() as u64);
        h.u64(key.edges.len() as u64);
        for e in &key.edges {
            h.u64(e.from.index() as u64);
            h.u64(u64::from(e.succ));
        }
    }
    h.u64(r.deltas.len() as u64);
    for d in &r.deltas {
        h.str(&write_edge_profile_v2(module, &d.edges));
        h.str(&write_path_profile_v2(module, &d.paths));
    }
}

/// The digest of one benchmark at one seed, over every run kind.
fn digest(module: &Module, seed: u64, seen: &mut Seen) -> u64 {
    let mut h = Fnv::new();
    let base = RunOptions::default().with_seed(seed);
    let mut go = |m: &Module, opts: &RunOptions| {
        let r = run(m, "main", opts).expect("entry exists");
        fold(&mut h, seen, m, &r);
        r
    };
    go(module, &base);
    let traced = go(module, &base.traced_with_sequence());
    go(
        module,
        &base
            .traced()
            .with_delta_interval(97)
            .with_trace_faults(TraceFaults {
                drop_edge_every: 13,
                drop_path_every: 7,
                seed,
            }),
    );
    // Budgets that cut runs short: a step limit that lands wherever the
    // count falls, and a call depth the suite's call chains exceed.
    let partial = go(
        module,
        &RunOptions {
            max_steps: traced.steps / 3 + 7,
            ..base.traced().with_delta_interval(211)
        },
    );
    go(
        module,
        &RunOptions {
            max_call_depth: 2,
            ..base.traced()
        },
    );
    // Guidance from the first third of the run leaves later paths cold.
    let edges = partial.edge_profile.expect("traced run has edges");
    for config in [
        ProfilerConfig::pp(),
        ProfilerConfig::tpp(),
        ProfilerConfig::ppp(),
        // Checked poisoning: cold paths reach the counters' cold tally.
        ProfilerConfig::ppp_without(Technique::Fp),
    ] {
        let plan = instrument_module(module, Some(&edges), &config);
        go(&plan.module, &base);
        go(&plan.module, &base.traced().with_delta_interval(389));
        // The same plan with every hash table shrunk to 13 slots, so
        // probe sequences run out and paths are lost.
        let mut cramped = plan.module;
        for t in &mut cramped.tables {
            if let TableKind::Hash { slots, .. } = &mut t.kind {
                *slots = 13;
            }
        }
        go(&cramped, &base);
    }
    h.0
}

/// `(benchmark, [digest at SEEDS[0], digest at SEEDS[1]])`.
const GOLDEN: [(&str, [u64; 2]); 18] = [
    ("vpr", [0xec5a493152908b8a, 0xb0d003df2afaf6f5]),
    ("mcf", [0xd9405251311fcd03, 0x3a7b21409d12093e]),
    ("crafty", [0x53e1a3c78ac3ca61, 0x10f0a2be1151b9fd]),
    ("parser", [0xc947747f5dd51300, 0x386f78352a92e218]),
    ("perlbmk", [0xd72bbad52080b7b2, 0xfb1ad19c078a2a52]),
    ("gap", [0xde23a790585fcd05, 0x738b97a601c95ef4]),
    ("bzip2", [0x363ffec190474205, 0x73d2c62cf11995f6]),
    ("twolf", [0xa5ceef7f39dbe36e, 0x61e0f61011e72a97]),
    ("wupwise", [0xa374a8f3cedd81ee, 0x2ac223ae8dd76a3d]),
    ("swim", [0x8edd7c9ff7107f6f, 0x11dd360bf6cf7c22]),
    ("mgrid", [0xa029bf1d8518389f, 0x204889cb69ee5ba7]),
    ("applu", [0xd8af472952cba63f, 0x8506398dd7bffe7a]),
    ("mesa", [0x7797c1274f63b10a, 0x3320e4511f46d6bd]),
    ("art", [0x0587a8d762da372d, 0xb5aa95a65c99d0e0]),
    ("equake", [0x5bbcd99563243edb, 0x8cfdadcf847bcd6d]),
    ("ammp", [0xa3d48ff5fbc9aab1, 0xcefa534ce223ce2c]),
    ("sixtrack", [0x12f4d91f50426ccb, 0xf224a1741a69bfcc]),
    ("apsi", [0xdab9389a091bcfea, 0xf031d5f5db7cbd0f]),
];

#[test]
fn interpreter_output_matches_golden_digests() {
    let mut seen = Seen::default();
    let actual: Vec<(String, [u64; 2])> = spec2000_suite()
        .iter()
        .map(|entry| {
            let spec = entry.spec.clone().scaled(SCALE);
            let mut module = generate(&spec);
            normalize_module(&mut module);
            (
                spec.name.clone(),
                SEEDS.map(|seed| digest(&module, seed, &mut seen)),
            )
        })
        .collect();
    let expected: Vec<(String, [u64; 2])> =
        GOLDEN.iter().map(|(n, d)| ((*n).to_owned(), *d)).collect();
    if actual != expected {
        for (name, [a, b]) in &actual {
            eprintln!("    ({name:?}, [{a:#018x}, {b:#018x}]),");
        }
    }
    assert_eq!(actual, expected);
    for (what, n) in [
        ("step-limit halts", seen.step_limit),
        ("call-depth halts", seen.depth_limit),
        ("hash collisions", seen.collisions),
        ("lost paths", seen.lost),
        ("cold paths", seen.cold),
        ("dropped trace events", seen.dropped),
        ("deltas", seen.deltas),
    ] {
        assert!(n > 0, "the golden runs never exercised {what}");
    }
}
