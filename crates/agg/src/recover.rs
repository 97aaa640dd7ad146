//! Crash recovery: rebuild an [`Aggregator`] from checkpoint + WAL.
//!
//! The recovery invariant, proven by the property suite in
//! `tests/recovery.rs`: for any crash point — between deltas, at a
//! checkpoint boundary, or mid-WAL-append — recovering and then
//! replaying the client's full stream yields a snapshot
//! **byte-identical** (under persist_v2 serialization) to the snapshot
//! an uncrashed aggregator would have produced. Three mechanisms
//! compose to make that true:
//!
//! 1. checkpoints capture profiles and per-client watermarks in one
//!    consistent cut (the front lock is held across the flush gate);
//! 2. WAL records are appended *before* a delta is applied, so no
//!    applied delta is ever unlogged;
//! 3. replay goes through the same watermark dedup and the same
//!    per-shard batch decode as live ingestion, so deltas present in
//!    both checkpoint and WAL (a crash between the checkpoint rename
//!    and the WAL truncate), or resent by a retrying client, count
//!    exactly once.

use crate::shard::{AggConfig, Aggregator, IngestOutcome};
use crate::wal::{self, DurOptions, Wal};
use ppp_ir::wire::FrameKind;
use ppp_ir::Module;
use std::sync::Arc;

/// What a recovery found and did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A checkpoint was loaded.
    pub had_checkpoint: bool,
    /// WAL frames applied on top of the checkpoint.
    pub replayed: u64,
    /// WAL frames dropped by the watermark (already in the
    /// checkpoint — a crash landed between rename and truncate).
    pub duplicates: u64,
    /// Bytes cut from a torn WAL tail (a crash mid-append).
    pub torn_bytes: u64,
    /// Clients with a non-zero watermark after recovery.
    pub clients: usize,
}

impl RecoveryReport {
    /// `true` when recovery found no prior state at all.
    pub fn cold_start(&self) -> bool {
        !self.had_checkpoint && self.replayed == 0 && self.duplicates == 0
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "checkpoint={} wal_replayed={} wal_duplicates={} torn_tail_bytes={} clients={}",
            self.had_checkpoint, self.replayed, self.duplicates, self.torn_bytes, self.clients
        )
    }
}

impl Aggregator {
    /// Builds a durable aggregator from whatever survives under
    /// `dur.dir`: loads the checkpoint (if any), replays the WAL's
    /// valid prefix through the watermark dedup, truncates any torn
    /// tail, and leaves the WAL open for appends. A directory with no
    /// prior state is a cold start — this is also how a durable
    /// aggregator is created in the first place.
    ///
    /// # Errors
    ///
    /// Fails loudly on unreadable/damaged checkpoints, file-system
    /// errors, or a WAL whose records contradict the checkpoint
    /// (sequence gaps): silently starting from zero would violate the
    /// never-silent contract.
    pub fn recover(
        bench: &str,
        module: Arc<Module>,
        config: AggConfig,
        dur: DurOptions,
    ) -> Result<(Aggregator, RecoveryReport), String> {
        std::fs::create_dir_all(&dur.dir)
            .map_err(|e| format!("durability dir {}: {e}", dur.dir.display()))?;
        let agg = Aggregator::new(bench, module, config);
        let mut report = RecoveryReport::default();

        if let Some(ckpt) = wal::read_checkpoint(&dur.dir, bench, agg.module())? {
            report.had_checkpoint = true;
            agg.submit_edges(ckpt.edges)
                .map_err(|e| format!("checkpoint seed: {e}"))?;
            agg.submit_paths(ckpt.paths)
                .map_err(|e| format!("checkpoint seed: {e}"))?;
            agg.front.lock().expect("front lock").watermarks = ckpt.watermarks;
        }

        let path = wal::wal_path(&dur.dir, bench);
        let scan = wal::scan_wal(&path).map_err(|e| format!("wal {}: {e}", path.display()))?;
        for frame in &scan.frames {
            match frame.kind {
                FrameKind::SeqEdgeDelta | FrameKind::SeqPathDelta => {
                    match agg.apply_seq(frame.kind, &frame.payload, None, false) {
                        Ok(IngestOutcome::Applied) => report.replayed += 1,
                        Ok(IngestOutcome::Duplicate) => report.duplicates += 1,
                        Err(e) => return Err(format!("wal replay: {e}")),
                    }
                }
                other => return Err(format!("wal holds an unexpected {other} frame")),
            }
        }
        report.torn_bytes = scan.torn_bytes;
        report.clients = agg.watermarks().len();

        let wal_handle = Wal::open(&path, scan.valid_len, bench)
            .map_err(|e| format!("wal {}: {e}", path.display()))?;
        agg.attach_durability(wal_handle, dur);

        let obs = ppp_obs::global();
        let metrics = obs.metrics();
        metrics.inc(ppp_obs::names::WAL_RECOVERIES, &[("bench", bench)]);
        metrics.inc_by(
            ppp_obs::names::WAL_REPLAYED,
            &[("bench", bench)],
            report.replayed,
        );
        metrics.inc_by(
            ppp_obs::names::WAL_TORN_BYTES,
            &[("bench", bench)],
            report.torn_bytes,
        );
        Ok((agg, report))
    }
}
