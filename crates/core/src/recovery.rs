//! Durable commit log and crash recovery.
//!
//! Polaris keeps *data* durable by construction — every data file and
//! transaction manifest lives in the object store before commit — but the
//! seed engine held the SQL FE catalog (the `Manifests` table, the commit
//! clock, the transaction-id allocator) only in memory. This module closes
//! that gap with a classic write-ahead design expressed entirely in the
//! store's block-blob vocabulary:
//!
//! * **Log append** ([`CommitLogWriter::append`], installed as the
//!   catalog's commit-log hook): each sequencer batch is serialized to a
//!   checksummed [`polaris_catalog::wal`] frame and appended to the
//!   current segment blob under `sys/wal/seg-{first_ts:020}.wal`. The
//!   append is the Block-Blob idiom the paper builds commits on —
//!   `stage_block` (invisible) then `commit_block_list` with the
//!   cumulative block list (atomic publish). The hook runs *inside* the
//!   sequencer section, after validation and before install: a batch
//!   whose append fails aborts wholesale without consuming timestamps, so
//!   **acknowledged implies durable** and the log never contains an
//!   aborted commit. A block staged by a failed append is simply never
//!   listed again — storage discards it, the same way aborted transaction
//!   manifests die.
//! * **Checkpoints** ([`CommitLogWriter::checkpoint`]): once the log
//!   written since the last checkpoint is at least as large as that
//!   checkpoint (and at least `log_checkpoint_every` batches long), the
//!   full catalog image ([`polaris_catalog::CatalogImage`]) is exported
//!   under snapshot isolation and written to
//!   `sys/checkpoint/ckpt-{clock:020}.json`. Sizing the interval by log
//!   volume keeps checkpoint bytes amortized O(1) per commit — they never
//!   exceed the log bytes logged, plus the newest image — while the
//!   image itself grows with history, and bounds replay to about one
//!   image's worth of frames.
//!   The two newest checkpoints are retained so a torn checkpoint write
//!   can fall back one generation, and segments are pruned against the
//!   **oldest retained** generation's clock (not the one just written):
//!   segment *i* is deletable when segment *i+1* starts at or below
//!   `cover + 1`, which proves every record in *i* is ≤ `cover` even
//!   while appends race the checkpoint — and the fallback generation
//!   always still has its full log tail.
//! * **Recovery** ([`recover`], run by
//!   [`PolarisEngine::open`](crate::PolarisEngine::open) *before* the log
//!   hook is installed): load the newest parsable checkpoint, replay every
//!   log record above its clock in timestamp order, and stop at the first
//!   tear. The **torn-tail rule**: a trailing frame that is incomplete,
//!   mis-tagged, checksum-mismatched or unparsable is discarded along with
//!   everything after it — it belongs to an append the dying process never
//!   completed, so no client was ever told it committed. Replay enforces
//!   the **dense-clock invariant** end to end: each record must install at
//!   exactly `clock + 1` ([`polaris_catalog::Catalog::replay_commit`]), so
//!   the recovered clock is publication-ordered and gap-free — the
//!   property snapshot caches, manifest checkpoints and GC all lean on.
//!   Afterwards the transaction-id allocator is advanced past every id the
//!   log or checkpoint mentions, and staged transaction manifests that no
//!   `Manifests` row references are swept
//!   ([`polaris_lst::collect_orphan_manifests`]) — safe exactly here
//!   because no transaction is in flight yet.
//!
//! Why replay runs hook-less: during recovery the clock rewinds to the
//! checkpoint and advances through already-logged territory. A live hook
//! would re-log those installs into segments *named by the same
//! timestamps* — overwriting the very blobs being read. `open` therefore
//! recovers first and only then wires [`CommitLogWriter`] into the
//! catalog; fresh appends start above the recovered clock and can never
//! collide with surviving segments.

use crate::{EngineConfig, PolarisError, PolarisResult};
use parking_lot::Mutex;
use polaris_catalog::wal::{self, WalBatch, WalTail};
use polaris_catalog::{Catalog, CatalogImage, CommitBatch, CommitLogRecord, IsolationLevel, TxnId};
use polaris_obs::RecoveryMeter;
use polaris_store::{BlobPath, BlockId, Bytes, ObjectStore, Stamp};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Prefix of every write-ahead-log segment blob.
pub const WAL_PREFIX: &str = "sys/wal/";
/// Prefix of every durable catalog checkpoint blob.
pub const CHECKPOINT_PREFIX: &str = "sys/checkpoint/";
/// Checkpoint generations retained after pruning (the newest may be torn
/// by a crash mid-`put` on stores without atomic replace).
const CHECKPOINTS_RETAINED: usize = 2;

/// Path of the segment whose first record commits at `first_ts`.
pub fn segment_path(first_ts: u64) -> String {
    format!("{WAL_PREFIX}seg-{first_ts:020}.wal")
}

/// Path of the checkpoint whose image was exported at `clock`.
pub fn checkpoint_path(clock: u64) -> String {
    format!("{CHECKPOINT_PREFIX}ckpt-{clock:020}.json")
}

/// Parse `seg-{first_ts}.wal` back out of a segment path.
fn segment_first_ts(path: &str) -> Option<u64> {
    path.strip_prefix(WAL_PREFIX)?
        .strip_prefix("seg-")?
        .strip_suffix(".wal")?
        .parse()
        .ok()
}

/// Parse `ckpt-{clock}.json` back out of a checkpoint path.
fn checkpoint_clock(path: &str) -> Option<u64> {
    path.strip_prefix(CHECKPOINT_PREFIX)?
        .strip_prefix("ckpt-")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// The durable commit-log writer: one per engine, shared between the
/// catalog's commit-log hook (appends) and the post-commit checkpoint
/// trigger. All segment state lives behind one mutex; appends are already
/// serialized by the sequencer, so the lock is uncontended in steady
/// state and only real contention is a checkpoint racing an append.
pub struct CommitLogWriter {
    store: Arc<dyn ObjectStore>,
    segment_bytes: u64,
    checkpoint_every: u64,
    meter: RecoveryMeter,
    state: Mutex<WriterState>,
}

#[derive(Default)]
struct WriterState {
    segment: Option<OpenSegment>,
    appends_since_checkpoint: u64,
    /// Framed log bytes appended since the last checkpoint came due.
    bytes_since_checkpoint: u64,
    /// Size of the newest checkpoint image written (or, after a restart,
    /// loaded by recovery): the log volume the next checkpoint waits for.
    last_checkpoint_bytes: u64,
    /// Pooled WAL frame staging buffer: every append serializes into this
    /// capacity-preserving scratch instead of a fresh allocation per batch.
    frame_buf: Vec<u8>,
}

struct OpenSegment {
    path: BlobPath,
    /// Blocks committed into the segment so far. A block is pushed only
    /// after its `commit_block_list` succeeds: a failed append leaves the
    /// block staged-but-unlisted, and the next successful commit list
    /// (which omits it) makes storage discard it — so an aborted batch
    /// can never surface in the log later.
    blocks: Vec<BlockId>,
    bytes: u64,
}

impl CommitLogWriter {
    /// Writer over `store` with the durability knobs from `config`.
    pub fn new(store: Arc<dyn ObjectStore>, config: &EngineConfig, meter: RecoveryMeter) -> Self {
        CommitLogWriter {
            store,
            segment_bytes: config.log_segment_bytes.max(1),
            checkpoint_every: config.log_checkpoint_every,
            meter,
            state: Mutex::new(WriterState::default()),
        }
    }

    /// The meter this writer records into.
    pub fn meter(&self) -> &RecoveryMeter {
        &self.meter
    }

    /// Append one sequencer batch to the log; the catalog's commit-log
    /// hook. Returns `Err` to abort the whole batch (no timestamps
    /// consumed, nothing acknowledged) if the frame cannot be made
    /// durable.
    pub fn append(
        &self,
        batch: &CommitBatch,
        records: &[CommitLogRecord<polaris_catalog::CatalogKey, polaris_catalog::CatalogValue>],
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let mut state = self.state.lock();
        // Serialize into the writer's pooled buffer. Encoding can fail (it
        // no longer panics inside the sequencer); the error aborts the
        // batch through the catalog's CommitLogFailure path like any other
        // durability failure.
        let wal_batch = WalBatch::from_records(batch, records);
        let WriterState {
            segment, frame_buf, ..
        } = &mut *state;
        wal::encode_frame_into(&wal_batch, frame_buf)?;
        if segment
            .as_ref()
            .is_none_or(|s| s.bytes >= self.segment_bytes)
        {
            let path = BlobPath::new(segment_path(batch.first_ts.0)).map_err(|e| e.to_string())?;
            *segment = Some(OpenSegment {
                path,
                blocks: Vec::new(),
                bytes: 0,
            });
            self.meter.wal_segments.inc();
        }
        let seg = segment.as_mut().expect("segment just ensured");
        // Block ids need only be unique within the blob; the first
        // timestamp is unique per *successful* batch, and a failed batch's
        // reused timestamp simply re-stages (replaces) the orphaned block.
        let block = BlockId::new(format!("wal-{:020}", batch.first_ts.0));
        let len = frame_buf.len() as u64;
        self.store
            .stage_block(
                &seg.path,
                block.clone(),
                Bytes::copy_from_slice(frame_buf),
                Stamp::SYSTEM,
            )
            .map_err(|e| e.to_string())?;
        // Push in place and roll back on failure — no clone of the block
        // list per append.
        seg.blocks.push(block);
        if let Err(e) = self
            .store
            .commit_block_list(&seg.path, &seg.blocks, Stamp::SYSTEM)
        {
            seg.blocks.pop();
            return Err(e.to_string());
        }
        seg.bytes += len;
        state.appends_since_checkpoint += 1;
        state.bytes_since_checkpoint += len;
        self.meter.wal_appends.inc();
        self.meter.wal_bytes.add(len);
        self.meter
            .wal_append_ns
            .record_ns(t0.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Resume the checkpoint cadence after recovery: the next checkpoint
    /// waits for as much log as the image `recover` loaded, so a restart
    /// does not make the first commits pay for an early checkpoint.
    pub fn resume(&self, report: &RecoveryReport) {
        self.state.lock().last_checkpoint_bytes = report.checkpoint_bytes;
    }

    /// Check-and-reset the checkpoint trigger: due once at least
    /// `log_checkpoint_every` batches *and* at least the newest
    /// checkpoint's size in bytes have been logged since the last one. At
    /// most one caller gets `true` per interval, so concurrent committers
    /// never write duplicate checkpoints.
    pub fn take_checkpoint_due(&self) -> bool {
        if self.checkpoint_every == 0 {
            return false;
        }
        let mut state = self.state.lock();
        if state.appends_since_checkpoint >= self.checkpoint_every
            && state.bytes_since_checkpoint >= state.last_checkpoint_bytes
        {
            state.appends_since_checkpoint = 0;
            state.bytes_since_checkpoint = 0;
            true
        } else {
            false
        }
    }

    /// Export the catalog, write it as a durable checkpoint, and prune
    /// the log segments (and older checkpoints) it covers. Returns the
    /// checkpointed clock. Failures leave the log untouched — a missed
    /// checkpoint only means a longer replay, never lost commits.
    pub fn checkpoint(&self, catalog: &Catalog) -> PolarisResult<u64> {
        let mut span = self.meter.tracer.span("wal.checkpoint");
        let image = catalog.export()?;
        let payload = serde_json::to_vec(&image)
            .map_err(|e| PolarisError::invalid(format!("checkpoint serialization: {e}")))?;
        let len = payload.len() as u64;
        self.store.put(
            &BlobPath::new(checkpoint_path(image.clock))?,
            payload.into(),
            Stamp::SYSTEM,
        )?;
        self.state.lock().last_checkpoint_bytes = len;
        self.meter.checkpoints.inc();
        self.meter.checkpoint_bytes.add(len);
        span.attr("clock", image.clock);
        self.prune()?;
        Ok(image.clock)
    }

    /// Delete all but the newest [`CHECKPOINTS_RETAINED`] checkpoints,
    /// then every log segment fully covered by the **oldest retained**
    /// generation. Pruning against the oldest — not the one just
    /// written — keeps the fallback path whole: if the newest checkpoint
    /// turns out torn, recovery drops back one generation and the
    /// segments above *its* clock must still exist. Holds the writer lock
    /// so the open segment is rolled first and an append can never race a
    /// delete of its own blob.
    fn prune(&self) -> PolarisResult<()> {
        let mut state = self.state.lock();
        // Roll: later appends open a fresh segment, so the successor-based
        // cover rule below eventually reclaims the one being closed.
        state.segment = None;
        let checkpoints = self.store.list(CHECKPOINT_PREFIX)?;
        if checkpoints.len() > CHECKPOINTS_RETAINED {
            for meta in &checkpoints[..checkpoints.len() - CHECKPOINTS_RETAINED] {
                match self.store.delete(&meta.path) {
                    Ok(()) | Err(polaris_store::StoreError::NotFound { .. }) => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        let oldest_retained = checkpoints.len().saturating_sub(CHECKPOINTS_RETAINED);
        let Some(cover) = checkpoints
            .get(oldest_retained)
            .and_then(|meta| checkpoint_clock(meta.path.as_str()))
        else {
            return Ok(());
        };
        let segments: Vec<(u64, BlobPath)> = self
            .store
            .list(WAL_PREFIX)?
            .into_iter()
            .filter_map(|meta| segment_first_ts(meta.path.as_str()).map(|ts| (ts, meta.path)))
            .collect();
        for pair in segments.windows(2) {
            let (_, path) = &pair[0];
            let (next_first, _) = &pair[1];
            // Every record in a segment commits below its successor's
            // first timestamp; successor ≤ cover+1 proves full coverage.
            if *next_first <= cover + 1 {
                match self.store.delete(path) {
                    Ok(()) | Err(polaris_store::StoreError::NotFound { .. }) => {
                        self.meter.segments_pruned.inc();
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        }
        drop(state);
        Ok(())
    }
}

/// What [`recover`] rebuilt, surfaced through
/// [`PolarisEngine::recovery_report`](crate::PolarisEngine::recovery_report)
/// and `SHOW ENGINE HEALTH`.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize)]
pub struct RecoveryReport {
    /// Clock of the checkpoint image imported (0: recovered from the log
    /// alone).
    pub checkpoint_clock: u64,
    /// Size in bytes of the checkpoint image imported (0: none).
    pub checkpoint_bytes: u64,
    /// Log segments read.
    pub segments_scanned: u64,
    /// Batches with at least one commit replayed.
    pub replayed_batches: u64,
    /// Commits replayed from the log tail.
    pub replayed_commits: u64,
    /// Torn tail records (and replay gaps) discarded.
    pub torn_records: u64,
    /// Stale segments beyond a tear that were dropped.
    pub segments_dropped: u64,
    /// Orphaned staged transaction manifests swept.
    pub orphans_collected: u64,
    /// Commit clock after recovery — the replayed watermark.
    pub recovered_clock: u64,
    /// Transaction-id floor after recovery.
    pub recovered_txn_floor: u64,
    /// Wall time of the whole recovery.
    pub wall_ns: u64,
}

/// Rebuild `catalog` from the durable state under `store`: newest parsable
/// checkpoint, then the log tail above it, then the orphan sweep. Must run
/// before the commit-log hook is installed and before any traffic (see
/// the module docs for why).
pub fn recover(
    store: &Arc<dyn ObjectStore>,
    catalog: &Catalog,
    meter: &RecoveryMeter,
) -> PolarisResult<RecoveryReport> {
    let t0 = Instant::now();
    let _alloc = polaris_obs::AllocScope::enter(polaris_obs::AllocPhase::Replay);
    let mut span = meter.tracer.span("recovery.run");
    let mut report = RecoveryReport::default();
    let mut txn_floor = 0u64;

    // 1. Newest parsable checkpoint. A torn newest checkpoint (crash
    //    mid-write) falls back to the previous generation; the log tail
    //    then covers the difference.
    for meta in store.list(CHECKPOINT_PREFIX)?.iter().rev() {
        let raw = store.get(&meta.path)?;
        let image: CatalogImage = match serde_json::from_slice(&raw) {
            Ok(image) => image,
            Err(_) => continue,
        };
        if image.clock > 0 {
            catalog.import(&image)?;
            for table in &image.tables {
                for (_, _, txn_id) in &table.manifests {
                    txn_floor = txn_floor.max(*txn_id);
                }
            }
        }
        report.checkpoint_clock = image.clock;
        report.checkpoint_bytes = raw.len() as u64;
        meter.checkpoint_loads.inc();
        break;
    }

    // 2. Replay the log above the checkpoint, oldest segment first
    //    (zero-padded names list in timestamp order). Stop at the first
    //    tear or density gap; segments beyond a stop are stale by
    //    definition and dropped so they cannot shadow post-recovery
    //    appends.
    let mut stopped = false;
    for meta in store.list(WAL_PREFIX)? {
        if segment_first_ts(meta.path.as_str()).is_none() {
            continue;
        }
        if stopped {
            match store.delete(&meta.path) {
                Ok(()) | Err(polaris_store::StoreError::NotFound { .. }) => {
                    report.segments_dropped += 1;
                }
                Err(e) => return Err(e.into()),
            }
            continue;
        }
        report.segments_scanned += 1;
        let raw = store.get(&meta.path)?;
        let (batches, tail) = wal::decode_frames(&raw);
        for batch in batches {
            let mut applied = false;
            for commit in batch.commits {
                txn_floor = txn_floor.max(commit.txn);
                if commit.commit_ts <= catalog.now().0 {
                    continue; // covered by the checkpoint image
                }
                match catalog
                    .replay_commit(polaris_catalog::Timestamp(commit.commit_ts), commit.writes)
                {
                    Ok(()) => {
                        applied = true;
                        report.replayed_commits += 1;
                        meter.replayed_commits.inc();
                    }
                    Err(polaris_catalog::CatalogError::ReplayGap { .. }) => {
                        // A density gap means the record belongs to a
                        // different history (post-tear garbage); treat it
                        // like a tear and keep the consistent prefix.
                        report.torn_records += 1;
                        meter.torn_records.inc();
                        stopped = true;
                        break;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            if applied {
                report.replayed_batches += 1;
                meter.replayed_batches.inc();
            }
            if stopped {
                break;
            }
        }
        if let WalTail::Torn { .. } = tail {
            report.torn_records += 1;
            meter.torn_records.inc();
            stopped = true;
        }
    }

    // 3. Counters: post-recovery transactions and DDL must allocate above
    //    everything the durable state mentions.
    catalog.advance_txn_ids(TxnId(txn_floor));
    report.recovered_clock = catalog.now().0;
    report.recovered_txn_floor = txn_floor;

    // 4. Orphan sweep: with the catalog rebuilt and nothing in flight, a
    //    `_log` manifest no `Manifests` row references can only belong to
    //    a transaction that died before commit. Referenced sets are
    //    gathered per data root because clones share their source's root.
    let mut txn = catalog.begin(IsolationLevel::Snapshot);
    let mut roots: BTreeMap<String, HashSet<String>> = BTreeMap::new();
    let sweep = (|| -> PolarisResult<()> {
        for table in catalog.list_tables(&mut txn)? {
            let referenced = roots.entry(table.data_root.clone()).or_default();
            for (_, row) in catalog.visible_manifests(&mut txn, table.id)? {
                referenced.insert(row.manifest_file);
            }
        }
        Ok(())
    })();
    catalog.abort(&mut txn);
    sweep?;
    for (root, referenced) in &roots {
        let swept = polaris_lst::collect_orphan_manifests(store.as_ref(), root, referenced)?;
        report.orphans_collected += swept.len() as u64;
        meter.orphans_collected.add(swept.len() as u64);
    }

    report.wall_ns = t0.elapsed().as_nanos() as u64;
    meter.recovery_ns.record_ns(report.wall_ns);
    span.attr("recovered_clock", report.recovered_clock);
    span.attr("replayed_commits", report.replayed_commits);
    span.attr("torn_records", report.torn_records);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_paths_round_trip_and_order() {
        let p1 = segment_path(7);
        let p2 = segment_path(1_000_000);
        assert!(p1 < p2, "zero padding must preserve numeric order");
        assert_eq!(segment_first_ts(&p1), Some(7));
        assert_eq!(segment_first_ts("sys/wal/other.bin"), None);
        assert!(checkpoint_path(9).starts_with(CHECKPOINT_PREFIX));
    }
}
