//! Crash-recovery integration: durable restarts, the torn-tail rule,
//! double-replay idempotence, checkpoint pruning, and freeze-crash aborts.

use polaris_catalog::wal;
use polaris_core::recovery::CHECKPOINT_PREFIX;
use polaris_core::{EngineConfig, PolarisEngine, Value};
use polaris_dcp::ComputePool;
use polaris_store::{
    BlobMeta, BlobPath, BlockId, Bytes, ChaosStore, MemoryStore, ObjectStore, Stamp, StoreResult,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn pool() -> Arc<ComputePool> {
    let pool = Arc::new(ComputePool::with_topology(4, 4, 2));
    pool.add_nodes(polaris_dcp::WorkloadClass::System, 2, 2);
    pool
}

fn durable_config() -> EngineConfig {
    EngineConfig {
        commit_log_enabled: true,
        // Small segments and frequent checkpoints so short tests exercise
        // rolling and pruning, not just the single-segment happy path.
        log_segment_bytes: 8 * 1024,
        log_checkpoint_every: 0,
        ..EngineConfig::for_testing()
    }
}

fn open(store: &Arc<MemoryStore>, config: EngineConfig) -> Arc<PolarisEngine> {
    let dyn_store: Arc<dyn ObjectStore> = Arc::new(Arc::clone(store));
    PolarisEngine::open(dyn_store, pool(), config).unwrap()
}

fn count(engine: &Arc<PolarisEngine>, table: &str) -> i64 {
    let mut s = engine.session();
    let rows = s
        .query(&format!("SELECT COUNT(*) AS n FROM {table}"))
        .unwrap();
    match rows.row(0)[0] {
        Value::Int(n) => n,
        ref v => panic!("unexpected count value {v:?}"),
    }
}

#[test]
fn kill_and_reopen_recovers_every_acknowledged_commit() {
    let store = Arc::new(MemoryStore::new());
    let clock_before;
    {
        let engine = open(&store, durable_config());
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT, v BIGINT)").unwrap();
        for i in 0..5 {
            s.execute(&format!("INSERT INTO t VALUES ({i}, {})", i * 10))
                .unwrap();
        }
        s.execute("DELETE FROM t WHERE id = 0").unwrap();
        assert_eq!(count(&engine, "t"), 4);
        clock_before = engine.catalog().now().0;
        // Simulated kill -9: the engine is dropped with no shutdown
        // hook; only what reached the store survives.
    }
    let engine = open(&store, durable_config());
    let report = engine.recovery_report().expect("opened with durability");
    assert_eq!(
        engine.catalog().now().0,
        clock_before,
        "recovered clock must equal the pre-crash clock (dense, no gaps)"
    );
    assert_eq!(report.recovered_clock, clock_before);
    assert!(report.replayed_commits > 0, "log tail replayed: {report:?}");
    assert_eq!(report.torn_records, 0);
    assert_eq!(count(&engine, "t"), 4);
    // The recovered engine accepts new work at fresh timestamps.
    let mut s = engine.session();
    s.execute("INSERT INTO t VALUES (100, 1000)").unwrap();
    assert_eq!(count(&engine, "t"), 5);
    assert!(engine.catalog().now().0 > clock_before);
}

#[test]
fn torn_tail_is_discarded_and_prefix_survives() {
    let store = Arc::new(MemoryStore::new());
    {
        let engine = open(&store, durable_config());
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        for i in 0..4 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
    }
    // Tear the newest segment mid-frame: a crash inside the final append.
    let segs = store.list(polaris_core::recovery::WAL_PREFIX).unwrap();
    let last = segs.last().expect("wal segments exist").path.clone();
    let raw = store.get(&last).unwrap();
    assert!(raw.len() > 7);
    let torn = raw.slice(0..raw.len() - 7);
    store.put(&last, torn, Stamp::SYSTEM).unwrap();

    let engine = open(&store, durable_config());
    let report = engine.recovery_report().unwrap();
    assert!(report.torn_records >= 1, "tear detected: {report:?}");
    // The torn record held the last INSERT; the consistent prefix —
    // including every earlier acknowledged commit — is intact, and the
    // clock is dense up to the tear.
    assert_eq!(count(&engine, "t"), 3);
    let mut s = engine.session();
    s.execute("INSERT INTO t VALUES (99)").unwrap();
    assert_eq!(count(&engine, "t"), 4);
}

#[test]
fn double_replay_is_idempotent() {
    let store = Arc::new(MemoryStore::new());
    {
        let engine = open(&store, durable_config());
        let mut s = engine.session();
        s.execute("CREATE TABLE a (id BIGINT)").unwrap();
        s.execute("CREATE TABLE b (id BIGINT)").unwrap();
        s.execute("INSERT INTO a VALUES (1), (2)").unwrap();
        s.execute("INSERT INTO b VALUES (3)").unwrap();
        s.execute("UPDATE a SET id = 7 WHERE id = 2").unwrap();
    }
    let first = {
        let engine = open(&store, durable_config());
        engine.catalog().export().unwrap()
    };
    let second = {
        let engine = open(&store, durable_config());
        engine.catalog().export().unwrap()
    };
    assert_eq!(
        first, second,
        "reopening twice must reconstruct the identical catalog image"
    );
    assert!(first.clock > 0);
}

#[test]
fn checkpoints_prune_covered_segments_and_bound_replay() {
    let store = Arc::new(MemoryStore::new());
    let config = EngineConfig {
        log_segment_bytes: 1, // roll every append: one batch per segment
        log_checkpoint_every: 3,
        ..durable_config()
    };
    {
        let engine = open(&store, config);
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        for i in 0..12 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
    }
    let ckpts = store
        .list(polaris_core::recovery::CHECKPOINT_PREFIX)
        .unwrap();
    assert!(
        (1..=2).contains(&ckpts.len()),
        "pruning retains at most two checkpoint generations, found {}",
        ckpts.len()
    );
    let segs = store.list(polaris_core::recovery::WAL_PREFIX).unwrap();
    assert!(
        segs.len() < 13,
        "covered segments must be pruned, found {}",
        segs.len()
    );
    let engine = open(&store, config);
    let report = engine.recovery_report().unwrap();
    assert!(report.checkpoint_clock > 0, "recovered via checkpoint");
    assert!(
        report.replayed_commits < 13,
        "checkpoint bounds the tail replay: {report:?}"
    );
    assert_eq!(count(&engine, "t"), 12);
}

#[test]
fn frozen_crash_mid_wal_append_aborts_and_leaves_no_trace() {
    let inner = Arc::new(MemoryStore::new());
    let baseline_clock;
    {
        let engine = open(&inner, durable_config());
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        baseline_clock = engine.catalog().now().0;
    }
    // Process #2 dies inside the WAL append — after staging the frame,
    // before the commit-block-list publishes it.
    let chaos = Arc::new(ChaosStore::new(Arc::clone(&inner)));
    chaos.arm("commit_block_list", "sys/wal/", 1);
    {
        let dyn_store: Arc<dyn ObjectStore> = Arc::clone(&chaos) as Arc<dyn ObjectStore>;
        let engine = PolarisEngine::open(dyn_store, pool(), durable_config()).unwrap();
        let mut s = engine.session();
        let err = s.execute("INSERT INTO t VALUES (2)");
        assert!(err.is_err(), "commit must not be acknowledged: {err:?}");
        assert!(chaos.killed());
    }
    // Process #3 reopens over the same durable state.
    let engine = open(&inner, durable_config());
    let report = engine.recovery_report().unwrap();
    assert_eq!(
        engine.catalog().now().0,
        baseline_clock,
        "the unacknowledged commit consumed no timestamp"
    );
    assert_eq!(count(&engine, "t"), 1, "aborted insert left no rows");
    assert_eq!(report.torn_records, 0, "staged-only block never surfaced");
    // Zero orphaned manifests: the dying process uploaded its manifest
    // but could not clean up after the abort; recovery swept it. Every
    // `_log` blob left is referenced by a `Manifests` row.
    assert!(report.orphans_collected >= 1, "sweep ran: {report:?}");
    let referenced: std::collections::HashSet<String> = engine
        .catalog()
        .export()
        .unwrap()
        .tables
        .iter()
        .flat_map(|t| t.manifests.iter().map(|(_, file, _)| file.clone()))
        .collect();
    for meta in inner.list("lake/").unwrap() {
        let path = meta.path.as_str();
        if path.contains("/_log/txn-") {
            assert!(
                referenced.contains(path),
                "orphaned manifest survived recovery: {path}"
            );
        }
    }
}

#[test]
fn disabled_commit_log_writes_nothing() {
    let store = Arc::new(MemoryStore::new());
    let engine = open(&store, EngineConfig::for_testing());
    assert!(engine.recovery_report().is_none());
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (1)").unwrap();
    assert!(store.list("sys/").unwrap().is_empty());
}

#[test]
fn show_engine_health_reports_replayed_watermark() {
    let store = Arc::new(MemoryStore::new());
    {
        let engine = open(&store, durable_config());
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
    }
    let engine = open(&store, durable_config());
    let clock = engine.catalog().now().0;
    let mut s = engine.session();
    let out = s.execute("SHOW ENGINE HEALTH").unwrap();
    let text = format!("{out:?}");
    assert!(
        text.contains(&format!("replayed watermark ts {clock}")),
        "health output missing watermark: {text}"
    );
}

#[test]
fn garbage_in_checkpoint_falls_back_to_older_generation() {
    let store = Arc::new(MemoryStore::new());
    let config = EngineConfig {
        log_segment_bytes: 1,
        log_checkpoint_every: 2,
        ..durable_config()
    };
    {
        let engine = open(&store, config);
        let mut s = engine.session();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        for i in 0..6 {
            s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
    }
    // Corrupt the newest checkpoint (crash mid-write of the image).
    let ckpts = store
        .list(polaris_core::recovery::CHECKPOINT_PREFIX)
        .unwrap();
    let newest = ckpts.last().expect("checkpoints exist").path.clone();
    store
        .put(&newest, Bytes::from_static(b"{not json"), Stamp::SYSTEM)
        .unwrap();
    let engine = open(&store, config);
    assert_eq!(count(&engine, "t"), 6, "older checkpoint + log tail covers");
    // And with *every* checkpoint garbage, recovery still needs the WAL
    // segments the garbage checkpoint would have covered — which were
    // pruned. That case is bounded by retaining two generations; here we
    // only assert the fallback one survived.
    let report = engine.recovery_report().unwrap();
    assert!(report.checkpoint_clock > 0);
}

/// Pass-through store that tallies the bytes `put` under the checkpoint
/// prefix, and the size of the newest such image.
struct CheckpointTally {
    inner: Arc<MemoryStore>,
    bytes: AtomicU64,
    newest: AtomicU64,
}

impl ObjectStore for CheckpointTally {
    fn put(&self, path: &BlobPath, data: Bytes, stamp: Stamp) -> StoreResult<()> {
        if path.as_str().starts_with(CHECKPOINT_PREFIX) {
            let len = data.len() as u64;
            self.newest.store(len, Ordering::SeqCst);
            self.bytes.fetch_add(len, Ordering::SeqCst);
        }
        self.inner.put(path, data, stamp)
    }
    fn get(&self, path: &BlobPath) -> StoreResult<Bytes> {
        self.inner.get(path)
    }
    fn head(&self, path: &BlobPath) -> StoreResult<BlobMeta> {
        self.inner.head(path)
    }
    fn delete(&self, path: &BlobPath) -> StoreResult<()> {
        self.inner.delete(path)
    }
    fn list(&self, prefix: &str) -> StoreResult<Vec<BlobMeta>> {
        self.inner.list(prefix)
    }
    fn stage_block(
        &self,
        path: &BlobPath,
        block: BlockId,
        data: Bytes,
        stamp: Stamp,
    ) -> StoreResult<()> {
        self.inner.stage_block(path, block, data, stamp)
    }
    fn commit_block_list(
        &self,
        path: &BlobPath,
        blocks: &[BlockId],
        stamp: Stamp,
    ) -> StoreResult<()> {
        self.inner.commit_block_list(path, blocks, stamp)
    }
    fn committed_blocks(&self, path: &BlobPath) -> StoreResult<Vec<BlockId>> {
        self.inner.committed_blocks(path)
    }
}

/// `CREATE TABLE wide` with `columns` BIGINT columns: a large schema in
/// the catalog image for the cost of one logged commit.
fn create_wide_table(columns: usize) -> String {
    let columns: Vec<String> = (0..columns).map(|c| format!("c{c} BIGINT")).collect();
    format!("CREATE TABLE wide ({})", columns.join(", "))
}

/// The volume-based cadence: checkpoint writes never exceed the log
/// written plus the newest image, checkpoints come far less often than the
/// `log_checkpoint_every` floor alone would make them, and the replayed
/// tail is bounded by one image.
#[test]
fn checkpoint_bytes_stay_within_log_bytes() {
    const COMMITS: u64 = 800;
    const WIDE_COLUMNS: usize = 300;
    let inner = Arc::new(MemoryStore::new());
    let tally = Arc::new(CheckpointTally {
        inner: Arc::clone(&inner),
        bytes: AtomicU64::new(0),
        newest: AtomicU64::new(0),
    });
    // The default cadence, only with the log switched on.
    let config = EngineConfig {
        commit_log_enabled: true,
        ..EngineConfig::for_testing()
    };
    let every = config.log_checkpoint_every;
    {
        let dyn_store: Arc<dyn ObjectStore> = Arc::clone(&tally) as Arc<dyn ObjectStore>;
        let engine = PolarisEngine::open(dyn_store, pool(), config).unwrap();
        let mut s = engine.session();
        // A wide, never-written table stands in for a long history: it
        // makes the image large next to one commit's frame, as on a
        // catalog that has accumulated many manifest rows.
        s.execute(&create_wide_table(WIDE_COLUMNS)).unwrap();
        s.execute("CREATE TABLE t (id BIGINT, v BIGINT)").unwrap();
        for i in 0..COMMITS {
            s.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
                .unwrap();
        }
        let m = engine.metrics_snapshot();
        let ckpt_bytes = tally.bytes.load(Ordering::SeqCst);
        let newest = tally.newest.load(Ordering::SeqCst);
        assert!(
            ckpt_bytes <= m.counter("wal.bytes") + newest,
            "checkpoint bytes {ckpt_bytes} exceed log bytes {} + newest image {newest}",
            m.counter("wal.bytes")
        );
        assert_eq!(m.counter("wal.checkpoint_bytes"), ckpt_bytes);
        let checkpoints = m.counter("wal.checkpoints");
        assert!(checkpoints >= 1, "the first checkpoint comes at the floor");
        assert!(
            checkpoints * 2 * every <= COMMITS,
            "{checkpoints} checkpoints in {COMMITS} commits: the floor alone would allow {}",
            COMMITS / every
        );
    }
    let engine = open(&inner, config);
    let report = engine.recovery_report().unwrap();
    let min_frame = inner
        .list(polaris_core::recovery::WAL_PREFIX)
        .unwrap()
        .iter()
        .flat_map(|meta| wal::decode_frames(&inner.get(&meta.path).unwrap()).0)
        .map(|batch| wal::encode_frame(&batch).unwrap().len() as u64)
        .min()
        .unwrap();
    assert!(report.checkpoint_clock > 0, "recovered via checkpoint");
    assert!(
        report.replayed_commits * min_frame <= report.checkpoint_bytes,
        "replay is bounded by one image: {report:?}, min frame {min_frame}"
    );
    assert_eq!(count(&engine, "t"), COMMITS as i64);
}

/// A restart resumes the cadence from the image recovery loaded: commits
/// that log less than that image take no checkpoint.
#[test]
fn restart_resumes_the_checkpoint_cadence() {
    let store = Arc::new(MemoryStore::new());
    let config = EngineConfig {
        log_checkpoint_every: 1,
        ..durable_config()
    };
    {
        let engine = open(&store, config);
        let mut s = engine.session();
        // The first logged statement takes the first checkpoint; the
        // wide schema makes that image far larger than a row's frame.
        s.execute(&create_wide_table(300)).unwrap();
        s.execute("CREATE TABLE t (id BIGINT)").unwrap();
        assert_eq!(engine.metrics_snapshot().counter("wal.checkpoints"), 1);
    }
    let engine = open(&store, config);
    let report = engine.recovery_report().unwrap();
    assert!(
        report.checkpoint_bytes > 0,
        "recovered via checkpoint: {report:?}"
    );
    let mut s = engine.session();
    for i in 0..3 {
        s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    let m = engine.metrics_snapshot();
    assert!(m.counter("wal.bytes") < report.checkpoint_bytes);
    assert_eq!(
        m.counter("wal.checkpoints"),
        0,
        "less log than the loaded image since the restart: no checkpoint due"
    );
    assert_eq!(count(&engine, "t"), 3);
}
