//! Read-only transactions commit at their snapshot: on a durable engine
//! they draw no commit timestamp, take no sequencer slot, write no WAL
//! frame and run no log checkpoint — whether auto-commit, explicit or
//! `AS OF` — and they leave no snapshot pin behind.

use polaris_core::recovery::CHECKPOINT_PREFIX;
use polaris_core::{sto, EngineConfig, PolarisEngine, Value};
use polaris_dcp::ComputePool;
use polaris_store::{MemoryStore, ObjectStore};
use std::sync::Arc;

const READS: usize = 20;

fn pool() -> Arc<ComputePool> {
    let pool = Arc::new(ComputePool::with_topology(4, 4, 2));
    pool.add_nodes(polaris_dcp::WorkloadClass::System, 2, 2);
    pool
}

/// Durable, checkpointing after every logged batch: any checkpoint a
/// read-only commit ran would show in `wal.checkpoints`.
fn durable_config() -> EngineConfig {
    EngineConfig {
        commit_log_enabled: true,
        log_checkpoint_every: 1,
        ..EngineConfig::for_testing()
    }
}

fn open(store: &Arc<MemoryStore>) -> Arc<PolarisEngine> {
    let dyn_store: Arc<dyn ObjectStore> = Arc::new(Arc::clone(store));
    PolarisEngine::open(dyn_store, pool(), durable_config()).unwrap()
}

fn count(engine: &Arc<PolarisEngine>, sql: &str) -> i64 {
    match engine.session().query(sql).unwrap().row(0)[0] {
        Value::Int(n) => n,
        ref v => panic!("unexpected count value {v:?}"),
    }
}

/// `(now, catalog.commits, wal.appends, wal.bytes, wal.checkpoints)`.
fn counters(engine: &Arc<PolarisEngine>) -> (u64, u64, u64, u64, u64) {
    let m = engine.metrics_snapshot();
    (
        engine.catalog().now().0,
        m.counter("catalog.commits"),
        m.counter("wal.appends"),
        m.counter("wal.bytes"),
        m.counter("wal.checkpoints"),
    )
}

/// Six single-row inserts into `t`; returns the sequence of the first.
fn load(engine: &Arc<PolarisEngine>) -> u64 {
    let mut s = engine.session();
    s.execute("CREATE TABLE t (id BIGINT, v BIGINT)").unwrap();
    s.execute("INSERT INTO t VALUES (0, 0)").unwrap();
    let first = engine.catalog().now().0;
    for i in 1..6 {
        s.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
            .unwrap();
    }
    first
}

/// Every kind of read-only transaction: auto-commit SELECTs, an explicit
/// `BEGIN; SELECT; COMMIT`, and an `AS OF` read.
fn read_only_traffic(engine: &Arc<PolarisEngine>, as_of: u64, rows: i64) {
    let mut s = engine.session();
    for i in 0..READS {
        let sql = format!("SELECT COUNT(*) AS n FROM t WHERE id = {}", i % 6);
        assert_eq!(count(engine, &sql), 1);
    }
    s.execute("BEGIN").unwrap();
    let batch = s.query("SELECT COUNT(*) AS n FROM t").unwrap();
    assert_eq!(batch.row(0)[0], Value::Int(rows));
    s.execute("COMMIT").unwrap();
    let sql = format!("SELECT COUNT(*) AS n FROM t AS OF {as_of}");
    assert_eq!(count(engine, &sql), 1);
}

/// Catalog-level DDL commits are logged but, unlike session statements,
/// run no checkpoint afterwards. Log them until more bytes have been
/// logged than the newest checkpoint image holds: with
/// `log_checkpoint_every = 1` that leaves a checkpoint due, which the next
/// commit that logged writes takes.
fn leave_checkpoint_due(engine: &Arc<PolarisEngine>, store: &Arc<MemoryStore>) {
    let image_bytes = store
        .list(CHECKPOINT_PREFIX)
        .unwrap()
        .last()
        .map_or(0, |meta| meta.size);
    let wal_bytes = || engine.metrics_snapshot().counter("wal.bytes");
    let start = wal_bytes();
    let catalog = engine.catalog();
    let mut side = 0;
    while wal_bytes() - start <= image_bytes {
        let mut ctxn = catalog.begin(engine.config().default_isolation);
        let schema = catalog.table_by_name(&mut ctxn, "t").unwrap().schema_json;
        catalog
            .create_table(&mut ctxn, &format!("side{side}"), &schema, "lake/side", &[])
            .unwrap();
        catalog.commit(&mut ctxn).unwrap();
        side += 1;
    }
}

#[test]
fn read_only_commits_draw_no_timestamp_and_write_no_frame() {
    let store = Arc::new(MemoryStore::new());
    let engine = open(&store);
    let first = load(&engine);
    // Compact the six files, then commit past the GC retention so the
    // compacted-away files become reclaimable.
    assert!(sto::run_once(&engine).unwrap().compactions >= 1);
    let mut s = engine.session();
    for i in 6..9 {
        s.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
            .unwrap();
    }
    leave_checkpoint_due(&engine, &store);

    let before = counters(&engine);
    read_only_traffic(&engine, first, 9);
    assert_eq!(
        counters(&engine),
        before,
        "(now, commits, wal appends, wal bytes, wal checkpoints) must not move"
    );
    // The checkpoint the readers left alone really was due: the next
    // writer commit takes it.
    s.execute("INSERT INTO t VALUES (9, 9)").unwrap();
    assert_eq!(counters(&engine).4, before.4 + 1);
    // Every reader released its snapshot: nothing pins the GC watermark,
    // and the next orchestrator pass reclaims the compacted-away files.
    assert_eq!(engine.catalog().min_active_snapshot(), None);
    assert_eq!(engine.catalog().active_count(), 0);
    assert!(sto::run_once(&engine).unwrap().gc_deleted > 0);
}

#[test]
fn kill_after_trailing_reads_recovers_the_pre_kill_clock() {
    let store = Arc::new(MemoryStore::new());
    let clock_before;
    {
        let engine = open(&store);
        let first = load(&engine);
        leave_checkpoint_due(&engine, &store);
        read_only_traffic(&engine, first, 6);
        clock_before = engine.catalog().now().0;
        // Simulated kill -9: dropped with no shutdown hook.
    }
    let engine = open(&store);
    assert_eq!(engine.catalog().now().0, clock_before);
    assert_eq!(
        engine.recovery_report().unwrap().recovered_clock,
        clock_before
    );
    assert_eq!(count(&engine, "SELECT COUNT(*) AS n FROM t"), 6);
}
