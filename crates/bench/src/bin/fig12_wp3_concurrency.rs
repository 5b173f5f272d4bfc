//! Figure 12: the LST-Bench WP3 concurrency phases on the Polaris
//! transactional engine.
//!
//! Three SU (single-user power run) measurements: concurrent with DM,
//! alone, and concurrent with an explicit Optimize pass. The paper expects
//! SU to take *longer* with concurrent DM — not from blocking (SI never
//! blocks readers) but because each query's fresh snapshot sees newly
//! committed data: snapshot extensions, cache misses, and compacted files
//! to re-read.

use polaris_bench::{
    bench_config, cloud_model, dump_chrome_trace, dump_metrics_snapshot, dump_time_series,
    engine_with_latency, header, ms,
};
use polaris_catalog::{Catalog, ConflictGranularity, IsolationLevel};
use polaris_dcp::WorkloadClass;
use polaris_obs::{http_get, CatalogMeter, Harvester, HealthFn, MetricsRegistry, TelemetryServer};
use polaris_store::{BlobPath, Bytes, LatencyStore, MemoryStore, ObjectStore, Stamp};
use polaris_workloads::lstbench;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const SF: f64 = 4.0;

fn main() {
    // `--disjoint-only` skips the WP3 phases and runs just the
    // disjoint-table concurrent-writer mode (quick scaling check).
    if std::env::args().any(|a| a == "--disjoint-only") {
        disjoint_writer_scaling();
        return;
    }
    // `--group-commit` runs just the group-commit writer sweep.
    if std::env::args().any(|a| a == "--group-commit") {
        group_commit_sweep();
        return;
    }
    // `--telemetry` runs the disjoint-writer commit workload while serving
    // the registry over HTTP and self-scrapes `/metrics`, asserting the
    // exposition agrees with the in-process snapshot.
    if std::env::args().any(|a| a == "--telemetry") {
        telemetry_selfscrape();
        return;
    }
    header(
        "Figure 12",
        "LST-Bench WP3 phases: SU concurrent with DM, SU alone, SU concurrent with Optimize",
    );
    let mut config = bench_config();
    config.compact_min_rows = 64;
    // Make every DM round trip the compaction trigger: committed
    // compaction rewriting data files is the paper's dominant cause of SU
    // slowdown under concurrent DM ("committed data compaction that
    // requires another copy of data to be read into the cache", §7.4).
    config.compact_max_deleted = 0.02;
    let engine = engine_with_latency(6, 4, 2, config, cloud_model());
    lstbench::setup_tpcds(&engine, SF, 42).unwrap();
    // Warm caches with one SU pass before measuring.
    lstbench::run_su(&engine).unwrap();

    let report = lstbench::run_wp3(&engine, SF, 42).unwrap();

    // Node-loss drill, after the measured phases so the bounded trace ring
    // is sure to retain it: victim write nodes join the pool, a DM round
    // starts, and the victims die while its write tasks are in flight.
    // Tasks caught on a dead node report NodeLost and are retried
    // elsewhere — §4.3's claim. Whether a given kill catches a task is a
    // race, so the drill repeats (with a sliding kill delay) until the
    // pool meter confirms a loss; the exported Chrome trace then shows
    // dcp.task spans with attempt > 0 / outcome=node_lost in Perfetto.
    let baseline = engine.pool().stats().node_losses;
    let mut drill_rounds = 0usize;
    while engine.pool().stats().node_losses == baseline && drill_rounds < 50 {
        drill_rounds += 1;
        let victims = engine.pool().add_nodes(WorkloadClass::Write, 2, 1);
        let killer = {
            let pool = std::sync::Arc::clone(engine.pool());
            let delay = Duration::from_millis(2 + 3 * drill_rounds as u64);
            std::thread::spawn(move || {
                std::thread::sleep(delay);
                for id in victims {
                    pool.kill_node(id);
                }
            })
        };
        lstbench::run_dm(&engine, 100 + drill_rounds, SF, 42).unwrap();
        killer.join().unwrap();
    }
    let pool_stats = engine.pool().stats();

    println!("{:>22} {:>12}", "phase", "su_ms");
    println!("{:>22} {:>12}", "SU || DM", ms(report.su_with_dm.total));
    println!("{:>22} {:>12}", "SU alone", ms(report.su_alone.total));
    println!(
        "{:>22} {:>12}",
        "SU || Optimize",
        ms(report.su_with_optimize.total)
    );
    println!();
    println!(
        "dm work during phase 1: +{} rows, -{} rows",
        report.dm.inserted, report.dm.deleted
    );
    let slowdown = report.su_with_dm.total.as_secs_f64() / report.su_alone.total.as_secs_f64();
    println!();
    println!(
        "shape check: SU||DM / SU-alone = {slowdown:.2}x \
         (paper: SU takes significantly longer with concurrent DM; \
         snapshot isolation keeps every query consistent throughout)"
    );
    println!("per-query latencies (ms): name, with_dm, alone, with_optimize");
    for ((n, a), ((_, b), (_, c))) in report.su_with_dm.queries.iter().zip(
        report
            .su_alone
            .queries
            .iter()
            .zip(&report.su_with_optimize.queries),
    ) {
        println!("  {:<28} {:>9} {:>9} {:>9}", n, ms(*a), ms(*b), ms(*c));
    }
    println!();
    println!(
        "node-loss drill: {} task attempts, {} retries, {} node losses over {} drill round(s) \
         (victim write nodes killed with DM in flight; work rescheduled, run still correct)",
        pool_stats.attempts, pool_stats.retries, pool_stats.node_losses, drill_rounds
    );
    dump_metrics_snapshot("fig12_wp3", &engine.metrics_snapshot());
    dump_chrome_trace("fig12_wp3", &engine);

    disjoint_writer_scaling();
}

/// Catalog commits per second for `writers` threads, each running a full
/// write transaction against its own table (disjoint write-key
/// footprints): upload the transaction-manifest blob to the
/// cloud-latency-modeled store, record a data-file-granularity write set,
/// then validate + install under the commit shards (§4.1.2). The blob
/// round trip is wait, not compute, so concurrent writers overlap it; the
/// commit protocol decides whether the metadata step lets them.
fn commit_throughput(
    catalog: &Arc<Catalog>,
    store: &Arc<LatencyStore<MemoryStore>>,
    writers: usize,
    commits: usize,
    files: usize,
) -> f64 {
    // Shard assignment is table-affine by id hash, so consecutive table
    // ids can collide on a commit shard; writers sharing one would
    // serialize in `record_write_set` and the run would measure that
    // accident, not the commit protocol. Keep allocating tables and take
    // only those that keep the writers spread evenly over the shards —
    // perfectly disjoint whenever `writers <= commit_shards()`.
    let shard_count = catalog.commit_shards();
    let quota = writers.div_ceil(shard_count);
    let mut per_shard = vec![0usize; shard_count];
    let mut tables = Vec::with_capacity(writers);
    let mut ddl = catalog.begin(IsolationLevel::Snapshot);
    for n in 0.. {
        if tables.len() == writers {
            break;
        }
        assert!(
            n < 64 * shard_count.max(writers),
            "shard spread unreachable"
        );
        let t = catalog
            .create_table(&mut ddl, &format!("t{n}"), "{}", "lake/t", &[])
            .unwrap();
        let shard = catalog.table_commit_shard(t);
        if per_shard[shard] < quota {
            per_shard[shard] += 1;
            tables.push(t);
        }
    }
    catalog.commit(&mut ddl).unwrap();
    let barrier = Arc::new(Barrier::new(writers + 1));
    let threads: Vec<_> = tables
        .into_iter()
        .enumerate()
        .map(|(w, table)| {
            let catalog = Arc::clone(catalog);
            let store = Arc::clone(store);
            let barrier = Arc::clone(&barrier);
            let modified: Vec<String> = (0..files).map(|f| format!("w{w}/f{f}")).collect();
            std::thread::spawn(move || {
                barrier.wait();
                for i in 0..commits {
                    let mut txn = catalog.begin(IsolationLevel::Snapshot);
                    catalog
                        .record_write_set(&mut txn, table, &modified, ConflictGranularity::DataFile)
                        .unwrap();
                    let manifest = BlobPath::new(format!("manifests/w{w}/m{i}")).unwrap();
                    store
                        .put(&manifest, Bytes::from_static(&[0u8; 256]), Stamp(txn.id.0))
                        .unwrap();
                    catalog
                        .commit_write(&mut txn, &[(table, manifest.as_str().to_owned())])
                        .expect("disjoint-table commits never conflict");
                }
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    for t in threads {
        t.join().unwrap();
    }
    (writers * commits) as f64 / start.elapsed().as_secs_f64()
}

/// The group-commit mode: disjoint-writer commit throughput vs writer
/// count, with a durable commit-log record written through the cloud
/// latency model *per batch* — the write batching amortizes. Batches form
/// on their own: whoever validates while a batch is in its commit-log
/// write rides the next one. Asserts throughput rises with writers, that
/// batches really form at 8 writers, that the commit clock stays dense
/// (one timestamp per commit, none consumed by batching), and that
/// contended rounds still resolve first-committer-wins exactly.
fn group_commit_sweep() {
    const COMMITS: usize = 60;
    const FILES: usize = 16;
    let writer_counts = [1usize, 2, 4, 8];
    println!();
    println!("--- group-commit writer sweep ---");
    println!(
        "{COMMITS} commits per writer, {FILES}-file write sets, 16 commit shards, \
         self-clocking batches (no window, no cap);"
    );
    println!(
        "each batch writes one 4 KiB commit-log record through the cloud latency model \
         inside the sequencer section"
    );
    println!(
        "{:>10} {:>12} {:>12} {:>14} {:>16}",
        "writers", "commits/s", "batches", "mean_batch", "seq_wait_ms_avg"
    );
    let mut throughputs = Vec::new();
    let mut mean_batch = 0.0;
    for &writers in &writer_counts {
        let registry = MetricsRegistry::new();
        let meter = CatalogMeter::from_registry_sharded(&registry, 16);
        let catalog = Arc::new(Catalog::with_meter_sharded(meter, 16));
        let store = Arc::new(LatencyStore::new(MemoryStore::new(), cloud_model()));
        {
            // The amortized durable write: one commit-log record per
            // sequencer section, covering every batch member.
            let store = Arc::clone(&store);
            let records = Arc::new(std::sync::atomic::AtomicU64::new(0));
            catalog.set_commit_log(Some(Arc::new(
                move |batch: &polaris_catalog::CommitBatch, _records| {
                    let n = records.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let path =
                        BlobPath::new(format!("commitlog/b{n}")).map_err(|e| e.to_string())?;
                    store
                        .put(
                            &path,
                            Bytes::from_static(&[0u8; 4096]),
                            Stamp(batch.first_ts.0),
                        )
                        .map_err(|e| e.to_string())
                },
            )));
        }
        let thr = commit_throughput(&catalog, &store, writers, COMMITS, FILES);
        // Dense-clock check: the DDL commit plus exactly one timestamp per
        // published commit — batching consumed nothing extra.
        let expected = (writers * COMMITS) as u64 + 1;
        assert_eq!(
            catalog.now().0,
            expected,
            "commit clock must stay dense under group commit ({writers} writers)"
        );
        let snap = registry.snapshot();
        let batches = snap
            .histograms
            .get("catalog.group_commit.batch_size")
            .expect("batch-size histogram registered");
        // +1: the table-creation DDL commit sequences through a
        // singleton batch too.
        assert_eq!(
            batches.sum_ns, expected,
            "every commit counted in exactly one batch"
        );
        let waits = snap
            .histograms
            .get("catalog.sequencer_wait_ns")
            .expect("sequencer-wait histogram registered");
        mean_batch = batches.sum_ns as f64 / batches.count.max(1) as f64;
        println!(
            "{:>10} {:>12.0} {:>12} {:>14.2} {:>16.3}",
            writers,
            thr,
            batches.count,
            mean_batch,
            waits.sum_ns as f64 / waits.count.max(1) as f64 / 1e6,
        );
        throughputs.push(thr);
    }
    for pair in throughputs.windows(2) {
        assert!(
            pair[1] > pair[0],
            "throughput must rise with writers \
             (got {throughputs:?} for writers {writer_counts:?})"
        );
    }
    assert!(
        mean_batch > 1.0,
        "batches must form at 8 writers (mean batch {mean_batch:.2})"
    );
    let gain = throughputs.last().unwrap() / throughputs[0];
    println!();
    println!(
        "shape check: 8 writers give {gain:.2}x 1 writer, mean batch {mean_batch:.2} (the \
         per-batch commit-log round trip serializes inside the sequencer; committers that \
         queue behind it share the next one, without widening the conflict window or \
         skewing the commit clock)"
    );

    // Contention is unchanged by batching: same-snapshot writers of one
    // table still resolve first-committer-wins, one winner per round.
    let registry = MetricsRegistry::new();
    let meter = CatalogMeter::from_registry_sharded(&registry, 16);
    let catalog = Arc::new(Catalog::with_meter_sharded(meter, 16));
    let mut ddl = catalog.begin(IsolationLevel::Snapshot);
    let hot = catalog
        .create_table(&mut ddl, "hot", "{}", "lake/hot", &[])
        .unwrap();
    catalog.commit(&mut ddl).unwrap();
    let rounds = 32;
    let contenders = 4;
    for _ in 0..rounds {
        let txns: Vec<_> = (0..contenders)
            .map(|_| catalog.begin(IsolationLevel::Snapshot))
            .collect();
        let wins: usize = txns
            .into_iter()
            .map(|mut txn| {
                let catalog = Arc::clone(&catalog);
                std::thread::spawn(move || {
                    catalog
                        .record_write_set(&mut txn, hot, &[], ConflictGranularity::Table)
                        .unwrap();
                    catalog
                        .commit_write(&mut txn, &[(hot, "m".to_owned())])
                        .is_ok() as usize
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .sum();
        assert_eq!(wins, 1, "exactly one winner per contended round");
    }
    let snap = registry.snapshot();
    let expected_conflicts = (rounds * (contenders - 1)) as u64;
    assert_eq!(snap.counter("catalog.ww_conflicts"), expected_conflicts);
    println!(
        "conflict check: {rounds} contended rounds x {contenders} writers with group commit on -> \
         {} commits, {} WW conflicts (expected {expected_conflicts}; batching loses no conflicts)",
        snap.counter("catalog.commits") - 1,
        snap.counter("catalog.ww_conflicts"),
    );
    dump_metrics_snapshot("fig12_group_commit", &registry.snapshot());
}

/// The telemetry mode: the group-commit disjoint-writer workload with a
/// [`Harvester`] sampling the registry and a [`TelemetryServer`] exposing
/// it, scraped concurrently over real HTTP. Asserts every mid-run scrape
/// is valid Prometheus text, and that after the workload quiesces the
/// scraped `catalog_commits_total` equals the in-process snapshot exactly
/// (the endpoint encodes a fresh snapshot per scrape, so agreement is
/// immediate, not delayed by a harvester tick).
fn telemetry_selfscrape() {
    const WRITERS: usize = 8;
    const COMMITS: usize = 60;
    const FILES: usize = 16;
    println!();
    println!("--- telemetry self-scrape mode ---");
    let registry = MetricsRegistry::new();
    let meter = CatalogMeter::from_registry_sharded(&registry, 16);
    let catalog = Arc::new(Catalog::with_meter_sharded(meter, 16));
    let store = Arc::new(LatencyStore::new(MemoryStore::new(), cloud_model()));

    let harvester = Harvester::start(Arc::clone(&registry), Duration::from_millis(25), 512);
    let health: HealthFn = {
        let registry = Arc::clone(&registry);
        Arc::new(move || {
            format!(
                "{{\"status\":\"ok\",\"commits\":{}}}",
                registry.snapshot().counter("catalog.commits")
            )
        })
    };
    let server = TelemetryServer::start(
        "127.0.0.1:0".parse().unwrap(),
        Arc::clone(&registry),
        health,
    )
    .expect("bind telemetry endpoint");
    let addr = server.local_addr();
    println!("serving http://{addr}/metrics while {WRITERS} writers commit");

    // Concurrent scraper: hammers the endpoint over real HTTP while the
    // commit workload runs; every response must be well-formed.
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                let (status, body) = http_get(addr, "/metrics").expect("scrape /metrics");
                assert_eq!(status, 200, "mid-run scrape failed");
                assert!(
                    body.lines()
                        .any(|l| l == "# TYPE catalog_commits_total counter"),
                    "exposition must declare the commits counter"
                );
                let (status, health) = http_get(addr, "/health").expect("scrape /health");
                assert_eq!(status, 200);
                assert!(health.contains("\"status\""));
                scrapes += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
            scrapes
        })
    };

    let thr = commit_throughput(&catalog, &store, WRITERS, COMMITS, FILES);
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    let scrapes = scraper.join().unwrap();

    // Quiesced: the scraped counter must equal the in-process snapshot.
    let (status, body) = http_get(addr, "/metrics").expect("final scrape");
    assert_eq!(status, 200);
    let scraped: u64 = body
        .lines()
        .find_map(|l| l.strip_prefix("catalog_commits_total "))
        .expect("catalog_commits_total exposed")
        .trim()
        .parse()
        .expect("counter value parses");
    let in_process = registry.snapshot().counter("catalog.commits");
    assert_eq!(
        scraped, in_process,
        "exposition must agree with metrics_snapshot() once quiesced"
    );

    // The harvester saw the run too: the commit-rate ring must contain a
    // non-zero sample.
    let series = harvester.time_series();
    let peak_rate = series
        .rates
        .get("catalog.commits")
        .map(|r| r.iter().map(|p| p.value).fold(0.0, f64::max))
        .unwrap_or(0.0);
    assert!(
        peak_rate > 0.0,
        "harvester must have sampled a non-zero commit rate"
    );

    println!(
        "{} commits at {thr:.0} commits/s; {scrapes} concurrent scrapes, all valid",
        in_process
    );
    println!(
        "self-scrape check: catalog_commits_total = {scraped} over HTTP == {in_process} \
         in-process; peak harvested rate {peak_rate:.0} commits/s over {} ticks",
        series.ticks
    );
    dump_metrics_snapshot("fig12_telemetry", &registry.snapshot());
    dump_time_series("fig12_telemetry", &series);
}

/// The disjoint-table concurrent-writer mode: commit throughput vs writer
/// count with the commit lock sharded (16) and unsharded (1), plus a
/// contended round proving overlapping footprints still abort.
fn disjoint_writer_scaling() {
    const COMMITS: usize = 500;
    const FILES: usize = 64;
    let writer_counts = [1usize, 2, 4, 8, 16];
    println!();
    println!("--- disjoint-table concurrent-writer mode ---");
    println!(
        "{} commits/writer, {}-file write sets at DataFile granularity, one table per writer;",
        COMMITS, FILES
    );
    println!("each commit uploads a 256 B manifest blob through the cloud latency model first");
    println!(
        "{:>8} {:>22} {:>22}",
        "writers", "commits/s (1 shard)", "commits/s (16 shards)"
    );
    let mut thr = [Vec::new(), Vec::new()];
    let mut last_registry = None;
    for &writers in &writer_counts {
        let mut row = [0f64; 2];
        for (col, shards) in [1usize, 16].into_iter().enumerate() {
            let registry = MetricsRegistry::new();
            let meter = CatalogMeter::from_registry_sharded(&registry, shards);
            let catalog = Arc::new(Catalog::with_meter_sharded(meter, shards));
            let store = Arc::new(LatencyStore::new(MemoryStore::new(), cloud_model()));
            row[col] = commit_throughput(&catalog, &store, writers, COMMITS, FILES);
            thr[col].push(row[col]);
            if shards == 16 {
                last_registry = Some(registry);
            }
        }
        println!("{:>8} {:>22.0} {:>22.0}", writers, row[0], row[1]);
    }
    let max_writers = *writer_counts.last().unwrap();
    let scale_sharded = thr[1].last().unwrap() / thr[1][0];
    assert!(
        scale_sharded > 4.0,
        "sharded commit throughput should scale with disjoint concurrent writers \
         (measured {scale_sharded:.2}x from 1 to {max_writers})"
    );
    let scale_global = thr[0].last().unwrap() / thr[0][0];
    let vs_global = thr[1].last().unwrap() / thr[0].last().unwrap();
    println!();
    println!(
        "shape check: {max_writers} writers vs 1 gives {scale_sharded:.2}x with 16 shards vs \
         {scale_global:.2}x with the single global lock; sharded is {vs_global:.2}x the global \
         lock at {max_writers} writers (disjoint-table commits overlap their blob round trips \
         and their validate/install work; a single commit lock convoys them)"
    );

    // Overlapping footprints must still abort: same table, table
    // granularity, all transactions begun at one snapshot.
    let registry = MetricsRegistry::new();
    let meter = CatalogMeter::from_registry_sharded(&registry, 16);
    let catalog = Arc::new(Catalog::with_meter_sharded(meter, 16));
    let mut ddl = catalog.begin(IsolationLevel::Snapshot);
    let hot = catalog
        .create_table(&mut ddl, "hot", "{}", "lake/hot", &[])
        .unwrap();
    catalog.commit(&mut ddl).unwrap();
    let rounds = 32;
    let contenders = 4;
    for _ in 0..rounds {
        let txns: Vec<_> = (0..contenders)
            .map(|_| catalog.begin(IsolationLevel::Snapshot))
            .collect();
        let wins: usize = txns
            .into_iter()
            .map(|mut txn| {
                let catalog = Arc::clone(&catalog);
                std::thread::spawn(move || {
                    catalog
                        .record_write_set(&mut txn, hot, &[], ConflictGranularity::Table)
                        .unwrap();
                    catalog
                        .commit_write(&mut txn, &[(hot, "m".to_owned())])
                        .is_ok() as usize
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .sum();
        assert_eq!(wins, 1, "exactly one winner per contended round");
    }
    let snap = registry.snapshot();
    let expected_conflicts = (rounds * (contenders - 1)) as u64;
    assert_eq!(snap.counter("catalog.ww_conflicts"), expected_conflicts);
    println!(
        "conflict check: {rounds} contended rounds x {contenders} writers on one table -> \
         {} commits, {} WW conflicts (expected {expected_conflicts}; sharding loses no conflicts)",
        snap.counter("catalog.commits") - 1,
        snap.counter("catalog.ww_conflicts"),
    );
    if let Some(registry) = last_registry {
        dump_metrics_snapshot("fig12_disjoint", &registry.snapshot());
    }
}
