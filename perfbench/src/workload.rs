//! The run shared by every workload: repeated set-up, the timed phase, the
//! correctness checks, and the end-to-end or per-layer metrics.

use crate::client::{ratio, Layer, WriteTag};
use crate::common::{peak_rss_mb, Env, Phase};
use crate::metrics;
use crate::stats::{percentile, Samples, Summary};
use polaris_columnar::ColumnarFile;
use polaris_core::MetricsSnapshot;
use polaris_store::ObjectStore;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

pub trait Workload: Sync {
    type State: Send;

    /// A fresh engine over a fresh store; tracing on when `traced`.
    fn open(&self, traced: bool) -> Result<Env, String>;
    /// Create and load the tables and warm up; the state is the client's
    /// model of what the engine should hold.
    fn load(&self, env: &Env, seed: u64) -> Result<Self::State, String>;
    /// The timed phase.
    fn run(&self, env: &Env, state: &mut Self::State, seconds: f64) -> Phase;
    /// End-of-run checks of the engine's contents against the model.
    fn check(&self, env: &Env, state: &Self::State) -> Vec<String>;
    /// `(user row bytes written, live user row bytes)`.
    fn user_bytes(&self, state: &Self::State) -> (u64, u64);
    /// A value that must be equal for every set-up with one seed.
    fn fingerprint(&self, _state: &Self::State) -> Option<u64> {
        None
    }
}

/// One metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Correctness violations; the run is correct when empty.
    pub errors: Vec<String>,
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn summarize(samples: &Samples, what: &str, errors: &mut Vec<String>) -> Summary {
    match samples.summary(what) {
        Ok(s) => {
            eprintln!(
                "{what}: {} samples, p50 {:.1} us, p99 {:.1} us",
                s.count, s.p50_us, s.p99_us
            );
            s
        }
        Err(e) => {
            errors.push(e);
            Summary {
                count: samples.len(),
                p50_us: 0.0,
                p99_us: 0.0,
            }
        }
    }
}

/// Set up `SETUPS` times and keep the last engine.
fn setups<W: Workload>(
    w: &W,
    seed: u64,
    errors: &mut Vec<String>,
) -> Result<(Env, W::State, f64), String> {
    let mut times = Vec::new();
    let mut prints = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = Instant::now();
        let env = w.open(false)?;
        let state = w.load(&env, seed)?;
        times.push(start.elapsed().as_secs_f64());
        prints.push(w.fingerprint(&state));
        last = Some((env, state));
    }
    if prints.windows(2).any(|p| p[0] != p[1]) {
        errors.push(format!("set-ups with one seed differ: {prints:?}"));
    }
    let (env, state) = last.expect("at least one set-up");
    Ok((env, state, median(&mut times)))
}

/// Mark check failures found after reopening the engine.
fn after_reopen(errors: Vec<String>) -> impl Iterator<Item = String> {
    errors.into_iter().map(|e| format!("after reopen: {e}"))
}

/// The end-to-end run (`--trace 0`).
pub fn end_to_end<W: Workload>(w: &W, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut errors = Vec::new();
    let (env, mut state, setup_s) = setups(w, seed, &mut errors)?;
    let phase = w.run(&env, &mut state, seconds);
    errors.extend(phase.errors.iter().cloned());
    errors.extend(w.check(&env, &state));
    let store_written = env.engine.metrics_snapshot().counter("store.bytes_written");
    let store_held = env.stack.memory.committed_bytes();
    if env.config.commit_log_enabled {
        let env = env.reopen()?;
        errors.extend(after_reopen(w.check(&env, &state)));
    }
    let (user_written, user_live) = w.user_bytes(&state);
    let commits = summarize(&phase.commits, "commits", &mut errors);
    let reads = summarize(&phase.reads, "reads", &mut errors);
    let metrics = vec![
        ("setup_s", setup_s, "s"),
        ("commit_p50_us", commits.p50_us, "us"),
        ("commit_p99_us", commits.p99_us, "us"),
        ("commits_per_s", commits.count as f64 / phase.wall_s, "1/s"),
        ("read_p50_us", reads.p50_us, "us"),
        ("read_p99_us", reads.p99_us, "us"),
        ("reads_per_s", reads.count as f64 / phase.wall_s, "1/s"),
        (
            "op_ok_ratio",
            ratio(
                (phase.attempted - phase.failed) as f64,
                phase.attempted as f64,
            ),
            "ratio",
        ),
        (
            "write_amp",
            ratio(store_written as f64, user_written as f64),
            "ratio",
        ),
        (
            "space_amp",
            ratio(store_held as f64, user_live as f64),
            "ratio",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    if phase.attempted == 0 {
        errors.push("no operation was attempted".into());
    }
    Ok(Report {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: metrics::ordered(metrics, metrics::END_TO_END),
        errors,
    })
}

/// Counter delta over the measured phase.
fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    after.counter(name).saturating_sub(before.counter(name)) as f64
}

/// `(samples, total ns)` delta of a histogram over the measured phase.
fn hist_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> (f64, f64) {
    let get = |s: &MetricsSnapshot| {
        s.histograms
            .get(name)
            .map_or((0, 0), |h| (h.count, h.sum_ns))
    };
    let (c0, s0) = get(before);
    let (c1, s1) = get(after);
    (c1.saturating_sub(c0) as f64, s1.saturating_sub(s0) as f64)
}

/// Nanoseconds per row to decode every data file in `store` through the
/// columnar reader.
fn decode_ns_per_row(store: &dyn ObjectStore) -> Result<f64, String> {
    let files = store.list("").map_err(|e| e.to_string())?;
    let (mut ns, mut rows) = (0u128, 0u64);
    for meta in files.iter().filter(|m| m.path.as_str().ends_with(".pcf")) {
        let data = store.get(&meta.path).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let file = ColumnarFile::parse(data).map_err(|e| e.to_string())?;
        let batch = file.read_all().map_err(|e| e.to_string())?;
        ns += start.elapsed().as_nanos();
        rows += batch.num_rows() as u64;
    }
    Ok(ratio(ns as f64, rows as f64))
}

/// The traced run (`--trace 1`): the per-layer metrics.
///
/// Half the time runs untraced and half traced, each on a fresh engine,
/// so the difference in time per operation is the tracing overhead.
pub fn per_layer<W: Workload>(w: &W, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut errors = Vec::new();
    let untraced = {
        let env = w.open(false)?;
        let mut state = w.load(&env, seed)?;
        let phase = w.run(&env, &mut state, seconds / 2.0);
        errors.extend(phase.errors.iter().cloned());
        errors.extend(w.check(&env, &state));
        phase
    };

    let env = w.open(true)?;
    let mut state = w.load(&env, seed)?;
    let engine = &env.engine;
    let drain = env.drain.as_ref().expect("traced engine has a trace drain");
    let before = engine.metrics_snapshot();
    let clock0 = engine.catalog().now().0;
    let cache0 = env.stack.cache.as_ref().map_or((0, 0), |c| c.stats());
    let busy0 = env.stack.timing.as_ref().map_or(0, |t| t.busy_ns());
    drain.reset();
    let phase = w.run(&env, &mut state, seconds / 2.0);
    let after = engine.metrics_snapshot();
    let clock1 = engine.catalog().now().0;
    let cache1 = env.stack.cache.as_ref().map_or((0, 0), |c| c.stats());
    let busy1 = env.stack.timing.as_ref().map_or(0, |t| t.busy_ns());
    let (spans, lost) = drain.totals();
    if lost > 0 {
        eprintln!("trace ring overwrote {lost} events before they were read");
    }
    errors.extend(phase.errors.iter().cloned());
    errors.extend(w.check(&env, &state));

    let files_per_table = files_per_table(&env)?;
    let decode = decode_ns_per_row(env.stack.memory.as_ref())?;
    let (open_ms, replayed) = if env.config.commit_log_enabled {
        let (stack, config) = (env.stack.clone(), env.config);
        drop(env);
        let start = Instant::now();
        let env = Env::open(stack, config)?;
        let open_ms = start.elapsed().as_secs_f64() * 1e3;
        errors.extend(after_reopen(w.check(&env, &state)));
        let replayed = env
            .engine
            .recovery_report()
            .map_or(0, |r| r.replayed_commits);
        (open_ms, replayed as f64)
    } else {
        (0.0, 0.0)
    };

    let ops = phase.attempted as f64;
    let reads = phase.reads.len() as f64;
    let commits = delta(&before, &after, "catalog.commits");
    let d = |name: &str| delta(&before, &after, name);
    let hist_mean_us = |name: &str| {
        let (n, ns) = hist_delta(&before, &after, name);
        ratio(ns, n) / 1e3
    };
    let span_mean_ns = |name: &str| {
        spans
            .get(name)
            .map_or(0.0, |&(n, ns)| ratio(ns as f64, n as f64))
    };
    let clock = &phase.clock;
    let tail = Tail::of(&clock.writes);
    let per_op_ns = |p: &Phase| ratio(p.wall_s * 1e9, p.attempted as f64);
    let (cache_hits, cache_misses) = (cache1.0 - cache0.0, cache1.1 - cache0.1);
    let metrics = vec![
        ("sql.parse_us", clock.mean_ns(Layer::Parse) / 1e3, "us"),
        ("sql.plan_us", clock.mean_ns(Layer::Plan) / 1e3, "us"),
        (
            "core.statement_us",
            clock.mean_ns(Layer::Statement) / 1e3,
            "us",
        ),
        ("core.commit_us", clock.mean_ns(Layer::Commit) / 1e3, "us"),
        (
            "core.readonly_commit_us",
            clock.mean_ns(Layer::ReadonlyCommit) / 1e3,
            "us",
        ),
        (
            "core.unattributed_share",
            ratio(
                clock.wall_ns.saturating_sub(clock.attributed_ns()) as f64,
                clock.wall_ns as f64,
            ),
            "ratio",
        ),
        (
            "catalog.timestamps_per_op",
            ratio((clock1 - clock0) as f64, ops),
            "count",
        ),
        ("catalog.commits_per_op", ratio(commits, ops), "count"),
        (
            "catalog.validate_us",
            span_mean_ns("catalog.validate") / 1e3,
            "us",
        ),
        (
            "catalog.sequencer_wait_us",
            hist_mean_us("catalog.sequencer_wait_ns"),
            "us",
        ),
        (
            "catalog.commit_lock_hold_us",
            hist_mean_us("catalog.commit_lock_hold_ns"),
            "us",
        ),
        (
            "catalog.ww_conflicts_per_commit",
            ratio(d("catalog.ww_conflicts"), commits),
            "count",
        ),
        ("wal.appends_per_op", ratio(d("wal.appends"), ops), "count"),
        ("wal.bytes_per_commit", ratio(d("wal.bytes"), commits), "B"),
        ("wal.append_us", hist_mean_us("wal.append_ns"), "us"),
        ("wal.checkpoints", d("wal.checkpoints"), "count"),
        (
            "wal.checkpoint_ms",
            span_mean_ns("wal.checkpoint") / 1e6,
            "ms",
        ),
        ("recovery.open_ms", open_ms, "ms"),
        ("recovery.replayed_commits", replayed, "count"),
        (
            "lst.cache_hit_ratio",
            ratio(
                d("lst.cache.hits"),
                d("lst.cache.hits") + d("lst.cache.misses"),
            ),
            "ratio",
        ),
        (
            "lst.replayed_manifests_per_op",
            ratio(d("lst.cache.replayed_manifests"), ops),
            "count",
        ),
        (
            "lst.manifest_fetch_us",
            span_mean_ns("lst.manifest_fetch") / 1e3,
            "us",
        ),
        (
            "dcp.tasks_per_op",
            ratio(d("dcp.task_attempts") - d("dcp.task_retries"), ops),
            "count",
        ),
        (
            "dcp.slot_wait_us",
            ratio(hist_delta(&before, &after, "dcp.slot_wait_ns").1 / 1e3, ops),
            "us",
        ),
        ("dcp.task_retries", d("dcp.task_retries"), "count"),
        (
            "dcp.morsels_per_read",
            ratio(d("exec.morsels_scheduled"), reads),
            "count",
        ),
        (
            "dcp.morsel_steal_ratio",
            ratio(d("exec.morsels_stolen"), d("exec.morsels_scheduled")),
            "ratio",
        ),
        (
            "exec.files_scanned_per_read",
            ratio(d("exec.files_scanned"), reads),
            "count",
        ),
        (
            "exec.row_group_prune_ratio",
            ratio(
                d("exec.row_groups_pruned"),
                d("exec.row_groups_pruned") + d("exec.row_groups_scanned"),
            ),
            "ratio",
        ),
        (
            "exec.rows_in_per_row_out",
            ratio(d("exec.rows_in"), d("exec.rows_out")),
            "ratio",
        ),
        (
            "exec.bytes_read_per_read",
            ratio(d("exec.bytes_read"), reads),
            "B",
        ),
        (
            "exec.prefetch_hit_ratio",
            ratio(
                d("exec.prefetch_hits"),
                d("exec.prefetch_hits") + d("store.reads"),
            ),
            "ratio",
        ),
        ("columnar.decode_ns_per_row", decode, "ns"),
        ("store.reads_per_op", ratio(d("store.reads"), ops), "count"),
        (
            "store.writes_per_op",
            ratio(
                d("store.puts") + d("store.staged_blocks") + d("store.commits"),
                ops,
            ),
            "count",
        ),
        (
            "store.bytes_read_per_op",
            ratio(d("store.bytes_read"), ops),
            "B",
        ),
        (
            "store.bytes_written_per_op",
            ratio(d("store.bytes_written"), ops),
            "B",
        ),
        (
            "store.busy_us_per_op",
            ratio((busy1 - busy0) as f64 / 1e3, ops),
            "us",
        ),
        (
            "store.cache_hit_ratio",
            ratio(cache_hits as f64, (cache_hits + cache_misses) as f64),
            "ratio",
        ),
        ("sto.tick_ms", clock.mean_ns(Layer::StoTick) / 1e6, "ms"),
        ("sto.compactions", d("sto.compactions"), "count"),
        ("sto.files_per_table", files_per_table, "count"),
        ("tail.commit_p99_us", tail.p99_us, "us"),
        ("tail.checkpoint_share", tail.checkpoint_share, "ratio"),
        (
            "tail.checkpoint_base_share",
            tail.checkpoint_base_share,
            "ratio",
        ),
        ("tail.after_sto_share", tail.after_sto_share, "ratio"),
        (
            "obs.trace_overhead_pct",
            (ratio(per_op_ns(&phase), per_op_ns(&untraced)) - 1.0) * 100.0,
            "%",
        ),
    ];
    Ok(Report {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: metrics::ordered(metrics, metrics::PER_LAYER),
        errors,
    })
}

/// Where the slowest writes come from: the share of writes at or above
/// the p99 during which a WAL checkpoint ran, or that came first after a
/// storage-optimizer pass, against the share of all writes with a
/// checkpoint.
#[derive(Debug, Default, PartialEq)]
struct Tail {
    p99_us: f64,
    checkpoint_share: f64,
    checkpoint_base_share: f64,
    after_sto_share: f64,
}

impl Tail {
    fn of(writes: &[WriteTag]) -> Tail {
        if writes.is_empty() {
            return Tail::default();
        }
        let mut sorted: Vec<u64> = writes.iter().map(|w| w.ns).collect();
        sorted.sort_unstable();
        let p99 = percentile(&sorted, 0.99);
        let slow: Vec<&WriteTag> = writes.iter().filter(|w| w.ns >= p99).collect();
        let share = |n: usize, of: usize| ratio(n as f64, of as f64);
        Tail {
            p99_us: p99 as f64 / 1e3,
            checkpoint_share: share(slow.iter().filter(|w| w.checkpoint).count(), slow.len()),
            checkpoint_base_share: share(
                writes.iter().filter(|w| w.checkpoint).count(),
                writes.len(),
            ),
            after_sto_share: share(slow.iter().filter(|w| w.after_sto).count(), slow.len()),
        }
    }
}

/// Mean data files per user table, from the storage optimizer's view.
fn files_per_table(env: &Env) -> Result<f64, String> {
    let catalog = env.engine.catalog();
    let mut ctxn = catalog.begin(env.config.default_isolation);
    let tables = catalog.list_tables(&mut ctxn).map_err(|e| e.to_string());
    catalog.abort(&mut ctxn);
    let names: Vec<String> = tables?.into_iter().map(|m| m.name).collect();
    let mut files = 0;
    for name in &names {
        files += polaris_core::sto::table_health(&env.engine, name)
            .map_err(|e| e.to_string())?
            .file_count;
    }
    Ok(ratio(files as f64, names.len() as f64))
}

/// The allocation metrics (`--alloc`), from a build with the counting
/// allocator: an untraced engine, so only the program's own allocations
/// count.
pub fn allocations<W: Workload>(w: &W, seed: u64, seconds: f64) -> Result<Report, String> {
    if !polaris_obs::alloc::tracking_enabled() {
        return Err("--alloc needs a build with the track-alloc feature".into());
    }
    let env = w.open(false)?;
    let mut state = w.load(&env, seed)?;
    let before = polaris_obs::alloc::totals();
    let phase = w.run(&env, &mut state, seconds);
    let after = polaris_obs::alloc::totals();
    let mut errors = phase.errors.clone();
    errors.extend(w.check(&env, &state));
    let ops = phase.attempted as f64;
    Ok(Report {
        attempted: phase.attempted,
        failed: phase.failed,
        metrics: metrics::ordered(
            vec![
                (
                    "obs.allocs_per_op",
                    ratio((after.allocs - before.allocs) as f64, ops),
                    "count",
                ),
                (
                    "obs.alloc_bytes_per_op",
                    ratio((after.alloc_bytes - before.alloc_bytes) as f64, ops),
                    "B",
                ),
            ],
            metrics::ALLOC,
        ),
        errors,
    })
}
