//! Recovery-time microbenchmark: how long `PolarisEngine::open` takes to
//! rebuild the catalog as a function of (a) the WAL tail length replayed
//! and (b) the checkpoint interval.
//!
//! Two sweeps, printed as markdown tables (the EXPERIMENTS.md recovery
//! addendum records a run of this binary):
//!
//! * **Tail sweep** — checkpointing disabled, so recovery replays the
//!   whole log: recovery wall time should grow linearly with the number
//!   of logged commits.
//! * **Checkpoint-interval sweep** — fixed workload, varying the
//!   `log_checkpoint_every` floor: a checkpoint also waits until the log
//!   written since the last one outweighs it, so a low floor buys a
//!   shorter replayed tail only until the byte rule takes over. The
//!   checkpoint bytes written during the workload — the cost that rule
//!   bounds by the log volume — sit next to the replay numbers.
//!
//! `--full` quadruples the workload sizes for quieter numbers.

use polaris_core::{EngineConfig, PolarisEngine, RecoveryReport};
use polaris_dcp::ComputePool;
use polaris_store::{MemoryStore, ObjectStore};
use std::sync::Arc;
use std::time::Instant;

fn pool() -> Arc<ComputePool> {
    let pool = Arc::new(ComputePool::with_topology(4, 4, 2));
    pool.add_nodes(polaris_dcp::WorkloadClass::System, 2, 2);
    pool
}

fn config(checkpoint_every: u64) -> EngineConfig {
    EngineConfig {
        commit_log_enabled: true,
        log_segment_bytes: 64 * 1024,
        log_checkpoint_every: checkpoint_every,
        ..EngineConfig::for_testing()
    }
}

/// Run `commits` single-row inserts on a fresh durable engine, drop it
/// (the simulated kill), and time the reopen. Also returns the checkpoint
/// bytes the workload wrote.
fn crash_and_reopen(commits: usize, checkpoint_every: u64) -> (f64, RecoveryReport, u64) {
    let inner = Arc::new(MemoryStore::new());
    let checkpoint_bytes;
    {
        let engine = PolarisEngine::open(
            Arc::new(Arc::clone(&inner)) as Arc<dyn ObjectStore>,
            pool(),
            config(checkpoint_every),
        )
        .unwrap();
        let mut s = engine.session();
        s.execute("CREATE TABLE r (id BIGINT, v BIGINT)").unwrap();
        for i in 0..commits {
            s.execute(&format!("INSERT INTO r VALUES ({i}, {})", i * 3))
                .unwrap();
        }
        checkpoint_bytes = engine.metrics().counter("wal.checkpoint_bytes").get();
    }
    let t0 = Instant::now();
    let engine = PolarisEngine::open(
        Arc::new(Arc::clone(&inner)) as Arc<dyn ObjectStore>,
        pool(),
        config(checkpoint_every),
    )
    .unwrap();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (wall_ms, engine.recovery_report().unwrap(), checkpoint_bytes)
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let scale = if full { 4 } else { 1 };

    println!("## Recovery time vs log-tail length (no checkpoints)\n");
    println!("| logged commits | open() ms | replay ms | segments | replayed |");
    println!("|---:|---:|---:|---:|---:|");
    for commits in [16, 64, 256, 512 * scale] {
        let (wall_ms, report, _) = crash_and_reopen(commits, 0);
        println!(
            "| {commits} | {wall_ms:.2} | {:.2} | {} | {} |",
            report.wall_ns as f64 / 1e6,
            report.segments_scanned,
            report.replayed_commits
        );
    }

    let commits = 256 * scale;
    println!("\n## Recovery time vs checkpoint interval ({commits} commits)\n");
    println!(
        "| checkpoint every | open() ms | replay ms | ckpt clock | replayed | segments | ckpt bytes written |"
    );
    println!("|---:|---:|---:|---:|---:|---:|---:|");
    for every in [0u64, 1, 16, 64, 256] {
        let (wall_ms, report, checkpoint_bytes) = crash_and_reopen(commits, every);
        let label = if every == 0 {
            "never".to_owned()
        } else {
            every.to_string()
        };
        println!(
            "| {label} | {wall_ms:.2} | {:.2} | {} | {} | {} | {checkpoint_bytes} |",
            report.wall_ns as f64 / 1e6,
            report.checkpoint_clock,
            report.replayed_commits,
            report.segments_scanned
        );
    }
}
