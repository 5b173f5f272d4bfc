//! `htap_cloud`: a durable engine on the cloud latency model behind a
//! cache smaller than the table, with two clients. The writer commits
//! transactions that each insert a fresh batch of lineitem rows and delete
//! the oldest live batch, so the live row count stays constant; the reader
//! runs counts, point lookups and short range scans, and every count must
//! see that constant.

use crate::client::Client;
use crate::common::{config, row_bytes, show, single_int, Env, Phase, Stack};
use crate::workload::Workload;
use polaris_core::{EngineConfig, RecordBatch, Value};
use polaris_store::ObjectStore;
use polaris_workloads::tpch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Rows per batch; a batch is the unit of insert and delete.
const BATCH_ROWS: u64 = 32;
/// Batches live at any snapshot.
const LIVE_BATCHES: u64 = 32;
const LIVE_ROWS: u64 = BATCH_ROWS * LIVE_BATCHES;
/// The cache in front of remote storage. The table's data files hold about
/// 67 KiB after set-up and grow past the cache within seconds of the timed
/// phase, to about 300 KiB, as removed files are kept for time travel;
/// `run` prints both sizes.
const CACHE_BYTES: u64 = 192 * 1024;
/// A storage-optimizer pass every this many writer commits.
const STO_EVERY: u64 = 96;
const WARMUP_COMMITS: u64 = 8;
const WARMUP_READS: u64 = 24;

pub struct State {
    writer: Writer,
    reader_rng: StdRng,
}

/// The writer's client-side state: its generator and the model of what
/// is live.
struct Writer {
    rng: StdRng,
    /// Live batches, oldest first: (batch id, user bytes).
    live: VecDeque<(u64, u64)>,
    /// Next batch id to insert.
    next_batch: u64,
    user_bytes_written: u64,
    commits: u64,
}

pub struct Htap;

const SHIP_MODES: [&str; 5] = ["AIR", "RAIL", "SHIP", "TRUCK", "MAIL"];

/// Lineitem rows of batch `b`: order keys `b * BATCH_ROWS ..`, one each.
fn batch_rows(b: u64, rng: &mut StdRng) -> Vec<Vec<Value>> {
    (0..BATCH_ROWS)
        .map(|i| {
            let quantity = rng.gen_range(1..51i64) as f64;
            vec![
                Value::Int((b * BATCH_ROWS + i) as i64),
                Value::Int(rng.gen_range(1..2000i64)),
                Value::Int(rng.gen_range(1..100i64)),
                Value::Float(quantity),
                Value::Float(quantity * rng.gen_range(900..2000i64) as f64),
                Value::Float(rng.gen_range(0..11i64) as f64 / 100.0),
                Value::Float(rng.gen_range(0..9i64) as f64 / 100.0),
                Value::Str(["A", "N", "R"][rng.gen_range(0..3usize)].to_owned()),
                Value::Str(["F", "O"][rng.gen_range(0..2usize)].to_owned()),
                Value::Date(rng.gen_range(8000..10500i32)),
                Value::Str(SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())].to_owned()),
            ]
        })
        .collect()
}

fn key_range(b: u64) -> (u64, u64) {
    (b * BATCH_ROWS, (b + 1) * BATCH_ROWS)
}

impl Writer {
    /// One writer transaction: insert batch `next_batch`, delete the oldest
    /// live batch (once the window is full), commit.
    fn write(&mut self, client: &mut Client, phase: &mut Phase, timed: bool) {
        let b = self.next_batch;
        let rows = batch_rows(b, &mut self.rng);
        let bytes: u64 = rows.iter().map(|r| row_bytes(r)).sum();
        let batch = match RecordBatch::from_rows(tpch::schema_of("lineitem"), &rows) {
            Ok(batch) => batch,
            Err(e) => return phase.violation(format!("building batch {b}: {e}")),
        };
        let oldest = (self.live.len() as u64 >= LIVE_BATCHES).then(|| self.live[0].0);
        phase.attempted += 1;
        let start = Instant::now();
        let mut txn = client.begin();
        let mut result = client.insert(&mut txn, "lineitem", &batch).map(|_| ());
        if let (Ok(()), Some(old)) = (&result, oldest) {
            let (lo, hi) = key_range(old);
            let sql =
                format!("DELETE FROM lineitem WHERE l_orderkey >= {lo} AND l_orderkey < {hi}");
            result = match client.parse(&sql) {
                Ok(stmt) => client.execute(&mut txn, &stmt).map(|r| {
                    if r.rows_affected != Some(BATCH_ROWS) {
                        phase.violation(format!("{sql}: deleted {:?} rows", r.rows_affected));
                    }
                }),
                Err(e) => Err(e),
            };
        }
        let result = result.and_then(|()| client.commit(txn, true));
        match result {
            Ok(()) => {
                if timed {
                    let ns = start.elapsed().as_nanos() as u64;
                    phase.commits.push(ns);
                    client.tag_write(ns);
                }
                self.next_batch += 1;
                self.user_bytes_written += bytes;
                self.live.push_back((b, bytes));
                if oldest.is_some() {
                    self.live.pop_front();
                }
                self.commits += 1;
                if self.commits.is_multiple_of(STO_EVERY) {
                    if let Err(e) = client.sto_tick() {
                        phase.violation(format!("storage optimizer pass failed: {e}"));
                    }
                }
            }
            Err(e) => phase.fail("writer transaction", e),
        }
        client.after_op();
    }
}

/// One reader statement, chosen by `rng`, over batches up to `newest`.
fn read(rng: &mut StdRng, newest: u64, client: &mut Client, phase: &mut Phase, timed: bool) {
    let oldest = (newest + 1).saturating_sub(LIVE_BATCHES);
    let b = rng.gen_range(oldest..=newest);
    let (lo, hi) = key_range(b);
    let sql = match rng.gen_range(0..3u32) {
        0 => "SELECT COUNT(*) FROM lineitem".to_owned(),
        1 => format!(
            "SELECT l_quantity FROM lineitem WHERE l_orderkey = {}",
            rng.gen_range(lo..hi)
        ),
        _ => {
            format!("SELECT COUNT(*) FROM lineitem WHERE l_orderkey >= {lo} AND l_orderkey < {hi}")
        }
    };
    phase.attempted += 1;
    let start = Instant::now();
    match client.auto(&sql) {
        Ok(r) => {
            if timed {
                phase.reads.push(start.elapsed().as_nanos() as u64);
            }
            if let Some(msg) = check_read(&sql, &r.batch) {
                phase.violation(msg);
            }
        }
        Err(e) => phase.fail("reader statement", e),
    }
    client.after_op();
}

/// Snapshot isolation makes each batch appear and disappear atomically:
/// the table count is always `LIVE_ROWS`, a batch range counts 0 or
/// `BATCH_ROWS`, a key matches at most one row.
fn check_read(sql: &str, batch: &RecordBatch) -> Option<String> {
    let ok = if sql == "SELECT COUNT(*) FROM lineitem" {
        single_int(batch) == Some(LIVE_ROWS as i64)
    } else if sql.starts_with("SELECT COUNT(*)") {
        matches!(single_int(batch), Some(n) if n == 0 || n == BATCH_ROWS as i64)
    } else {
        batch.num_rows() <= 1
    };
    (!ok).then(|| format!("{sql}: got {}", show(batch)))
}

impl Workload for Htap {
    type State = State;

    fn open(&self, traced: bool) -> Result<Env, String> {
        // One distribution: a 32-row batch spread over the default eight
        // would make eight files of four rows, and each file costs a
        // storage round trip on the cloud model.
        let config = EngineConfig {
            distributions: 1,
            ..config(true, traced)
        };
        Env::open(Stack::new(Some(CACHE_BYTES), traced), config)
    }

    fn load(&self, env: &Env, seed: u64) -> Result<State, String> {
        env.engine
            .create_table("lineitem", &tpch::schema_of("lineitem"))
            .map_err(|e| format!("create lineitem: {e}"))?;
        let mut state = State {
            writer: Writer {
                rng: StdRng::seed_from_u64(seed),
                live: VecDeque::new(),
                next_batch: 0,
                user_bytes_written: 0,
                commits: 0,
            },
            reader_rng: StdRng::seed_from_u64(seed ^ 0x5eed_f00d),
        };
        let mut client = env.client();
        let mut warm = Phase::default();
        for _ in 0..LIVE_BATCHES + WARMUP_COMMITS {
            state.writer.write(&mut client, &mut warm, false);
        }
        for _ in 0..WARMUP_READS {
            let newest = state.writer.next_batch - 1;
            read(&mut state.reader_rng, newest, &mut client, &mut warm, false);
        }
        if warm.failed > 0 || !warm.errors.is_empty() {
            return Err(format!("set-up failed: {:?}", warm.errors));
        }
        Ok(state)
    }

    fn run(&self, env: &Env, state: &mut State, seconds: f64) -> Phase {
        let data_before = table_data_bytes(env);
        let State { writer, reader_rng } = state;
        let newest = AtomicU64::new(writer.next_batch - 1);
        let stop = AtomicBool::new(false);
        let (writer, reader) = std::thread::scope(|s| {
            let writer = s.spawn(|| {
                let mut client = env.client();
                let mut phase = Phase::default();
                let start = Instant::now();
                while start.elapsed().as_secs_f64() < seconds {
                    writer.write(&mut client, &mut phase, true);
                    newest.store(writer.next_batch - 1, Ordering::Release);
                }
                stop.store(true, Ordering::Release);
                finish(&mut phase, &mut client, start);
                phase
            });
            let reader = s.spawn(|| {
                let mut client = env.client();
                let mut phase = Phase::default();
                let start = Instant::now();
                while !stop.load(Ordering::Acquire) {
                    let n = newest.load(Ordering::Acquire);
                    read(reader_rng, n, &mut client, &mut phase, true);
                }
                finish(&mut phase, &mut client, start);
                phase
            });
            (
                writer.join().expect("writer thread panicked"),
                reader.join().expect("reader thread panicked"),
            )
        });
        let mut phase = writer;
        phase.merge(reader);
        eprintln!(
            "htap_cloud: cache {CACHE_BYTES} B; table data files {data_before} B before the timed phase, {} B after",
            table_data_bytes(env)
        );
        phase
    }

    fn check(&self, env: &Env, state: &State) -> Vec<String> {
        let mut client = env.client();
        let live = &state.writer.live;
        let (lo, _) = key_range(live[0].0);
        let (_, hi) = key_range(live[live.len() - 1].0);
        let want = (lo..hi).sum::<u64>() as i64;
        let sql = "SELECT COUNT(*), SUM(l_orderkey) FROM lineitem";
        match client.auto(sql) {
            Ok(r)
                if r.batch.num_rows() == 1
                    && r.batch.row(0) == vec![Value::Int(LIVE_ROWS as i64), Value::Int(want)] =>
            {
                Vec::new()
            }
            Ok(r) => vec![format!(
                "{sql}: got {}, want [{LIVE_ROWS}, {want}]",
                show(&r.batch)
            )],
            Err(e) => vec![format!("{sql} failed: {e}")],
        }
    }

    fn user_bytes(&self, state: &State) -> (u64, u64) {
        let w = &state.writer;
        (w.user_bytes_written, w.live.iter().map(|l| l.1).sum())
    }
}

/// Bytes of the table's data files and deletion vectors in the store.
fn table_data_bytes(env: &Env) -> u64 {
    let catalog = env.engine.catalog();
    let mut ctxn = catalog.begin(env.config.default_isolation);
    let root = catalog
        .list_tables(&mut ctxn)
        .map(|t| t[0].data_root.clone());
    catalog.abort(&mut ctxn);
    let files = root
        .ok()
        .and_then(|root| env.stack.memory.list(&format!("{root}/")).ok())
        .unwrap_or_default();
    files
        .iter()
        .filter(|m| m.path.as_str().contains("/data/") || m.path.as_str().contains("/dv/"))
        .map(|m| m.size)
        .sum()
}

fn finish(phase: &mut Phase, client: &mut Client, start: Instant) {
    phase.wall_s = start.elapsed().as_secs_f64();
    if let Some(clock) = client.clock.as_mut() {
        clock.wall_ns = start.elapsed().as_nanos() as u64;
        phase.clock = clock.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_core::{DataType, Field, Schema};

    fn count(n: i64) -> RecordBatch {
        let schema = Schema::new(vec![Field::new("n", DataType::Int64)]);
        RecordBatch::from_rows(schema, &[vec![Value::Int(n)]]).expect("valid row")
    }

    #[test]
    fn a_wrong_count_fails_the_reader_check() {
        let total = "SELECT COUNT(*) FROM lineitem";
        assert_eq!(check_read(total, &count(LIVE_ROWS as i64)), None);
        assert!(check_read(total, &count(LIVE_ROWS as i64 - 1)).is_some());
        assert!(check_read(total, &count(LIVE_ROWS as i64 + BATCH_ROWS as i64)).is_some());
        let range = "SELECT COUNT(*) FROM lineitem WHERE l_orderkey >= 0 AND l_orderkey < 32";
        assert_eq!(check_read(range, &count(0)), None);
        assert_eq!(check_read(range, &count(BATCH_ROWS as i64)), None);
        assert!(check_read(range, &count(1)).is_some());
    }

    #[test]
    fn a_wrong_live_set_fails_the_final_check() {
        let env = Htap.open(false).expect("engine opens");
        let mut state = Htap.load(&env, 7).expect("set-up succeeds");
        assert!(Htap.check(&env, &state).is_empty());
        state.writer.live.pop_front();
        state.writer.live.push_back((state.writer.next_batch, 0));
        assert_eq!(Htap.check(&env, &state).len(), 1);
    }
}
