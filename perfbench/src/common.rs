//! What the three workloads share: the engine and its store stack, the
//! result of one timed phase, and small helpers for checking outputs.

use crate::client::{Client, LayerClock};
use crate::stats::Samples;
use crate::timing_store::TimingStore;
use crate::trace_drain::TraceDrain;
use polaris_core::{EngineConfig, PolarisEngine, RecordBatch, Value};
use polaris_dcp::{ComputePool, WorkloadClass};
use polaris_store::{CachingStore, LatencyStore, MemoryStore, ObjectStore};
use std::sync::Arc;

/// Trace ring size of the traced run, in events.
const TRACE_CAPACITY: usize = 1 << 17;

/// The store layers under one engine. `memory` is the bottom layer and
/// holds every committed byte.
#[derive(Clone)]
pub struct Stack {
    pub memory: Arc<MemoryStore>,
    /// Present on the cloud model: the cache in front of remote storage.
    pub cache: Option<Arc<CachingStore<LatencyStore<Arc<MemoryStore>>>>>,
    /// Present in the traced run: the outermost layer, timing every call.
    pub timing: Option<Arc<TimingStore<Arc<dyn ObjectStore>>>>,
    top: Arc<dyn ObjectStore>,
}

impl Stack {
    /// In-memory store; `cloud_cache_bytes` puts the cloud latency model
    /// behind a cache of that many bytes.
    pub fn new(cloud_cache_bytes: Option<u64>, traced: bool) -> Stack {
        let memory = Arc::new(MemoryStore::new());
        let cache = cloud_cache_bytes.map(|bytes| {
            Arc::new(CachingStore::new(
                LatencyStore::new(Arc::clone(&memory), polaris_bench::cloud_model()),
                bytes,
            ))
        });
        let base: Arc<dyn ObjectStore> = match &cache {
            Some(c) => c.clone(),
            None => memory.clone(),
        };
        let timing = traced.then(|| Arc::new(TimingStore::new(Arc::clone(&base))));
        let top: Arc<dyn ObjectStore> = match &timing {
            Some(t) => t.clone(),
            None => base,
        };
        Stack {
            memory,
            cache,
            timing,
            top,
        }
    }
}

/// The default configuration, with the commit log on when `durable` and
/// tracing off unless `traced`.
pub fn config(durable: bool, traced: bool) -> EngineConfig {
    EngineConfig {
        commit_log_enabled: durable,
        trace_capacity: if traced { TRACE_CAPACITY } else { 0 },
        ..EngineConfig::default()
    }
}

/// One engine over a [`Stack`].
pub struct Env {
    pub engine: Arc<PolarisEngine>,
    pub stack: Stack,
    pub config: EngineConfig,
    /// Present in the traced run.
    pub drain: Option<Arc<TraceDrain>>,
}

fn pool() -> Arc<ComputePool> {
    let pool = Arc::new(ComputePool::with_topology(4, 4, 2));
    pool.add_nodes(WorkloadClass::System, 2, 2);
    pool
}

impl Env {
    /// Open an engine over `stack`.
    pub fn open(stack: Stack, config: EngineConfig) -> Result<Env, String> {
        let engine = PolarisEngine::open(Arc::clone(&stack.top), pool(), config)
            .map_err(|e| format!("opening the engine: {e}"))?;
        let drain = engine
            .tracer()
            .is_enabled()
            .then(|| Arc::new(TraceDrain::new(engine.tracer().clone())));
        Ok(Env {
            engine,
            stack,
            config,
            drain,
        })
    }

    /// Drop this engine and open a new one over the same store, as a
    /// restart would.
    pub fn reopen(self) -> Result<Env, String> {
        let Env { stack, config, .. } = self;
        Env::open(stack, config)
    }

    pub fn client(&self) -> Client {
        Client::new(Arc::clone(&self.engine), self.drain.clone())
    }
}

/// The outcome of one timed phase.
#[derive(Default)]
pub struct Phase {
    /// Write statements or transactions, call to acknowledgement.
    pub commits: Samples,
    /// Read-only statements.
    pub reads: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Per-client layer clocks, merged (traced run only).
    pub clock: LayerClock,
    /// Correctness violations.
    pub errors: Vec<String>,
}

impl Phase {
    pub fn merge(&mut self, other: Phase) {
        self.commits.extend(&other.commits);
        self.reads.extend(&other.reads);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s = self.wall_s.max(other.wall_s);
        self.clock.merge(&other.clock);
        self.errors.extend(other.errors);
    }

    /// Record a failed operation, keeping the first few messages.
    pub fn fail(&mut self, what: &str, err: impl std::fmt::Display) {
        self.failed += 1;
        if self.failed <= 3 {
            eprintln!("{what} failed: {err}");
        }
    }

    /// Record a correctness violation, keeping the first few.
    pub fn violation(&mut self, msg: String) {
        if self.errors.len() < 10 {
            self.errors.push(msg);
        }
    }
}

/// Bytes of a row as the user wrote it: 8 per 64-bit number, 4 per date,
/// 1 per boolean, the length of each string.
pub fn row_bytes(row: &[Value]) -> u64 {
    row.iter()
        .map(|v| match v {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Date(_) => 4,
            Value::Bool(_) => 1,
            Value::Str(s) => s.len() as u64,
        })
        .sum()
}

/// 64-bit FNV-1a digest of a result's rows, order-sensitive, with floats
/// compared bit for bit.
pub fn digest(batch: &RecordBatch) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(batch.num_rows() as u64).to_le_bytes());
    for i in 0..batch.num_rows() {
        for v in batch.row(i) {
            match v {
                Value::Null => eat(&[0]),
                Value::Int(x) => {
                    eat(&[1]);
                    eat(&x.to_le_bytes());
                }
                Value::Float(x) => {
                    eat(&[2]);
                    eat(&x.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    eat(&[3]);
                    eat(&(s.len() as u64).to_le_bytes());
                    eat(s.as_bytes());
                }
                Value::Bool(b) => eat(&[4, u8::from(b)]),
                Value::Date(d) => {
                    eat(&[5]);
                    eat(&d.to_le_bytes());
                }
            }
        }
    }
    h
}

/// The single integer a one-row, one-column result holds.
pub fn single_int(batch: &RecordBatch) -> Option<i64> {
    if batch.num_rows() != 1 || batch.num_columns() != 1 {
        return None;
    }
    match batch.row(0).first() {
        Some(Value::Int(n)) => Some(*n),
        _ => None,
    }
}

/// The first rows of a result, for error messages.
pub fn show(batch: &RecordBatch) -> String {
    let rows: Vec<Vec<Value>> = (0..batch.num_rows().min(2)).map(|i| batch.row(i)).collect();
    format!("{} rows {rows:?}", batch.num_rows())
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polaris_core::{DataType, Field, Schema};

    fn batch(rows: &[Vec<Value>]) -> RecordBatch {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]);
        RecordBatch::from_rows(schema, rows).expect("valid rows")
    }

    #[test]
    fn digest_tells_results_apart() {
        let a = batch(&[vec![Value::Int(1), Value::Float(0.5)]]);
        let same = batch(&[vec![Value::Int(1), Value::Float(0.5)]]);
        let other = batch(&[vec![Value::Int(1), Value::Float(0.5000001)]]);
        assert_eq!(digest(&a), digest(&same));
        assert_ne!(digest(&a), digest(&other));
        assert_ne!(digest(&a), digest(&batch(&[])));
    }

    #[test]
    fn row_bytes_counts_fixed_and_variable_widths() {
        let row = vec![
            Value::Int(1),
            Value::Float(2.0),
            Value::Date(3),
            Value::Str("abc".into()),
            Value::Null,
        ];
        assert_eq!(row_bytes(&row), 8 + 8 + 4 + 3);
    }
}
