//! The benchmark's client: drives statements through the engine's public
//! API exactly as `Session` does for auto-commit statements (parse, begin,
//! execute, commit), and in the traced run times each of those calls.

use crate::trace_drain::TraceDrain;
use polaris_core::{PolarisEngine, PolarisResult, QueryResult, RecordBatch, Transaction};
use polaris_obs::Counter;
use polaris_sql::Statement;
use std::sync::Arc;
use std::time::Instant;

/// The crate-level calls the traced run times, outermost first.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// `polaris_sql::parse`.
    Parse,
    /// `polaris_sql::plan_select`.
    Plan,
    /// `Transaction::{execute_statement, insert}`.
    Statement,
    /// `Transaction::commit` of a transaction that wrote.
    Commit,
    /// `Transaction::commit` of a read-only transaction.
    ReadonlyCommit,
    /// `sto::run_once`.
    StoTick,
}

const LAYERS: usize = 6;

/// One acknowledged write: its latency, whether a WAL checkpoint ran
/// between its `begin` and its acknowledgement, and whether it was the
/// first write after a storage-optimizer pass.
#[derive(Debug, Clone, Copy)]
pub struct WriteTag {
    pub ns: u64,
    pub checkpoint: bool,
    pub after_sto: bool,
}

/// Calls and nanoseconds per [`Layer`], the wall time of the loop that
/// made them, and a [`WriteTag`] per acknowledged write.
#[derive(Debug, Default, Clone)]
pub struct LayerClock {
    calls: [u64; LAYERS],
    ns: [u64; LAYERS],
    pub wall_ns: u64,
    pub writes: Vec<WriteTag>,
}

impl LayerClock {
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    /// Mean nanoseconds per call, 0 without calls.
    pub fn mean_ns(&self, layer: Layer) -> f64 {
        ratio(self.ns(layer) as f64, self.calls(layer) as f64)
    }

    /// Nanoseconds spent in all timed calls; they never nest.
    pub fn attributed_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn merge(&mut self, other: &LayerClock) {
        for i in 0..LAYERS {
            self.calls[i] += other.calls[i];
            self.ns[i] += other.ns[i];
        }
        self.wall_ns += other.wall_ns;
        self.writes.extend_from_slice(&other.writes);
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub struct Client {
    pub engine: Arc<PolarisEngine>,
    /// `Some` in the traced run.
    pub clock: Option<LayerClock>,
    trace: Option<Arc<TraceDrain>>,
    checkpoints: Counter,
    /// `wal.checkpoints` at the last `begin`.
    checkpoints_at_begin: u64,
    sto_since_write: bool,
    after_sto: bool,
}

impl Client {
    pub fn new(engine: Arc<PolarisEngine>, traced: Option<Arc<TraceDrain>>) -> Self {
        let checkpoints = engine.metrics().counter("wal.checkpoints");
        Client {
            engine,
            clock: traced.is_some().then(LayerClock::default),
            trace: traced,
            checkpoints,
            checkpoints_at_begin: 0,
            sto_since_write: false,
            after_sto: false,
        }
    }

    fn timed<T>(&mut self, layer: Layer, call: impl FnOnce() -> T) -> T {
        match &mut self.clock {
            None => call(),
            Some(clock) => {
                let start = Instant::now();
                let out = call();
                clock.calls[layer as usize] += 1;
                clock.ns[layer as usize] += start.elapsed().as_nanos() as u64;
                out
            }
        }
    }

    /// Parse `sql`; in the traced run a SELECT is also planned once more
    /// on its own, to time the planner.
    pub fn parse(&mut self, sql: &str) -> PolarisResult<Statement> {
        let stmt = self.timed(Layer::Parse, || polaris_sql::parse(sql))?;
        if self.clock.is_some() {
            if let Statement::Select(select) = &stmt {
                self.timed(Layer::Plan, || polaris_sql::plan_select(select))?;
            }
        }
        Ok(stmt)
    }

    pub fn begin(&mut self) -> Transaction {
        if self.clock.is_some() {
            self.checkpoints_at_begin = self.checkpoints.get();
            self.after_sto = self.sto_since_write;
        }
        self.engine.begin()
    }

    /// Tag the write acknowledged last, whose latency the caller measured
    /// from before its `begin` (traced run only).
    pub fn tag_write(&mut self, ns: u64) {
        if let Some(clock) = &mut self.clock {
            clock.writes.push(WriteTag {
                ns,
                checkpoint: self.checkpoints.get() > self.checkpoints_at_begin,
                after_sto: self.after_sto,
            });
            self.sto_since_write = false;
        }
    }

    pub fn execute(
        &mut self,
        txn: &mut Transaction,
        stmt: &Statement,
    ) -> PolarisResult<QueryResult> {
        self.timed(Layer::Statement, || txn.execute_statement(stmt))
    }

    pub fn insert(
        &mut self,
        txn: &mut Transaction,
        table: &str,
        batch: &RecordBatch,
    ) -> PolarisResult<u64> {
        self.timed(Layer::Statement, || txn.insert(table, batch))
    }

    pub fn commit(&mut self, txn: Transaction, wrote: bool) -> PolarisResult<()> {
        let layer = if wrote {
            Layer::Commit
        } else {
            Layer::ReadonlyCommit
        };
        self.timed(layer, || txn.commit()).map(|_| ())
    }

    /// One auto-commit statement, the way `Session::execute` runs it.
    pub fn auto(&mut self, sql: &str) -> PolarisResult<QueryResult> {
        let stmt = self.parse(sql)?;
        let mut txn = self.begin();
        let result = self.execute(&mut txn, &stmt)?;
        let wrote = !matches!(stmt, Statement::Select(_));
        self.commit(txn, wrote)?;
        Ok(result)
    }

    /// One storage-optimizer pass.
    pub fn sto_tick(&mut self) -> PolarisResult<()> {
        let engine = Arc::clone(&self.engine);
        self.sto_since_write = true;
        self.timed(Layer::StoTick, || polaris_core::sto::run_once(&engine))
            .map(|_| ())
    }

    /// Bookkeeping between operations: keeps the trace ring drained.
    pub fn after_op(&self) {
        if let Some(trace) = &self.trace {
            trace.maybe_drain();
        }
    }
}
