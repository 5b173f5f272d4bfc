//! `oltp_mem`: one client, a durable engine over the in-memory store, mostly
//! single-row auto-commit INSERTs plus UPDATE-by-key and point SELECTs over
//! three small tables, with a storage-optimizer pass every `STO_EVERY`
//! statements.

use crate::client::Client;
use crate::common::{config, row_bytes, show, single_int, Env, Phase, Stack};
use crate::workload::Workload;
use polaris_core::{DataType, Field, RecordBatch, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Instant;

const TABLES: [&str; 3] = ["accounts", "orders", "events"];
const PRELOAD_ROWS: i64 = 1_000;
const WARMUP_STATEMENTS: u64 = 1_000;
const STO_EVERY: u64 = 400;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Insert,
    Update,
    Select,
}
use Kind::{Insert as I, Select as S, Update as U};

/// Statement kinds in a fixed repeating order: 15 INSERTs, 2 UPDATEs and
/// 4 SELECTs in 21 statements. The seed draws tables, keys and values.
/// The statement that makes every 64th logged commit (the default
/// `log_checkpoint_every`) pays the inline WAL checkpoint; 21 is coprime
/// with 64, so checkpoints fall on each kind in proportion to its share. A
/// random kind per statement would make the number of SELECTs that pay a
/// checkpoint, and with it the read p99, vary from run to run.
const DECK: [Kind; 21] = [
    I, I, S, I, I, U, I, S, I, I, I, S, I, I, I, U, I, S, I, I, I,
];

/// The client's model of one table: id -> (tag, amount).
type Model = BTreeMap<i64, (String, i64)>;

pub struct State {
    rng: StdRng,
    models: [Model; 3],
    next_id: [i64; 3],
    statements: u64,
    user_bytes_written: u64,
}

pub struct Oltp;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int64),
        Field::new("tag", DataType::Utf8),
        Field::new("amount", DataType::Int64),
    ])
}

fn row(id: i64, tag: &str, amount: i64) -> Vec<Value> {
    vec![
        Value::Int(id),
        Value::Str(tag.to_owned()),
        Value::Int(amount),
    ]
}

fn tag(rng: &mut StdRng) -> String {
    const TAGS: [&str; 4] = ["new", "open", "paid", "shipped"];
    format!(
        "{}-{}",
        TAGS[rng.gen_range(0..TAGS.len())],
        rng.gen_range(0..1000u32)
    )
}

impl State {
    /// One statement of the mix; point SELECTs are checked against the
    /// model, and only acknowledged writes enter it.
    fn step(&mut self, client: &mut Client, phase: &mut Phase, timed: bool) {
        let t = self.rng.gen_range(0..TABLES.len());
        let table = TABLES[t];
        let kind = DECK[(self.statements % DECK.len() as u64) as usize];
        let start = Instant::now();
        phase.attempted += 1;
        if kind == I {
            let id = self.next_id[t];
            let tag = tag(&mut self.rng);
            let amount = self.rng.gen_range(1..10_000i64);
            let sql = format!("INSERT INTO {table} VALUES ({id}, '{tag}', {amount})");
            match client.auto(&sql) {
                Ok(_) => {
                    self.next_id[t] += 1;
                    self.user_bytes_written += row_bytes(&row(id, &tag, amount));
                    self.models[t].insert(id, (tag, amount));
                    if timed {
                        let ns = start.elapsed().as_nanos() as u64;
                        phase.commits.push(ns);
                        client.tag_write(ns);
                    }
                }
                Err(e) => phase.fail("INSERT", e),
            }
        } else if kind == U {
            let id = self.rng.gen_range(0..self.next_id[t]);
            let amount = self.rng.gen_range(1..10_000i64);
            let sql = format!("UPDATE {table} SET amount = {amount} WHERE id = {id}");
            match client.auto(&sql) {
                Ok(r) => {
                    if r.rows_affected != Some(1) {
                        phase.violation(format!("{sql}: affected {:?} rows", r.rows_affected));
                    }
                    let entry = self.models[t]
                        .get_mut(&id)
                        .expect("ids below next_id exist");
                    entry.1 = amount;
                    self.user_bytes_written += row_bytes(&row(id, &entry.0, amount));
                    if timed {
                        let ns = start.elapsed().as_nanos() as u64;
                        phase.commits.push(ns);
                        client.tag_write(ns);
                    }
                }
                Err(e) => phase.fail("UPDATE", e),
            }
        } else {
            let id = self.rng.gen_range(0..self.next_id[t]);
            let sql = format!("SELECT amount FROM {table} WHERE id = {id}");
            match client.auto(&sql) {
                Ok(r) => {
                    let want = self.models[t].get(&id).map(|e| e.1);
                    if single_int(&r.batch) != want {
                        phase.violation(format!("{sql}: got {}, want {want:?}", show(&r.batch)));
                    }
                    if timed {
                        phase.reads.push(start.elapsed().as_nanos() as u64);
                    }
                }
                Err(e) => phase.fail("SELECT", e),
            }
        }
        self.statements += 1;
        if self.statements.is_multiple_of(STO_EVERY) {
            if let Err(e) = client.sto_tick() {
                phase.violation(format!("storage optimizer pass failed: {e}"));
            }
        }
        client.after_op();
    }
}

impl Workload for Oltp {
    type State = State;

    fn open(&self, traced: bool) -> Result<Env, String> {
        Env::open(Stack::new(None, traced), config(true, traced))
    }

    fn load(&self, env: &Env, seed: u64) -> Result<State, String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut models: [Model; 3] = Default::default();
        let mut user_bytes_written = 0;
        for (t, table) in TABLES.iter().enumerate() {
            env.engine
                .create_table(table, &schema())
                .map_err(|e| format!("create {table}: {e}"))?;
            let rows: Vec<Vec<Value>> = (0..PRELOAD_ROWS)
                .map(|id| {
                    let tag = tag(&mut rng);
                    let amount = rng.gen_range(1..10_000i64);
                    models[t].insert(id, (tag.clone(), amount));
                    row(id, &tag, amount)
                })
                .collect();
            user_bytes_written += rows.iter().map(|r| row_bytes(r)).sum::<u64>();
            let batch = RecordBatch::from_rows(schema(), &rows).map_err(|e| e.to_string())?;
            let mut txn = env.engine.begin();
            txn.insert(table, &batch)
                .map_err(|e| format!("preload {table}: {e}"))?;
            txn.commit().map_err(|e| format!("preload {table}: {e}"))?;
        }
        let mut state = State {
            rng,
            models,
            next_id: [PRELOAD_ROWS; 3],
            statements: 0,
            user_bytes_written,
        };
        let mut client = env.client();
        let mut warm = Phase::default();
        for _ in 0..WARMUP_STATEMENTS {
            state.step(&mut client, &mut warm, false);
        }
        if warm.failed > 0 || !warm.errors.is_empty() {
            return Err(format!("warm-up failed: {:?}", warm.errors));
        }
        Ok(state)
    }

    fn run(&self, env: &Env, state: &mut State, seconds: f64) -> Phase {
        let mut client = env.client();
        let mut phase = Phase::default();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            state.step(&mut client, &mut phase, true);
        }
        phase.wall_s = start.elapsed().as_secs_f64();
        if let Some(clock) = client.clock.as_mut() {
            clock.wall_ns = start.elapsed().as_nanos() as u64;
            phase.clock = clock.clone();
        }
        phase
    }

    fn check(&self, env: &Env, state: &State) -> Vec<String> {
        let mut client = env.client();
        let mut errors = Vec::new();
        for (t, table) in TABLES.iter().enumerate() {
            let want_count = state.models[t].len() as i64;
            let want_sum: i64 = state.models[t].values().map(|e| e.1).sum();
            match client.auto(&format!("SELECT COUNT(*), SUM(amount) FROM {table}")) {
                Ok(r) if r.batch.num_rows() == 1 => {
                    let got = r.batch.row(0);
                    if got != vec![Value::Int(want_count), Value::Int(want_sum)] {
                        errors.push(format!(
                            "{table}: COUNT/SUM {got:?}, want [{want_count}, {want_sum}]"
                        ));
                    }
                }
                Ok(r) => errors.push(format!("{table}: {} result rows", r.batch.num_rows())),
                Err(e) => errors.push(format!("{table}: final check failed: {e}")),
            }
        }
        errors
    }

    fn user_bytes(&self, state: &State) -> (u64, u64) {
        let live = state
            .models
            .iter()
            .flat_map(|m| m.iter())
            .map(|(id, (tag, amount))| row_bytes(&row(*id, tag, *amount)))
            .sum();
        (state.user_bytes_written, live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_count_or_sum_fails_the_check_also_after_reopen() {
        let env = Oltp.open(false).expect("engine opens");
        let mut state = Oltp.load(&env, 7).expect("set-up succeeds");
        let env = env.reopen().expect("engine reopens");
        assert!(Oltp.check(&env, &state).is_empty());
        state.models[1].get_mut(&3).expect("preloaded row").1 += 1;
        let errors = Oltp.check(&env, &state);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].starts_with("orders"));
        state.models[2].remove(&0);
        assert_eq!(Oltp.check(&env, &state).len(), 2);
    }
}
