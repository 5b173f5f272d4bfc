//! `olap_scan`: one client runs the 22 TPC-H-shaped queries over tables
//! loaded in set-up, on a non-durable in-memory engine, with no writes.
//! Each query runs in its own explicit read-only transaction; with no
//! writes, the transaction from `BEGIN` to the acknowledged `COMMIT` is
//! what the commit metrics time.

use crate::client::Client;
use crate::common::{config, digest, Env, Phase, Stack};
use crate::workload::Workload;
use polaris_workloads::{queries, tpch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// TPC-H scale factor: lineitem rows = `SF * tpch::ROWS_PER_SF`.
const SF: f64 = 1.0;
/// The tables are generated from the workloads crate's fixed seed, like
/// TPC-H's one data set per scale factor: on tables this small, another
/// seed changes the selectivity of the queries' constant predicates, and
/// with it the work per query, by up to a fifth. `--seed` orders the
/// queries.
const DATA_SEED: u64 = polaris_workloads::SEED;

pub struct State {
    rng: StdRng,
    queries: Vec<(&'static str, String)>,
    /// Result digest of each query, from the warm-up pass.
    reference: Vec<u64>,
    user_bytes: u64,
}

pub struct Olap;

/// Runs query `i` in an explicit transaction and checks its digest.
fn query(
    state: &State,
    i: usize,
    client: &mut Client,
    phase: &mut Phase,
    timed: bool,
) -> Option<u64> {
    let (name, sql) = &state.queries[i];
    phase.attempted += 1;
    let txn_start = Instant::now();
    let mut txn = client.begin();
    let start = Instant::now();
    let result = match client.parse(sql) {
        Ok(stmt) => client.execute(&mut txn, &stmt),
        Err(e) => Err(e),
    };
    let read_ns = start.elapsed().as_nanos() as u64;
    let batch = match result {
        Ok(r) => r.batch,
        Err(e) => {
            phase.fail(name, e);
            return None;
        }
    };
    if let Err(e) = client.commit(txn, false) {
        phase.fail(name, e);
        return None;
    }
    if timed {
        phase.reads.push(read_ns);
        phase.commits.push(txn_start.elapsed().as_nanos() as u64);
    }
    client.after_op();
    Some(digest(&batch))
}

impl Workload for Olap {
    type State = State;

    fn open(&self, traced: bool) -> Result<Env, String> {
        Env::open(Stack::new(None, traced), config(false, traced))
    }

    fn load(&self, env: &Env, seed: u64) -> Result<State, String> {
        let mut user_bytes = 0;
        for table in tpch::TABLES {
            env.engine
                .create_table(table, &tpch::schema_of(table))
                .map_err(|e| format!("create {table}: {e}"))?;
            let data = tpch::generate(table, SF, DATA_SEED);
            user_bytes += (0..data.num_rows())
                .map(|i| crate::common::row_bytes(&data.row(i)))
                .sum::<u64>();
            let mut txn = env.engine.begin();
            txn.insert(table, &data)
                .map_err(|e| format!("load {table}: {e}"))?;
            txn.commit().map_err(|e| format!("load {table}: {e}"))?;
        }
        let mut state = State {
            rng: StdRng::seed_from_u64(seed),
            queries: queries::all(),
            reference: Vec::new(),
            user_bytes,
        };
        let mut client = env.client();
        let mut warm = Phase::default();
        for i in 0..state.queries.len() {
            let d = query(&state, i, &mut client, &mut warm, false)
                .ok_or_else(|| format!("warm-up query {} failed", state.queries[i].0))?;
            state.reference.push(d);
        }
        Ok(state)
    }

    fn run(&self, env: &Env, state: &mut State, seconds: f64) -> Phase {
        let mut client = env.client();
        let mut phase = Phase::default();
        let mut order: Vec<usize> = (0..state.queries.len()).collect();
        let start = Instant::now();
        'run: loop {
            for k in (1..order.len()).rev() {
                order.swap(k, state.rng.gen_range(0..=k));
            }
            for &i in &order {
                if start.elapsed().as_secs_f64() >= seconds {
                    break 'run;
                }
                if let Some(d) = query(state, i, &mut client, &mut phase, true) {
                    if let Some(msg) = check_digest(state, i, d) {
                        phase.violation(msg);
                    }
                }
            }
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
        let mut phase = Phase::default();
        for i in 0..state.queries.len() {
            if let Some(d) = query(state, i, &mut client, &mut phase, false) {
                if let Some(msg) = check_digest(state, i, d) {
                    phase.violation(msg);
                }
            }
        }
        if phase.failed > 0 {
            phase.violation(format!("{} final queries failed", phase.failed));
        }
        phase.errors
    }

    fn user_bytes(&self, state: &State) -> (u64, u64) {
        (state.user_bytes, state.user_bytes)
    }

    fn fingerprint(&self, state: &State) -> Option<u64> {
        Some(state.reference.iter().fold(0, |h, d| h.rotate_left(7) ^ d))
    }
}

/// A mismatch between query `i`'s digest and its warm-up reference.
fn check_digest(state: &State, i: usize, got: u64) -> Option<String> {
    let want = state.reference[i];
    (got != want).then(|| {
        format!(
            "{}: result digest {got:#x}, warm-up gave {want:#x}",
            state.queries[i].0
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_digest_fails_the_check() {
        let env = Olap.open(false).expect("engine opens");
        let mut state = Olap.load(&env, 7).expect("set-up succeeds");
        assert!(Olap.check(&env, &state).is_empty());
        state.reference[3] ^= 1;
        let errors = Olap.check(&env, &state);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].starts_with(state.queries[3].0));
    }

    #[test]
    fn one_seed_gives_one_fingerprint() {
        let print = |seed| {
            let env = Olap.open(false).expect("engine opens");
            let state = Olap.load(&env, seed).expect("set-up succeeds");
            Olap.fingerprint(&state)
        };
        assert_eq!(print(7), print(7));
    }
}
