//! Reads the engine's trace ring incrementally during the traced run and
//! adds up the durations of a few named spans.

use polaris_obs::trace::{TraceEventKind, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Spans whose durations the traced run reports.
pub const SPANS: &[&str] = &["catalog.validate", "lst.manifest_fetch", "wal.checkpoint"];

#[derive(Default)]
struct State {
    next_seq: u64,
    open: HashMap<u64, (&'static str, u64)>,
    totals: BTreeMap<&'static str, (u64, u64)>,
    lost_events: u64,
}

pub struct TraceDrain {
    tracer: Tracer,
    state: Mutex<State>,
}

impl TraceDrain {
    pub fn new(tracer: Tracer) -> Self {
        assert!(
            tracer.is_enabled(),
            "the traced run needs the engine's trace ring"
        );
        TraceDrain {
            tracer,
            state: Mutex::new(State::default()),
        }
    }

    fn emitted_and_capacity(&self) -> (u64, u64) {
        let sink = self.tracer.sink().expect("tracer is enabled");
        (sink.emitted(), sink.capacity() as u64)
    }

    /// Forget everything emitted so far: the measured phase starts now.
    pub fn reset(&self) {
        let (emitted, _) = self.emitted_and_capacity();
        let mut state = self.state.lock().expect("trace drain lock poisoned");
        *state = State {
            next_seq: emitted,
            ..State::default()
        };
    }

    /// Drain once a quarter of the ring holds unread events, so nothing is
    /// overwritten before it is read.
    pub fn maybe_drain(&self) {
        let (emitted, capacity) = self.emitted_and_capacity();
        let next = self
            .state
            .lock()
            .expect("trace drain lock poisoned")
            .next_seq;
        if emitted.saturating_sub(next) >= capacity / 4 {
            self.drain();
        }
    }

    pub fn drain(&self) {
        let mut guard = self.state.lock().expect("trace drain lock poisoned");
        let state = &mut *guard;
        let events = self.tracer.events();
        for e in events {
            if e.seq < state.next_seq {
                continue;
            }
            if e.seq > state.next_seq {
                state.lost_events += e.seq - state.next_seq;
            }
            state.next_seq = e.seq + 1;
            match e.kind {
                TraceEventKind::Begin => {
                    if let Some(name) = SPANS.iter().find(|n| **n == &*e.name) {
                        state.open.insert(e.span, (name, e.ts_ns));
                    }
                }
                TraceEventKind::End => {
                    if let Some((name, start)) = state.open.remove(&e.span) {
                        let total = state.totals.entry(name).or_default();
                        total.0 += 1;
                        total.1 += e.ts_ns.saturating_sub(start);
                    }
                }
                TraceEventKind::Instant => {}
            }
        }
    }

    /// `(spans, total ns)` per name in [`SPANS`], and events lost to ring
    /// wrap-around. Drains first.
    pub fn totals(&self) -> (BTreeMap<&'static str, (u64, u64)>, u64) {
        self.drain();
        let state = self.state.lock().expect("trace drain lock poisoned");
        (state.totals.clone(), state.lost_events)
    }
}
