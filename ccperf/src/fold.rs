//! The traced run's sink: a [`Tracer`] that timestamps the events the
//! engines already emit and folds them, in one pass, into layer times.
//!
//! Nothing here adds an emission site to the program. The sink reads the
//! clock only on scope boundaries; round and compute times come from the
//! engines' own timing events ([`Event::RoundWall`], [`Event::NodeCompute`],
//! [`Event::WorkerSpan`]), and message batches — one per (src, dst) per
//! round, by far the most frequent event — fall straight through. The sink owns
//! its fold outright (no lock per event) and hands it over once, when the
//! engine flushes it on [`take_tracer`](cc_net::CliqueNet::take_tracer).

use cc_trace::{Event, Tracer};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Layer times folded from one traced solve. Times are nanoseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerFold {
    /// Self time per scope name: the scope's span minus the part of it
    /// its child scopes cover.
    pub self_ns: BTreeMap<String, u64>,
    /// Rounds accrued inside each scope (from `ScopeExit` deltas; exact).
    pub scope_rounds: BTreeMap<String, u64>,
    /// Sum of [`Event::RoundWall`].
    pub round_wall_ns: u64,
    /// Sum of [`Event::NodeCompute`] (the CliqueNet engine).
    pub node_compute_ns: u64,
    /// Sum of [`Event::WorkerSpan`] (the runtime engines).
    pub worker_busy_ns: u64,
    /// Per round, round wall minus its slowest worker span, summed: the
    /// runtime's exchange and synchronisation time.
    pub exchange_ns: u64,
    /// Messages (from `RoundEnd`).
    pub messages: u64,
    /// Most distinct workers seen reporting spans in one round.
    pub workers: u32,
    stack: Vec<OpenScope>,
    round_max_span: u64,
    round_workers: u32,
}

#[derive(Clone, Debug, PartialEq)]
struct OpenScope {
    name: String,
    enter_ns: u64,
    child_ns: u64,
}

impl LayerFold {
    /// Folds one event observed at `now_ns` (any monotonic origin). Only
    /// scope events use `now_ns`.
    pub fn apply(&mut self, event: Event, now_ns: u64) {
        match event {
            Event::ScopeEnter { name, .. } => self.stack.push(OpenScope {
                name,
                enter_ns: now_ns,
                child_ns: 0,
            }),
            Event::ScopeExit { name, delta } => {
                let Some(open) = self.stack.pop() else {
                    return;
                };
                debug_assert_eq!(open.name, name, "scope exits must nest");
                let span = now_ns.saturating_sub(open.enter_ns);
                *self.self_ns.entry(name.clone()).or_default() +=
                    span.saturating_sub(open.child_ns);
                *self.scope_rounds.entry(name).or_default() += delta.rounds;
                if let Some(parent) = self.stack.last_mut() {
                    parent.child_ns += span;
                }
            }
            Event::NodeCompute { nanos, .. } => self.node_compute_ns += nanos,
            Event::WorkerSpan { nanos, .. } => {
                self.worker_busy_ns += nanos;
                self.round_max_span = self.round_max_span.max(nanos);
                self.round_workers += 1;
            }
            Event::RoundWall { nanos, .. } => {
                self.round_wall_ns += nanos;
                if self.round_workers > 0 {
                    self.exchange_ns += nanos.saturating_sub(self.round_max_span);
                    self.workers = self.workers.max(self.round_workers);
                }
                self.round_max_span = 0;
                self.round_workers = 0;
            }
            Event::RoundEnd { messages, .. } => self.messages += messages,
            Event::RoundStart { .. }
            | Event::MessageBatch { .. }
            | Event::FastForward { .. }
            | Event::Fault { .. }
            | Event::NodeCrash { .. } => {}
        }
    }

    /// Self time of the scope named exactly `name`.
    pub fn self_of(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }
}

/// The benchmark's tracer: folds into a private [`LayerFold`] and
/// publishes it to the shared slot on `flush`.
pub struct LayerSink {
    origin: Instant,
    fold: LayerFold,
    out: Arc<Mutex<Option<LayerFold>>>,
}

impl LayerSink {
    /// A sink and the slot its fold lands in once the engine flushes it.
    pub fn new() -> (LayerSink, Arc<Mutex<Option<LayerFold>>>) {
        let out = Arc::new(Mutex::new(None));
        let sink = LayerSink {
            origin: Instant::now(),
            fold: LayerFold::default(),
            out: Arc::clone(&out),
        };
        (sink, out)
    }
}

impl Tracer for LayerSink {
    fn record(&mut self, event: Event) {
        let now = match event {
            Event::ScopeEnter { .. } | Event::ScopeExit { .. } => {
                self.origin.elapsed().as_nanos() as u64
            }
            _ => 0,
        };
        self.fold.apply(event, now);
    }

    fn flush(&mut self) {
        let fold = std::mem::take(&mut self.fold);
        *self.out.lock().expect("no sink holder panics") = Some(fold);
    }
}

/// Takes the fold a flushed [`LayerSink`] published.
///
/// # Panics
///
/// Panics if the sink was never flushed (the engine still holds it).
pub fn take_fold(slot: &Arc<Mutex<Option<LayerFold>>>) -> LayerFold {
    slot.lock()
        .expect("no sink holder panics")
        .take()
        .expect("the engine flushes its tracer on take_tracer")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_trace::CostSnapshot;

    fn enter(name: &str) -> Event {
        Event::ScopeEnter {
            name: name.into(),
            round: 0,
        }
    }

    fn exit(name: &str, rounds: u64) -> Event {
        Event::ScopeExit {
            name: name.into(),
            delta: CostSnapshot {
                rounds,
                ..CostSnapshot::default()
            },
        }
    }

    #[test]
    fn self_time_is_span_minus_child_spans() {
        // outer [0, 100) holds a [10, 40) and b [50, 70); a holds c [20, 25).
        let mut f = LayerFold::default();
        let stream = [
            (enter("outer"), 0),
            (enter("a"), 10),
            (enter("c"), 20),
            (exit("c", 1), 25),
            (exit("a", 3), 40),
            (enter("b"), 50),
            (exit("b", 2), 70),
            (exit("outer", 9), 100),
        ];
        for (ev, t) in stream {
            f.apply(ev, t);
        }
        assert_eq!(f.self_of("outer"), 100 - 30 - 20);
        assert_eq!(f.self_of("a"), 30 - 5);
        assert_eq!(f.self_of("c"), 5);
        assert_eq!(f.self_of("b"), 20);
        // Self times partition the outermost span.
        assert_eq!(f.self_ns.values().sum::<u64>(), 100);
        assert_eq!(f.scope_rounds["a"], 3);
    }

    #[test]
    fn repeated_scopes_accumulate() {
        let mut f = LayerFold::default();
        for k in 0..3u64 {
            f.apply(enter("route:route"), 100 * k);
            f.apply(exit("route:route", 2), 100 * k + 7);
        }
        assert_eq!(f.self_of("route:route"), 21);
        assert_eq!(f.scope_rounds["route:route"], 6);
    }

    #[test]
    fn clique_net_rounds_split_into_compute_and_engine() {
        // CliqueNet: one NodeCompute per node, then the round's wall.
        let mut f = LayerFold::default();
        for round in 0..2 {
            f.apply(Event::RoundStart { round }, 0);
            for node in 0..3 {
                f.apply(
                    Event::NodeCompute {
                        round,
                        node,
                        nanos: 10,
                    },
                    0,
                );
            }
            f.apply(Event::RoundWall { round, nanos: 50 }, 0);
            f.apply(
                Event::RoundEnd {
                    round,
                    messages: 4,
                    words: 8,
                },
                0,
            );
        }
        assert_eq!(f.round_wall_ns, 100);
        assert_eq!(f.node_compute_ns, 60);
        assert_eq!(f.round_wall_ns - f.node_compute_ns, 40);
        assert_eq!(f.messages, 8);
        // No worker spans: nothing is charged to the runtime exchange.
        assert_eq!((f.worker_busy_ns, f.exchange_ns, f.workers), (0, 0, 0));
    }

    #[test]
    fn runtime_rounds_split_into_workers_and_exchange() {
        // Runtime: worker spans, then the round's wall. Exchange is the
        // wall minus the slowest worker, per round.
        let mut f = LayerFold::default();
        let rounds: [(&[u64], u64); 2] = [(&[30, 20], 50), (&[5, 15], 40)];
        for (round, (spans, wall)) in rounds.iter().enumerate() {
            for (w, &nanos) in spans.iter().enumerate() {
                f.apply(
                    Event::WorkerSpan {
                        round: round as u64,
                        worker: w as u32,
                        node_lo: 0,
                        node_hi: 1,
                        nanos,
                    },
                    0,
                );
            }
            f.apply(
                Event::RoundWall {
                    round: round as u64,
                    nanos: *wall,
                },
                0,
            );
        }
        assert_eq!(f.round_wall_ns, 90);
        assert_eq!(f.worker_busy_ns, 70);
        assert_eq!(f.exchange_ns, (50 - 30) + (40 - 15));
        assert_eq!(f.workers, 2);
        assert_eq!(f.node_compute_ns, 0);
    }

    #[test]
    fn sink_publishes_its_fold_on_flush() {
        let (mut sink, slot) = LayerSink::new();
        sink.record(Event::RoundEnd {
            round: 0,
            messages: 3,
            words: 3,
        });
        assert!(slot.lock().unwrap().is_none());
        sink.flush();
        assert_eq!(take_fold(&slot).messages, 3);
    }
}
