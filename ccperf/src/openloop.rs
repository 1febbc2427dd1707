//! The open-loop request generator: one thread submits each request when
//! it is due and, between due times, waits on the shared reply channel.
//!
//! Latency is timed from a request's *due* time, not from when it was
//! actually sent, so a stall — in the server or in the generator itself —
//! is charged to every request that queued behind it. The generator also
//! reports its own lateness (sent − due) so a run whose generator could
//! not keep the schedule is visible as such.

use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// What happened to each request, in nanoseconds from the run's start.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// When each request was due.
    pub due_ns: Vec<u64>,
    /// When the generator actually called `submit` for it.
    pub sent_ns: Vec<u64>,
    /// How long the `submit` call itself took.
    pub submit_ns: Vec<u64>,
    /// When its terminal reply arrived (`None`: never, within the drain
    /// limit).
    pub done_ns: Vec<Option<u64>>,
    /// When the last terminal reply arrived.
    pub end_ns: u64,
}

impl Timeline {
    /// Latency of request `i` from its due time, if it finished.
    pub fn latency_ns(&self, i: usize) -> Option<u64> {
        self.done_ns[i].map(|d| d.saturating_sub(self.due_ns[i]))
    }

    /// How late the generator sent request `i`.
    pub fn late_ns(&self, i: usize) -> u64 {
        self.sent_ns[i].saturating_sub(self.due_ns[i])
    }

    /// Requests that finished.
    pub fn finished(&self) -> usize {
        self.done_ns.iter().filter(|d| d.is_some()).count()
    }
}

/// Evenly spaced due times: `count` requests at `rate` per second, the
/// first due at 0.
pub fn fixed_rate(count: usize, rate: f64) -> Vec<u64> {
    let gap = 1e9 / rate;
    (0..count).map(|i| (i as f64 * gap) as u64).collect()
}

/// Drives `due_ns.len()` requests open-loop.
///
/// `submit(i)` sends request `i`; its replies arrive on `replies`.
/// `on_reply(reply, now_ns)` sees every reply with its arrival time and
/// returns `Some(i)` when the reply is request `i`'s terminal one. After
/// the last request is sent the generator waits at most `drain` for the
/// outstanding terminals.
pub fn drive<R>(
    due_ns: &[u64],
    mut submit: impl FnMut(usize),
    replies: &Receiver<R>,
    mut on_reply: impl FnMut(R, u64) -> Option<usize>,
    drain: Duration,
) -> Timeline {
    let count = due_ns.len();
    let mut t = Timeline {
        due_ns: due_ns.to_vec(),
        sent_ns: vec![0; count],
        submit_ns: vec![0; count],
        done_ns: vec![None; count],
        end_ns: 0,
    };
    let start = Instant::now();
    let now = || start.elapsed().as_nanos() as u64;
    let mut next = 0;
    let mut done = 0;
    let mut drain_until = u64::MAX;
    while done < count {
        let at = now();
        if next < count && at >= due_ns[next] {
            t.sent_ns[next] = at;
            submit(next);
            t.submit_ns[next] = now() - at;
            next += 1;
            if next == count {
                drain_until = now().saturating_add(drain.as_nanos() as u64);
            }
            continue;
        }
        let wake = if next < count {
            due_ns[next]
        } else {
            drain_until
        };
        if at >= wake {
            break; // drain limit reached with requests outstanding
        }
        match replies.recv_timeout(Duration::from_nanos(wake - at)) {
            Ok(reply) => {
                let arrived = now();
                if let Some(i) = on_reply(reply, arrived) {
                    if t.done_ns[i].is_none() {
                        t.done_ns[i] = Some(arrived);
                        t.end_ns = t.end_ns.max(arrived);
                        done += 1;
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                if next == count {
                    break;
                }
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::thread;

    const MS: u64 = 1_000_000;

    /// A one-worker fake server: serves requests in arrival order, taking
    /// `work(i)` for request `i`, and replies with the index.
    fn fake_server(
        work: fn(usize) -> Duration,
    ) -> (
        std::sync::mpsc::Sender<usize>,
        Receiver<usize>,
        thread::JoinHandle<()>,
    ) {
        let (req_tx, req_rx) = channel::<usize>();
        let (rep_tx, rep_rx) = channel::<usize>();
        let h = thread::spawn(move || {
            for i in req_rx {
                thread::sleep(work(i));
                if rep_tx.send(i).is_err() {
                    break;
                }
            }
        });
        (req_tx, rep_rx, h)
    }

    #[test]
    fn a_stalled_server_is_charged_to_the_requests_behind_it() {
        // Requests every 10 ms; request 3 stalls the server for 120 ms.
        let (req, rep, h) = fake_server(|i| Duration::from_millis(if i == 3 { 120 } else { 1 }));
        let due = fixed_rate(8, 100.0);
        let t = drive(
            &due,
            |i| req.send(i).unwrap(),
            &rep,
            |i, _| Some(i),
            Duration::from_secs(5),
        );
        drop(req);
        h.join().unwrap();
        assert_eq!(t.finished(), 8);
        // Request 3 holds the server from 30 to 150 ms: request 4 (due at
        // 40 ms) waits ≈ 110 ms and request 7 (due at 70 ms) ≈ 80 ms.
        assert!(t.latency_ns(4).unwrap() >= 100 * MS, "{t:?}");
        assert!(t.latency_ns(7).unwrap() >= 70 * MS, "{t:?}");
        assert!(t.latency_ns(0).unwrap() < 60 * MS, "{t:?}");
        // The generator itself kept the schedule.
        assert!((0..8).all(|i| t.late_ns(i) < 50 * MS), "{t:?}");
    }

    #[test]
    fn a_stalled_generator_reports_its_lateness_and_charges_it() {
        // The submit call for request 2 blocks for 80 ms: requests 3.. are
        // sent late, and their latency from due time includes that.
        let (req, rep, h) = fake_server(|_| Duration::from_millis(1));
        let due = fixed_rate(6, 100.0);
        let t = drive(
            &due,
            |i| {
                if i == 2 {
                    thread::sleep(Duration::from_millis(80));
                }
                req.send(i).unwrap();
            },
            &rep,
            |i, _| Some(i),
            Duration::from_secs(5),
        );
        drop(req);
        h.join().unwrap();
        assert_eq!(t.finished(), 6);
        assert!(t.submit_ns[2] >= 80 * MS);
        let late_3 = t.late_ns(3);
        assert!(
            late_3 >= 60 * MS,
            "request 3 was due 10 ms into an 80 ms stall"
        );
        assert!(t.latency_ns(3).unwrap() >= late_3);
        assert!(t.late_ns(0) < 50 * MS);
    }

    #[test]
    fn unanswered_requests_stop_at_the_drain_limit() {
        let (tx, rx) = channel::<usize>();
        let due = fixed_rate(3, 1000.0);
        let t = drive(
            &due,
            |i| {
                if i != 1 {
                    tx.send(i).unwrap();
                }
            },
            &rx,
            |i, _| Some(i),
            Duration::from_millis(30),
        );
        assert_eq!(t.finished(), 2);
        assert_eq!(t.latency_ns(1), None);
    }
}
