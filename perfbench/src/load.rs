//! Open- and closed-loop load generation from one process.
//!
//! Each worker owns one state value (a client connection, or nothing for
//! library calls) and runs on its own scoped thread, so the number of
//! load threads and connections is the number of worker states passed in.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Time source of a load phase, in milliseconds since the phase began.
pub trait Clock: Sync {
    /// Milliseconds since the phase began.
    fn now_ms(&self) -> f64;
    /// Block until `t` (returns at once when `t` has passed).
    fn sleep_until_ms(&self, t: f64);
}

/// The real clock.
pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> WallClock {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ms(&self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e3
    }

    fn sleep_until_ms(&self, t: f64) {
        let now = self.now_ms();
        if t > now {
            std::thread::sleep(Duration::from_secs_f64((t - now) / 1e3));
        }
    }
}

/// One request of an open-loop phase.
#[derive(Debug)]
pub struct Sent<R> {
    pub idx: usize,
    /// Completion minus due time: what a user arriving on schedule waits,
    /// including any stall that held up the requests before it.
    pub latency_ms: f64,
    /// Send minus due time: how far behind schedule the request left.
    pub lateness_ms: f64,
    pub result: Result<R, String>,
}

/// What an open-loop phase measured.
#[derive(Debug)]
pub struct OpenReport<R> {
    /// Every request sent, in schedule order.
    pub sent: Vec<Sent<R>>,
    /// Requests the schedule held that were never sent because the
    /// phase was cut for running too late.
    pub unsent: usize,
    /// How late an idle worker woke for a due time: the generator's own
    /// lateness, apart from any backlog of the system under test.
    pub oversleep_ms: Vec<f64>,
}

impl<R> OpenReport<R> {
    pub fn latencies(&self) -> Vec<f64> {
        self.sent.iter().map(|s| s.latency_ms).collect()
    }

    /// Requests that errored, plus requests never sent.
    pub fn failed(&self) -> usize {
        self.sent.iter().filter(|s| s.result.is_err()).count() + self.unsent
    }

    pub fn attempted(&self) -> usize {
        self.sent.len() + self.unsent
    }

    pub fn ok(&self) -> impl Iterator<Item = &R> {
        self.sent.iter().filter_map(|s| s.result.as_ref().ok())
    }

    pub fn max_lateness_ms(&self) -> f64 {
        self.sent.iter().map(|s| s.lateness_ms).fold(0.0, f64::max)
    }
}

/// Send `count` requests due every `1000 / rate` ms, each on whichever
/// worker is free first. A request that could leave only more than
/// `cut_late_ms` after its due time is not sent, and neither is any
/// request after it: the phase ends as failed instead of piling up an
/// unbounded backlog.
pub fn open_loop<C, W, R, F>(
    clock: &C,
    rate: f64,
    count: usize,
    cut_late_ms: f64,
    workers: &mut [W],
    op: F,
) -> OpenReport<R>
where
    C: Clock,
    W: Send,
    R: Send,
    F: Fn(&mut W, usize) -> Result<R, String> + Sync,
{
    let period_ms = 1e3 / rate;
    let next = AtomicUsize::new(0);
    let cut = AtomicBool::new(false);
    let sent = Mutex::new(Vec::with_capacity(count));
    let oversleep = Mutex::new(Vec::with_capacity(count));
    std::thread::scope(|s| {
        for w in workers.iter_mut() {
            let (next, cut, sent, oversleep, op) = (&next, &cut, &sent, &oversleep, &op);
            s.spawn(move || loop {
                if cut.load(Ordering::SeqCst) {
                    return;
                }
                let idx = next.fetch_add(1, Ordering::SeqCst);
                if idx >= count {
                    return;
                }
                let due = idx as f64 * period_ms;
                if clock.now_ms() < due {
                    clock.sleep_until_ms(due);
                    oversleep.lock().expect("oversleep log").push(clock.now_ms() - due);
                }
                let send = clock.now_ms();
                if send - due > cut_late_ms {
                    cut.store(true, Ordering::SeqCst);
                    return;
                }
                let result = op(w, idx);
                let done = clock.now_ms();
                sent.lock().expect("sent log").push(Sent {
                    idx,
                    latency_ms: done - due,
                    lateness_ms: send - due,
                    result,
                });
            });
        }
    });
    let mut sent = sent.into_inner().expect("sent log");
    sent.sort_by_key(|s| s.idx);
    OpenReport {
        unsent: count - sent.len(),
        sent,
        oversleep_ms: oversleep.into_inner().expect("oversleep log"),
    }
}

/// One operation of a closed-loop phase.
#[derive(Debug)]
pub struct Done<R> {
    pub idx: usize,
    pub worker: usize,
    pub result: Result<R, String>,
    /// Round-trip time of the operation.
    pub ms: f64,
    /// When it completed, from the start of the phase.
    pub end_ms: f64,
}

/// What a closed-loop phase measured.
#[derive(Debug)]
pub struct ClosedReport<R> {
    /// Every operation, in index order.
    pub done: Vec<Done<R>>,
}

impl<R> ClosedReport<R> {
    pub fn failed(&self) -> usize {
        self.done.iter().filter(|d| d.result.is_err()).count()
    }

    /// Completed operations per second: each worker's completions over
    /// the time to its last one, summed. A worker that finished early is
    /// not charged for waiting on the others.
    pub fn rate(&self) -> f64 {
        let workers = self.done.iter().map(|d| d.worker + 1).max().unwrap_or(0);
        (0..workers)
            .filter_map(|w| {
                let mine = self.done.iter().filter(|d| d.worker == w);
                let end_ms = mine.clone().map(|d| d.end_ms).fold(0.0, f64::max);
                let ok = mine.filter(|d| d.result.is_ok()).count();
                (end_ms > 0.0).then(|| ok as f64 * 1e3 / end_ms)
            })
            .sum()
    }
}

/// Each worker issues its next operation as soon as its previous one
/// completes, until `count` operations have started or `until_ms` has
/// passed, whichever comes first.
pub fn closed_loop<C, W, R, F>(
    clock: &C,
    count: usize,
    until_ms: f64,
    workers: &mut [W],
    op: F,
) -> ClosedReport<R>
where
    C: Clock,
    W: Send,
    R: Send,
    F: Fn(&mut W, usize) -> Result<R, String> + Sync,
{
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for (worker, w) in workers.iter_mut().enumerate() {
            let (next, done, op) = (&next, &done, &op);
            s.spawn(move || loop {
                if clock.now_ms() >= until_ms {
                    return;
                }
                let idx = next.fetch_add(1, Ordering::SeqCst);
                if idx >= count {
                    return;
                }
                let started = clock.now_ms();
                let result = op(w, idx);
                let end_ms = clock.now_ms();
                let d = Done { idx, worker, result, ms: end_ms - started, end_ms };
                done.lock().expect("closed-loop log").push(d);
            });
        }
    });
    let mut done = done.into_inner().expect("closed-loop log");
    done.sort_by_key(|d| d.idx);
    ClosedReport { done }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that moves only when told to: sleeping jumps to the due
    /// time, and the operation under test advances it by its service time.
    struct FakeClock(Mutex<f64>);

    impl FakeClock {
        fn advance(&self, ms: f64) {
            *self.0.lock().unwrap() += ms;
        }
    }

    impl Clock for FakeClock {
        fn now_ms(&self) -> f64 {
            *self.0.lock().unwrap()
        }

        fn sleep_until_ms(&self, t: f64) {
            let mut now = self.0.lock().unwrap();
            *now = now.max(t);
        }
    }

    /// 100 requests/s on one worker; every request takes 1 ms except
    /// request 2, which stalls for 35 ms.
    fn stalled(cut_late_ms: f64) -> OpenReport<()> {
        let clock = FakeClock(Mutex::new(0.0));
        open_loop(&clock, 100.0, 8, cut_late_ms, &mut [()], |_, idx| {
            clock.advance(if idx == 2 { 35.0 } else { 1.0 });
            Ok(())
        })
    }

    #[test]
    fn latency_runs_from_the_due_time_through_a_stall() {
        let r = stalled(f64::INFINITY);
        let got: Vec<(usize, f64, f64)> =
            r.sent.iter().map(|s| (s.idx, s.latency_ms, s.lateness_ms)).collect();
        assert_eq!(
            got,
            vec![
                (0, 1.0, 0.0),
                (1, 1.0, 0.0),
                (2, 35.0, 0.0),
                // Due at 30, 40, 50 but sent only as the stall clears:
                // the wait counts against each request.
                (3, 26.0, 25.0),
                (4, 17.0, 16.0),
                (5, 8.0, 7.0),
                (6, 1.0, 0.0),
                (7, 1.0, 0.0),
            ]
        );
        assert_eq!((r.unsent, r.failed(), r.attempted()), (0, 0, 8));
        assert_eq!(r.max_lateness_ms(), 25.0);
        // The generator itself woke on time whenever it slept.
        assert!(r.oversleep_ms.iter().all(|&ms| ms == 0.0));
        assert_eq!(r.oversleep_ms.len(), 4);
    }

    #[test]
    fn a_phase_running_too_late_is_cut_and_counted_failed() {
        let r = stalled(20.0);
        assert_eq!(r.sent.iter().map(|s| s.idx).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!((r.unsent, r.failed(), r.attempted()), (5, 5, 8));
    }

    #[test]
    fn closed_loop_stops_at_count_or_deadline() {
        let clock = FakeClock(Mutex::new(0.0));
        let r = closed_loop(&clock, 5, f64::INFINITY, &mut [()], |_, _| {
            clock.advance(10.0);
            Ok::<_, String>(())
        });
        assert_eq!((r.done.len(), r.rate()), (5, 100.0));
        assert_eq!(r.done[4].end_ms, 50.0);
        let clock = FakeClock(Mutex::new(0.0));
        let r = closed_loop(&clock, usize::MAX, 25.0, &mut [()], |_, idx| {
            clock.advance(10.0);
            if idx == 1 {
                Err("boom".to_string())
            } else {
                Ok(())
            }
        });
        assert_eq!((r.done.len(), r.failed(), r.done[2].end_ms), (3, 1, 30.0));
        // Two of three completed over 30 ms.
        assert!((r.rate() - 2e3 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn closed_loop_rate_sums_workers_over_their_own_spans() {
        let done = |worker, end_ms| Done { idx: 0, worker, result: Ok(()), ms: 0.0, end_ms };
        // Worker 0 did 2 in 100 ms, worker 1 did 1 in 50 ms: 20/s + 20/s.
        let r = ClosedReport { done: vec![done(0, 50.0), done(1, 50.0), done(0, 100.0)] };
        assert!((r.rate() - 40.0).abs() < 1e-9);
    }
}
