//! The `serve-hot` and `shard-cold` workloads: load from this process
//! into the in-process serving tier through the typed client.

use std::time::{Duration, Instant};

use unet_obs::json::Value;
use unet_obs::trace::{parse_trace, SampleReason};
use unet_serve::protocol::SimulateReq;
use unet_serve::{Client, Router, RouterStats, ServeConfig, Server, ShardConfig};

use crate::library::{self, Output};
use crate::load::{self, OpenReport, Sent, WallClock};
use crate::report::Outcome;
use crate::spans::SpanLog;
use crate::{mix, nproc, procfs, stats, SETUPS};

/// One serving workload.
pub struct Shape {
    /// Open-loop rate at which latency and CPU per request are reported.
    /// Its period is well above the service time on a 2-core machine (67
    /// against about 36 ms on serve-hot, 91 against about 55 ms on
    /// shard-cold), so that latency there is mostly service time and a
    /// host slowed down by other tenants does not tip it into queueing.
    nominal_rps: f64,
    /// The tail latency a sustained rate must stay within.
    limit_ms: f64,
    /// Expected closed-loop capacity; sizes the closed-loop phase so it
    /// lasts about its share of the run.
    capacity_guess_rps: f64,
    /// Through a router over two backends, or straight into one server.
    sharded: bool,
}

/// The E22 row: one fingerprint, so after one warm-up every request hits
/// the plan cache and the engine replay and checker do the work.
pub const SERVE_HOT: Shape =
    Shape { nominal_rps: 15.0, limit_ms: 100.0, capacity_guess_rps: 55.0, sharded: false };

/// A fresh request seed every time, so every request misses the plan
/// cache, builds its plan and crosses the router hop.
pub const SHARD_COLD: Shape =
    Shape { nominal_rps: 11.0, limit_ms: 200.0, capacity_guess_rps: 26.0, sharded: true };

/// Shares of `--seconds` for the nominal open loop and the closed loop
/// of an untraced run, and for each try of a sustained-rate ladder step
/// (the ladder makes at most six tries).
const NOMINAL_SHARE: f64 = 0.4;
const CAPACITY_SHARE: f64 = 0.3;
const STEP_SHARE: f64 = 0.075;
/// Rounds of one nominal-rate window and one closed-loop chunk each.
const ROUNDS: usize = 10;
/// Windows, and chunks, with the least time stolen from the machine while
/// they ran, whose medians are reported.
const KEPT_ROUNDS: usize = 6;
/// Consecutive nominal windows pooled for one tail latency.
const TAIL_WINDOWS: usize = 2;
/// Rates of the sustained-rate ladder, as shares of the measured
/// capacity. Requests arrive evenly spaced, so the tail barely rises
/// until the rate nears capacity; the ladder brackets that knee.
const LADDER: [f64; 5] = [0.75, 0.85, 0.95, 1.05, 1.15];
/// Ladder steps beyond the limit that are made once more before one
/// counts (which bounds the ladder at six tries).
const LADDER_RETRIES: usize = 1;
/// A request that could leave only this many latency limits late ends
/// its open loop: a guard against a runaway backlog. A nominal or traced
/// phase counts the requests it never sent as failed.
const CUT_LIMITS: f64 = 10.0;
/// Share of `--seconds` for each of the untraced and traced phases of a
/// traced run.
const TRACED_SHARE: f64 = 0.3;
/// Served results compared with a library certified run of the same spec
/// (every result on serve-hot, where all share one reference).
const LIBRARY_SAMPLE: usize = 8;
const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

impl Shape {
    fn spec(&self, seed: u64, i: usize) -> SimulateReq {
        let (guest, host, steps, seed) = if self.sharded {
            ("random:1024x4", "butterfly:5", 2, mix(seed, i as u64))
        } else {
            ("ring:192", "butterfly:4", 64, mix(seed, 0))
        };
        SimulateReq {
            guest: guest.into(),
            host: host.into(),
            steps,
            seed,
            deadline_ms: None,
            id: None,
        }
    }

    /// Every request is checked against this library run when all share
    /// one spec.
    fn reference(&self, seed: u64) -> Result<Option<Output>, String> {
        if self.sharded {
            Ok(None)
        } else {
            library::certified(&self.spec(seed, 0), None, 0).map(Some)
        }
    }
}

/// What a served request returned.
#[derive(Debug, Clone)]
struct Reply {
    idx: usize,
    out: Output,
    wall_ms: f64,
    e2e_ms: f64,
    stages: Vec<(String, f64)>,
}

/// One simulate round trip; an unverified result, or one that differs
/// from `expected`, fails the request.
fn request(
    client: &mut Client,
    spec: &SimulateReq,
    idx: usize,
    expected: Option<Output>,
) -> Result<Reply, String> {
    let r = client.simulate(spec).map_err(|e| format!("request {idx}: {e}"))?;
    if !r.verified {
        return Err(format!("request {idx}: result not verified"));
    }
    let out = Output { host_steps: r.host_steps, comm_steps: r.comm_steps, slowdown: r.slowdown };
    if let Some(want) = expected.filter(|want| *want != out) {
        return Err(format!("request {idx}: {out:?} differs from the library run {want:?}"));
    }
    Ok(Reply { idx, out, wall_ms: r.wall_ms, e2e_ms: r.e2e_ms, stages: r.stages })
}

/// Plan-cache and admission counters summed over the tier's servers.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    hits: u64,
    misses: u64,
    followers: u64,
    rejected: u64,
}

impl Counts {
    fn add(&mut self, s: unet_serve::ServerStats) {
        self.hits += s.shared_hits;
        self.misses += s.shared_misses;
        self.followers += s.singleflight_followers;
        self.rejected += s.rejected;
    }
}

enum Tier {
    Single(Server),
    Sharded(Router, Vec<Server>),
}

struct Drained {
    counts: Counts,
    router: Option<(RouterStats, String)>,
    /// Server drain traces, holding the tail-sampled request records.
    traces: Vec<String>,
}

impl Tier {
    /// One server with the default config, or a router with the default
    /// config over two backends whose executors add up to `nproc`.
    fn start(sharded: bool, nproc: usize) -> Result<Tier, String> {
        let err = |e: std::io::Error| format!("start: {e}");
        if !sharded {
            return Server::start(ServeConfig::default()).map(Tier::Single).map_err(err);
        }
        let backends = [nproc.div_ceil(2), nproc / 2]
            .into_iter()
            .map(|workers| {
                Server::start(ServeConfig { workers: workers.max(1), ..ServeConfig::default() })
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let addrs = backends.iter().map(|b| b.addr().to_string()).collect();
        let router = Router::start(ShardConfig { backends: addrs, ..ShardConfig::default() })
            .map_err(err)?;
        Ok(Tier::Sharded(router, backends))
    }

    fn addr(&self) -> String {
        match self {
            Tier::Single(s) => s.addr().to_string(),
            Tier::Sharded(r, _) => r.addr().to_string(),
        }
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        match self {
            Tier::Single(s) => c.add(s.stats()),
            Tier::Sharded(_, backends) => backends.iter().for_each(|b| c.add(b.stats())),
        }
        c
    }

    fn drain(self) -> Drained {
        let (router, servers) = match self {
            Tier::Single(s) => (None, vec![s]),
            Tier::Sharded(r, backends) => {
                let d = r.drain();
                (Some((d.stats, d.exposition)), backends)
            }
        };
        let mut counts = Counts::default();
        let traces = servers
            .into_iter()
            .map(|s| {
                let d = s.drain();
                counts.add(d.stats);
                d.trace
            })
            .collect();
        Drained { counts, router, traces }
    }
}

/// A started tier, warmed up, with one open connection per core.
struct Ready {
    tier: Tier,
    clients: Vec<Client>,
    expected: Option<Output>,
    /// Spec index of the first measured request.
    next: usize,
}

/// Start the tier, make the inputs and warm up: one request on serve-hot
/// (its single plan miss), one per connection on shard-cold.
fn set_up(shape: &Shape, seed: u64) -> Result<Ready, String> {
    let tier = Tier::start(shape.sharded, nproc())?;
    let expected = shape.reference(seed)?;
    let mut clients = (0..nproc())
        .map(|_| Client::connect(&tier.addr()).map(|c| c.timeout(CLIENT_TIMEOUT)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let warmups = if shape.sharded { clients.len() } else { 1 };
    for (i, client) in clients.iter_mut().enumerate().take(warmups) {
        request(client, &shape.spec(seed, i), i, expected)?;
    }
    Ok(Ready { tier, clients, expected, next: warmups })
}

/// Open loop at `rate` over the next `count` specs, cut once a request
/// could leave only more than `cut_ms` late.
fn open(
    shape: &Shape,
    seed: u64,
    r: &mut Ready,
    rate: f64,
    count: usize,
    cut_ms: f64,
) -> OpenReport<Reply> {
    let (base, expected) = (r.next, r.expected);
    r.next += count;
    load::open_loop(&WallClock::start(), rate, count, cut_ms, &mut r.clients, |c, i| {
        request(c, &shape.spec(seed, base + i), base + i, expected)
    })
}

fn phase_count(rate: f64, seconds: u64, share: f64) -> usize {
    ((rate * seconds as f64 * share).round() as usize).max(1)
}

/// The untraced run: set up [`SETUPS`] times, then a nominal-rate open
/// loop, a closed loop with one client per core, and a ladder of
/// open-loop rates for the highest whose tail stays within the limit.
pub fn measure(
    shape: &Shape,
    seed: u64,
    seconds: u64,
    process_start: Instant,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut ready = None;
    for rep in 0..SETUPS {
        let started = if rep == 0 { process_start } else { Instant::now() };
        let r = set_up(shape, seed)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if rep + 1 < SETUPS {
            drop(r.clients);
            r.tier.drain();
        } else {
            ready = Some(r);
        }
    }
    let mut r = ready.expect("at least one set-up");
    let warmups = r.next;
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let mut oversleep = Vec::new();

    // The nominal open loop and the closed loop run in alternating
    // rounds across the first part of the run. Latency (median and tail),
    // CPU, run time and capacity are medians over the windows and chunks
    // in which the hypervisor stole the least time from this machine, so
    // a burst of load from outside the process, which spoils a few
    // rounds, does not set them.
    let n_open = phase_count(shape.nominal_rps, seconds, NOMINAL_SHARE / ROUNDS as f64);
    let n_closed = phase_count(shape.capacity_guess_rps, seconds, CAPACITY_SHARE / ROUNDS as f64);
    let closed_until_ms = 2e3 * seconds as f64 * CAPACITY_SHARE / ROUNDS as f64;
    let expected = r.expected;
    let mut windows = Vec::new();
    let mut chunk_rates = Vec::new();
    let (mut closed_done, mut closed_failed) = (0, 0);
    let (mut window_steal, mut chunk_steal) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let ticks = procfs::machine_ticks();
        let cpu_before = procfs::cpu_ms();
        let w = open(shape, seed, &mut r, shape.nominal_rps, n_open, CUT_LIMITS * shape.limit_ms);
        windows.push((procfs::cpu_ms() - cpu_before, w));
        window_steal.push(procfs::stolen_share(ticks));
        let ticks = procfs::machine_ticks();
        let base = r.next;
        r.next += n_closed;
        let closed = load::closed_loop(
            &WallClock::start(),
            n_closed,
            closed_until_ms,
            &mut r.clients,
            |c, i| request(c, &shape.spec(seed, base + i), base + i, expected),
        );
        chunk_rates.push(closed.rate());
        closed_done += closed.done.len();
        closed_failed += closed.failed();
        chunk_steal.push(procfs::stolen_share(ticks));
    }
    let (kept_w, kept_c) = (least_stolen(&window_steal), least_stolen(&chunk_steal));
    let kept_windows: Vec<&(f64, OpenReport<Reply>)> =
        kept_w.iter().map(|&i| &windows[i]).collect();
    let kept_rates: Vec<f64> = kept_c.iter().map(|&i| chunk_rates[i]).collect();
    let capacity = stats::median(&kept_rates).expect("rounds ran");
    // Peak memory after the rounds, whose request count is fixed: on
    // shard-cold every request adds a plan to the cache, and the ladder's
    // count depends on where the knee falls.
    let peak_rss = procfs::peak_rss_mb();
    let nominal: Vec<&Sent<Reply>> = windows.iter().flat_map(|(_, w)| &w.sent).collect();
    let nominal_unsent: usize = windows.iter().map(|(_, w)| w.unsent).sum();
    let nominal_failed = nominal.iter().filter(|s| s.result.is_err()).count() + nominal_unsent;
    let window_median = |f: &dyn Fn(f64, &OpenReport<Reply>) -> Option<f64>| {
        let per_window: Vec<f64> = kept_windows.iter().filter_map(|(cpu, w)| f(*cpu, w)).collect();
        stats::median(&per_window).ok_or("no request completed at the nominal rate")
    };
    let ok_latencies = |w: &OpenReport<Reply>| -> Vec<f64> {
        w.sent.iter().filter(|s| s.result.is_ok()).map(|s| s.latency_ms).collect()
    };
    let latency_p50 = window_median(&|_, w| stats::median(&ok_latencies(w)))?;
    let cpu_per_op =
        window_median(&|cpu, w| Some(cpu / w.ok().count() as f64).filter(|v| v.is_finite()))?;
    let run_p50 =
        window_median(&|_, w| stats::median(&w.ok().map(|r| r.wall_ms).collect::<Vec<_>>()))?;
    // Each tail is taken over a pair of windows, so that it rests on
    // enough samples to lie above the median.
    let tails: Vec<stats::Tail> = kept_windows
        .chunks(TAIL_WINDOWS)
        .filter_map(|group| {
            stats::tail(&group.iter().flat_map(|(_, w)| ok_latencies(w)).collect::<Vec<_>>())
        })
        .collect();
    let tail_values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let tail_ms = stats::median(&tail_values).ok_or("no request completed at the nominal rate")?;
    for (_, w) in &windows {
        oversleep.extend(&w.oversleep_ms);
    }

    // The sustained rate: open loops up a ladder of rates, from the
    // nominal rate towards capacity, until the tail passes the limit; the
    // rate where the tail meets the limit is interpolated between the
    // last rate within it (zero load, with zero latency, if even the
    // nominal rate is beyond it) and the first beyond it. Latency counts
    // from the due time, so a growing backlog shows in the tail.
    let (mut sent, mut failed) = (0, 0);
    let mut search = Vec::new();
    let nominal_tail = if nominal_failed > 0 { f64::INFINITY } else { tail_ms };
    let (mut below, mut above) = ((0.0, 0.0), None);
    if nominal_tail <= shape.limit_ms {
        below = (shape.nominal_rps, nominal_tail);
    } else {
        above = Some((shape.nominal_rps, nominal_tail));
    }
    let step_s = seconds as f64 * STEP_SHARE;
    let mut retries = LADDER_RETRIES;
    for rate in LADDER.iter().map(|f| f * capacity).filter(|&rate| rate > shape.nominal_rps) {
        if above.is_some() {
            break;
        }
        let n = ((rate * step_s).round() as usize).max(1);
        // A step beyond the limit is made once more and the lower tail
        // kept: a burst of load from outside the process spoils one try,
        // a rate beyond the knee spoils both.
        let mut step_tail = f64::INFINITY;
        loop {
            let step = open(shape, seed, &mut r, rate, n, CUT_LIMITS * shape.limit_ms);
            oversleep.extend(&step.oversleep_ms);
            // Requests the generator gave up on are load beyond capacity,
            // not failures of the system, but like a failed request they
            // put the try over any limit.
            sent += step.sent.len();
            failed += step.sent.iter().filter(|s| s.result.is_err()).count();
            let tail = match step.failed() {
                0 => stats::tail(&step.latencies()).map_or(f64::INFINITY, |t| t.value),
                _ => f64::INFINITY,
            };
            search.push(Value::Arr(vec![Value::Float(rate), Value::Float(tail)]));
            step_tail = step_tail.min(tail);
            if step_tail <= shape.limit_ms || retries == 0 {
                break;
            }
            retries -= 1;
        }
        if step_tail <= shape.limit_ms {
            below = (rate, step_tail);
        } else {
            above = Some((rate, step_tail));
        }
    }
    let sustained = match above {
        Some((rate, t)) if t.is_finite() => {
            below.0 + (shape.limit_ms - below.1) / (t - below.1) * (rate - below.0)
        }
        _ => below.0,
    };

    let mut attempted = nominal.len() + nominal_unsent + closed_done + sent;
    failed += nominal_failed + closed_failed;
    // Shard-cold results each have their own spec: compare a sample.
    if shape.sharded {
        let nominal_ok: Vec<&Reply> =
            nominal.iter().filter_map(|s| s.result.as_ref().ok()).collect();
        let stride = nominal_ok.len().div_ceil(LIBRARY_SAMPLE).max(1);
        for reply in nominal_ok.iter().step_by(stride) {
            let want = library::certified(&shape.spec(seed, reply.idx), None, reply.idx)?;
            if want != reply.out {
                failed += 1;
                out.fail_check(format!(
                    "request {}: {:?} differs from the library run {want:?}",
                    reply.idx, reply.out
                ));
            }
        }
    }
    let requests_sent = warmups + nominal.len() + closed_done + sent;
    drop(r.clients);
    let drained = r.tier.drain();
    check_counts(shape, &drained, warmups, requests_sent, &mut out);
    attempted = attempted.max(1);

    out.attempted = attempted as u64;
    out.failed = failed as u64;
    if failed > 0 {
        out.correct = false;
    }
    out.metric("setup_s", stats::median(&setup_s).expect("set-ups ran"));
    out.metric("latency_p50_ms", latency_p50);
    out.metric("latency_tail_ms", tail_ms);
    out.metric("sustained_rps", sustained);
    out.metric("capacity_rps", capacity);
    out.metric("cpu_ms_per_op", cpu_per_op);
    out.metric("ok_ratio", 1.0 - failed as f64 / attempted as f64);
    out.metric("peak_rss_mb", peak_rss);
    out.metric("run_p50_ms", run_p50);

    out.note("nominal_rps", Value::Float(shape.nominal_rps));
    out.note("latency_limit_ms", Value::Float(shape.limit_ms));
    // The rule behind each pair's tail (pairs differ only if one lost
    // requests).
    out.note("latency_tail_per_pair", tails[0].note());
    let max_lateness = windows.iter().map(|(_, w)| w.max_lateness_ms()).fold(0.0, f64::max);
    out.note("nominal_max_lateness_ms", Value::Float(max_lateness));
    out.note("generator_oversleep_ms", lateness_note(&oversleep));
    out.note("capacity_chunk_rps", Value::Arr(chunk_rates.into_iter().map(Value::Float).collect()));
    let window_p50 = windows.iter().filter_map(|(_, w)| stats::median(&ok_latencies(w)));
    out.note("window_p50_ms", Value::Arr(window_p50.map(Value::Float).collect()));
    out.note("pair_tail_ms", Value::Arr(tail_values.into_iter().map(Value::Float).collect()));
    out.note("sustained_ladder_rate_tail", Value::Arr(search));
    let floats = |xs: Vec<f64>| Value::Arr(xs.into_iter().map(Value::Float).collect());
    let indices =
        |xs: Vec<usize>| Value::Arr(xs.into_iter().map(|i| Value::UInt(i as u64)).collect());
    out.note("window_stolen_share", floats(window_steal));
    out.note("chunk_stolen_share", floats(chunk_steal));
    out.note("kept_windows", indices(kept_w));
    out.note("kept_chunks", indices(kept_c));
    out.note("setups_s", Value::Arr(setup_s.into_iter().map(Value::Float).collect()));
    Ok(out)
}

/// Indices, in time order, of the [`KEPT_ROUNDS`] phases with the least
/// stolen share (the earlier of two equal ones).
fn least_stolen(steal: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    order.truncate(KEPT_ROUNDS);
    order.sort_unstable();
    order
}

/// `{"p50": …, "max": …}` of the generator's own wake-up lateness.
fn lateness_note(oversleep: &[f64]) -> Value {
    Value::Obj(vec![
        ("p50".into(), Value::Float(stats::median(oversleep).unwrap_or(0.0))),
        ("max".into(), Value::Float(oversleep.iter().copied().fold(0.0, f64::max))),
    ])
}

/// The exact counts every run must show: serve-hot misses only on its
/// warm-up, shard-cold misses on every request sent, and the router
/// never fails over.
fn check_counts(shape: &Shape, d: &Drained, warmups: usize, sent: usize, out: &mut Outcome) {
    let want_misses = if shape.sharded { sent } else { warmups } as u64;
    if d.counts.misses != want_misses {
        out.fail_check(format!("plan-cache misses {} != {want_misses}", d.counts.misses));
    }
    if let Some((stats, _)) = &d.router {
        if stats.failovers != 0 {
            out.fail_check(format!("router failed over {} times", stats.failovers));
        }
    }
}

/// Value of an exposition series, with or without a label set; 0 when
/// absent.
fn exposition_value(text: &str, series: &str) -> f64 {
    text.lines()
        .filter_map(|l| {
            let rest = l.strip_prefix(series)?;
            let rest = match rest.strip_prefix('{') {
                Some(labelled) => &labelled[labelled.find('}')? + 1..],
                None => rest,
            };
            rest.strip_prefix(' ')?.trim().parse().ok()
        })
        .next()
        .unwrap_or(0.0)
}

/// The traced run: a nominal-rate phase without spans and the same
/// phase with a span around every client call (their difference is the
/// tracing overhead), then a replay of the traced specs through the
/// library that splits the server's `simulate` stage into its layers,
/// and the tier's counters from the drain.
pub fn traced(
    shape: &Shape,
    seed: u64,
    seconds: u64,
    trace_path: &std::path::Path,
) -> Result<Outcome, String> {
    let mut r = set_up(shape, seed)?;
    let warmups = r.next;
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let n = phase_count(shape.nominal_rps, seconds, TRACED_SHARE);
    let before = (r.tier.counts(), procfs::peak_rss_mb());
    let untraced = open(shape, seed, &mut r, shape.nominal_rps, n, CUT_LIMITS * shape.limit_ms);

    let origin = Instant::now();
    let (base, expected) = (r.next, r.expected);
    r.next += n;
    let mut states: Vec<(Client, SpanLog)> =
        std::mem::take(&mut r.clients).into_iter().map(|c| (c, SpanLog::new(origin))).collect();
    let traced = load::open_loop(
        &WallClock::start(),
        shape.nominal_rps,
        n,
        CUT_LIMITS * shape.limit_ms,
        &mut states,
        |(c, log), i| {
            let idx = base + i;
            log.time("client.simulate", None, idx, || {
                request(c, &shape.spec(seed, idx), idx, expected)
            })
        },
    );
    let after = (r.tier.counts(), procfs::peak_rss_mb());
    let mut log = SpanLog::new(origin);
    for (_, l) in states {
        log.absorb(l);
    }
    let replies: Vec<&Reply> = traced.ok().collect();
    if replies.is_empty() {
        return Err("no traced request completed".into());
    }

    // Library split of the traced specs, each replay under its request's id.
    let stride = replies.len().div_ceil(LIBRARY_SAMPLE).max(1);
    let mut host_steps = None;
    for reply in replies.iter().step_by(stride) {
        let got = library::layered(&shape.spec(seed, reply.idx), &mut log, reply.idx)?;
        host_steps.get_or_insert(got.host_steps);
        if got != reply.out {
            out.fail_check(format!(
                "request {}: {:?} differs from the library split {got:?}",
                reply.idx, reply.out
            ));
        }
    }

    let requests_sent = warmups + untraced.sent.len() + traced.sent.len();
    let drained = r.tier.drain();
    check_counts(shape, &drained, warmups, requests_sent, &mut out);
    let errors = untraced.failed() + traced.failed();
    out.attempted = (untraced.attempted() + traced.attempted()) as u64;
    out.failed = errors as u64;
    if errors > 0 {
        out.correct = false;
    }

    // Server stages, as means per request so that they add up.
    let per_request = |f: &dyn Fn(&Reply) -> f64| {
        replies.iter().map(|r| f(r)).sum::<f64>() / replies.len() as f64
    };
    let stage = |name: &str| {
        per_request(&|r| r.stages.iter().filter(|s| s.0 == name).fold(0.0, |a, s| a + s.1))
    };
    let named = ["accept", "queue_wait", "singleflight_wait", "plan_build", "simulate", "dispatch"];
    let all_stages = per_request(&|r| r.stages.iter().map(|s| s.1).sum());
    let other = all_stages - named.iter().map(|s| stage(s)).sum::<f64>();
    let e2e = per_request(&|r| r.e2e_ms);
    let wire = e2e - all_stages;
    let simulate = stage("simulate");
    let (replay, check, direct) =
        (log.mean_ms("core.replay"), log.mean_ms("pebble.check"), log.mean_ms("core.direct"));
    let overhead = simulate - replay - check - direct;

    let serialize: Vec<f64> = drained
        .traces
        .iter()
        .map(|t| parse_trace(t).map_err(|e| format!("server trace: {e}")))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flat_map(|doc| doc.requests)
        .filter(|rec| rec.sampled == SampleReason::Head && rec.kind == "simulate")
        .flat_map(|rec| rec.stages.into_iter().filter(|s| s.stage == "serialize").map(|s| s.ms))
        .collect();
    let c = drained.counts;
    let new_misses = after.0.misses - before.0.misses;
    let (router, exposition) = drained.router.unwrap_or((
        RouterStats {
            forwarded: 0,
            completed: 0,
            failovers: 0,
            overloads_absorbed: 0,
            ejected: 0,
            reinstated: 0,
            backends: 0,
            healthy: 0,
        },
        String::new(),
    ));
    let router_ms = |stage: &str| {
        let sum_us = exposition_value(&exposition, &format!("unet_shard_stage_{stage}_us_sum"));
        sum_us / 1e3 / router.forwarded.max(1) as f64
    };

    let latency_mean = |rep: &OpenReport<Reply>| stats::mean(&rep.latencies());
    out.metric("e2e_ms", e2e);
    out.metric("trace.overhead_ms", latency_mean(&traced) - latency_mean(&untraced));
    out.metric("wire_ms", wire);
    out.metric("serve.accept_ms", stage("accept"));
    out.metric("serve.queue_wait_ms", stage("queue_wait"));
    out.metric("serve.singleflight_wait_ms", stage("singleflight_wait"));
    out.metric("serve.plan_build_ms", stage("plan_build"));
    out.metric("serve.simulate_ms", simulate);
    out.metric("serve.dispatch_ms", stage("dispatch"));
    out.metric("serve.other_ms", other);
    out.metric("serve.serialize_ms", stats::mean(&serialize));
    out.metric("serve.simulate_overhead_ms", overhead);
    out.metric("serve.rejected", c.rejected as f64);
    out.metric("serve.errors", errors as f64);
    out.metric("router.forward_ms", router_ms("forward"));
    out.metric("router.retry_ms", router_ms("retry"));
    out.metric("router.failover_ms", router_ms("failover"));
    out.metric("router.failovers", router.failovers as f64);
    out.metric("router.overloads_absorbed", router.overloads_absorbed as f64);
    out.metric("plan_cache.hits", c.hits as f64);
    out.metric("plan_cache.misses", c.misses as f64);
    out.metric("plan_cache.hit_ratio", c.hits as f64 / (c.hits + c.misses).max(1) as f64);
    out.metric("plan_cache.singleflight_followers", c.followers as f64);
    let mb_per_entry = if new_misses == 0 { 0.0 } else { (after.1 - before.1) / new_misses as f64 };
    out.metric("plan_cache.mb_per_entry", mb_per_entry);
    out.metric("topology.parse_ms", log.mean_ms("topology.parse"));
    out.metric("core.guest_init_ms", log.mean_ms("core.guest_init"));
    out.metric("core.plan_build_ms", log.mean_ms("core.cold_run") - replay);
    out.metric("core.replay_ms", replay);
    out.metric("pebble.check_ms", check);
    out.metric("core.direct_ms", direct);
    out.metric("output.host_steps", host_steps.expect("at least one replay") as f64);

    out.note(
        "identity_stages_plus_wire_ms",
        Value::Arr(vec![Value::Float(all_stages), Value::Float(wire), Value::Float(e2e)]),
    );
    out.note(
        "identity_simulate_stage_ms",
        Value::Arr(
            [replay, check, direct, overhead, simulate].into_iter().map(Value::Float).collect(),
        ),
    );
    out.note("serialize_samples", Value::UInt(serialize.len() as u64));
    out.note("traced_requests", Value::UInt(replies.len() as u64));
    out.note("generator_oversleep_ms", lateness_note(&traced.oversleep_ms));
    log.write_jsonl(trace_path).map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    out.note("spans", Value::Str(trace_path.display().to_string()));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_values_are_found_by_exact_series_name() {
        let text = "# TYPE unet_shard_stage_forward_us_sum counter\n\
                    unet_shard_stage_forward_us_sum_other 7\n\
                    unet_shard_stage_forward_us_sum{shard=\"router\"} 1500\n\
                    unet_shard_stage_retry_us_sum 20\n";
        assert_eq!(exposition_value(text, "unet_shard_stage_forward_us_sum"), 1500.0);
        assert_eq!(exposition_value(text, "unet_shard_stage_retry_us_sum"), 20.0);
        assert_eq!(exposition_value(text, "unet_shard_stage_failover_us_sum"), 0.0);
    }

    #[test]
    fn the_least_stolen_phases_are_kept_in_time_order() {
        let steal = [0.09, 0.0, 0.02, 0.3, 0.0, 0.01, 0.05, 0.2, 0.01, 0.04];
        assert_eq!(least_stolen(&steal), vec![1, 2, 4, 5, 8, 9]);
    }

    #[test]
    fn shard_cold_specs_are_distinct_and_serve_hot_specs_identical() {
        let cold: Vec<u64> = (0..64).map(|i| SHARD_COLD.spec(3, i).seed).collect();
        let mut distinct = cold.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), cold.len());
        assert!((0..8).all(|i| SERVE_HOT.spec(3, i) == SERVE_HOT.spec(3, 0)));
        assert_ne!(SERVE_HOT.spec(3, 0), SERVE_HOT.spec(4, 0));
    }
}
