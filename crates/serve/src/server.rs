//! The long-running simulation server.
//!
//! Architecture, front to back:
//!
//! * **Front end** — the acceptor, bounded admission with typed
//!   `overloaded` backpressure, and the connection workers live in
//!   [`frontend`], which the shard router runs too. Simulation work is
//!   never run on a connection worker: each `simulate` (and each member
//!   of a `batch`) becomes a `Job` on the central job queue, and the
//!   connection worker blocks on the job's result slot.
//! * **Batching executors** — `workers` threads popping the job queue.
//!   A claim takes the head job **plus every queued job with the same
//!   [`workload_fingerprint`]** (up to `max_batch`, waiting up to
//!   `linger_ms` for stragglers) in one atomic sweep. If the fingerprint
//!   is cold, the claim leader runs first — building and publishing the
//!   route plan exactly once — and the `g − 1` batchmates it spared are
//!   counted as single-flight followers before fanning out across idle
//!   executors with the plan already warm. Independent misses that race a
//!   leader block on the [`SharedPlanCache`] build slot instead of
//!   recomputing, so a plan is built once per fingerprint no matter how
//!   requests arrive. Batch sizes land in the `serve.batch.size` log₂
//!   histogram.
//! * **Deadlines** — each job runs under a [`CancelToken::with_deadline`];
//!   the engine checks it at phase boundaries (and while waiting on a
//!   build slot), and the executor maps [`SimError::Cancelled`] to a
//!   `deadline-exceeded` error.
//! * **Graceful drain** — [`Server::drain`] stops the front end, which
//!   answers every request already read (and waits on a partial line only
//!   until its deadline), then closes the job queue and joins the
//!   executors last, so no blocked result slot is ever abandoned.
//! * **Request tracing** — every request gets a trace id at first ingress
//!   (propagated from a `/3` client's trace context, else minted here) and
//!   a stage-span breakdown: `accept` (parse), `queue_wait`,
//!   `batch_linger`, `singleflight_wait`, `plan_build`, `simulate`,
//!   `serialize`. `/3` responses carry `trace_id` and `stages` inline,
//!   and the front end tail-samples them into the drain trace.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::frontend::{self, Front, Handler, Names, ReqInfo};
use crate::protocol::{
    batch_item_value, error_line, gen_trace_id, parse_request, result_line, BatchReq, ParseError,
    ProtoVersion, Request, SimulateReq,
};
use unet_core::cancel::CancelToken;
use unet_core::routers::Router as _;
use unet_core::spec::parse_graph;
use unet_core::{
    workload_fingerprint, CachePolicy, Embedding, GuestComputation, SharedPlanCache, SimError,
    Simulation,
};
use unet_obs::json::Value;
use unet_obs::tailsample::DEFAULT_HEAD_PERMILLE;
use unet_obs::{InMemoryRecorder, MetricsRegistry, Recorder, TraceAnalyzer};
use unet_topology::par::default_threads;
use unet_topology::Graph;

/// Server configuration (all fields have serviceable defaults).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (the default).
    pub addr: String,
    /// Threads in each pool: batching executors, and (unless
    /// [`conn_workers`](ServeConfig::conn_workers) overrides it)
    /// connection workers too (default: [`default_threads`]).
    pub workers: usize,
    /// Admission queue bound; 0 rejects every connection (default 64).
    pub queue_cap: usize,
    /// Deadline applied to `simulate` requests that do not carry their own
    /// `deadline_ms` (default 10 000 ms).
    pub default_deadline_ms: u64,
    /// Largest same-fingerprint group one executor claims at once
    /// (default 32; 1 disables grouping).
    pub max_batch: usize,
    /// How long a claim lingers for same-fingerprint stragglers before
    /// running with what it has (default 0 — today's latency profile).
    pub linger_ms: u64,
    /// Head-sampling rate for per-request stage records, in permille
    /// (default [`DEFAULT_HEAD_PERMILLE`]). Errors and the slowest tail
    /// are always kept regardless.
    pub head_sample_permille: u32,
    /// Connection-worker pool size override; `None` (the default) sizes
    /// the pool to `workers`. Capacity experiments set this above
    /// `workers` so every client connection is served concurrently while
    /// the executor pool stays the bottleneck.
    pub conn_workers: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: default_threads(),
            queue_cap: 64,
            default_deadline_ms: 10_000,
            max_batch: 32,
            linger_ms: 0,
            head_sample_permille: DEFAULT_HEAD_PERMILLE,
            conn_workers: None,
        }
    }
}

/// Counter snapshot of a running (or drained) server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections admitted to the queue.
    pub admitted: u64,
    /// Connections rejected with `overloaded`.
    pub rejected: u64,
    /// Requests answered (any response kind except `overloaded`).
    pub completed: u64,
    /// Shared route-plan cache hits (process totals).
    pub shared_hits: u64,
    /// Shared route-plan cache misses.
    pub shared_misses: u64,
    /// Plan builds spared by single-flight coalescing (batchmates that
    /// reused a claim leader's plan plus build-slot waiters).
    pub singleflight_followers: u64,
}

impl ServerStats {
    /// Shared-cache hit ratio (`None` before the first simulate request).
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.shared_hits + self.shared_misses;
        if total == 0 {
            None
        } else {
            Some(self.shared_hits as f64 / total as f64)
        }
    }
}

/// What a graceful drain hands back.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Final counter snapshot.
    pub stats: ServerStats,
    /// Final Prometheus text exposition of the server registry.
    pub exposition: String,
    /// JSONL trace of the server recorder (the `unet trace` format — feeds
    /// the streaming analyzer).
    pub trace: String,
}

/// A simulate unit of work: parsed inputs, grouping fingerprint, and the
/// slot its connection worker is blocked on.
struct Job {
    comp: GuestComputation,
    host: Graph,
    guest_spec: String,
    host_spec: String,
    steps: u32,
    seed: u64,
    fingerprint: u64,
    deadline_ms: u64,
    token: CancelToken,
    slot: Arc<ResultSlot>,
    /// Already claimed into a group and fanned out — never re-grouped.
    grouped: bool,
    /// When the job entered the queue — the start of its `queue_wait` span.
    enqueued_at: Instant,
}

/// A job's outcome: result payload fields, or a typed `(code, message)`.
type SlotOutcome = Result<Vec<(String, Value)>, (String, String)>;

/// What an executor hands back through the slot: the wire payload outcome
/// plus the job's measured stage spans (`queue_wait`, `batch_linger`,
/// `singleflight_wait`, `plan_build`, `simulate`) in milliseconds.
struct JobOutcome {
    payload: SlotOutcome,
    stages: Vec<(&'static str, f64)>,
}

/// One-shot rendezvous between a connection worker and an executor.
struct ResultSlot {
    state: Mutex<Option<JobOutcome>>,
    ready: Condvar,
}

impl ResultSlot {
    fn new() -> Arc<ResultSlot> {
        Arc::new(ResultSlot { state: Mutex::new(None), ready: Condvar::new() })
    }

    fn put(&self, out: JobOutcome) {
        let mut state = self.state.lock().expect("slot poisoned");
        *state = Some(out);
        self.ready.notify_all();
    }

    fn wait(&self) -> JobOutcome {
        let mut state = self.state.lock().expect("slot poisoned");
        loop {
            if let Some(out) = state.take() {
                return out;
            }
            state = self.ready.wait(state).expect("slot poisoned");
        }
    }
}

struct JobQueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The central job queue. Grouping is atomic: [`pop_group`] removes the
/// head and every queued same-fingerprint job under one lock, so a batch
/// pushed with [`push_all`] can never be half-claimed by a racing
/// executor.
///
/// [`pop_group`]: JobQueue::pop_group
/// [`push_all`]: JobQueue::push_all
struct JobQueue {
    state: Mutex<JobQueueState>,
    ready: Condvar,
}

impl JobQueue {
    fn new() -> JobQueue {
        JobQueue {
            state: Mutex::new(JobQueueState { jobs: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
        }
    }

    /// Enqueue a set of jobs in one critical section (a whole batch lands
    /// before any executor can observe part of it).
    fn push_all(&self, jobs: Vec<Job>) {
        let mut state = self.state.lock().expect("job queue poisoned");
        state.jobs.extend(jobs);
        drop(state);
        self.ready.notify_all();
    }

    /// Requeue fan-out members at the front so idle executors pick them up
    /// before unrelated work.
    fn push_front_all(&self, jobs: Vec<Job>) {
        let mut state = self.state.lock().expect("job queue poisoned");
        for job in jobs.into_iter().rev() {
            state.jobs.push_front(job);
        }
        drop(state);
        self.ready.notify_all();
    }

    /// Pop the head job plus every queued ungrouped job with the same
    /// fingerprint, up to `max_batch`. Blocks while empty; `None` once
    /// closed and empty. A `grouped` head is returned alone — it is a
    /// fan-out member already accounted to its claim.
    fn pop_group(&self, max_batch: usize) -> Option<Vec<Job>> {
        let mut state = self.state.lock().expect("job queue poisoned");
        loop {
            if let Some(head) = state.jobs.pop_front() {
                if head.grouped {
                    return Some(vec![head]);
                }
                let mut group = vec![head];
                let fp = group[0].fingerprint;
                let mut rest = VecDeque::with_capacity(state.jobs.len());
                while let Some(job) = state.jobs.pop_front() {
                    if group.len() < max_batch.max(1) && !job.grouped && job.fingerprint == fp {
                        group.push(job);
                    } else {
                        rest.push_back(job);
                    }
                }
                state.jobs = rest;
                return Some(group);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("job queue poisoned");
        }
    }

    /// Claim up to `want` more same-fingerprint jobs, waiting at most
    /// `linger` for stragglers (best-effort: whatever arrived by then).
    fn claim_lingering(&self, fp: u64, want: usize, linger: Duration) -> Vec<Job> {
        let deadline = Instant::now() + linger;
        let mut claimed = Vec::new();
        let mut state = self.state.lock().expect("job queue poisoned");
        loop {
            let mut rest = VecDeque::with_capacity(state.jobs.len());
            while let Some(job) = state.jobs.pop_front() {
                if claimed.len() < want && !job.grouped && job.fingerprint == fp {
                    claimed.push(job);
                } else {
                    rest.push_back(job);
                }
            }
            state.jobs = rest;
            let now = Instant::now();
            if claimed.len() >= want || state.closed || now >= deadline {
                return claimed;
            }
            let (next, _) =
                self.ready.wait_timeout(state, deadline - now).expect("job queue poisoned");
            state = next;
        }
    }

    fn close(&self) {
        let mut state = self.state.lock().expect("job queue poisoned");
        state.closed = true;
        drop(state);
        self.ready.notify_all();
    }
}

struct Shared {
    front: Front,
    cache: SharedPlanCache,
    jobs: JobQueue,
    default_deadline_ms: u64,
    max_batch: usize,
    linger_ms: u64,
}

impl Handler for Shared {
    const NAMES: Names = Names {
        role: "serve",
        admitted: "serve.conns.admitted",
        rejected: "serve.conns.rejected",
        queue_depth: "serve.queue.depth",
        completed: "serve.requests.completed",
        too_long: "serve.lines.too_long",
        abandoned: "serve.lines.abandoned",
        idle_closed: "serve.conns.idle_closed",
        requests_sampled: "serve.trace.requests_sampled",
        requests_dropped: "serve.trace.requests_dropped",
    };

    fn front(&self) -> &Front {
        &self.front
    }

    fn handle(&self, line: &str) -> (String, ReqInfo) {
        handle_request(self, line)
    }
}

/// A running server; construct with [`Server::start`], stop with
/// [`Server::drain`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    executors: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the acceptor, connection workers, and batching
    /// executors, and return immediately.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            front: Front::new(cfg.queue_cap, workers, cfg.head_sample_permille),
            cache: SharedPlanCache::new(),
            jobs: JobQueue::new(),
            default_deadline_ms: cfg.default_deadline_ms,
            max_batch: cfg.max_batch.max(1),
            linger_ms: cfg.linger_ms,
        });
        {
            let mut rec = shared.front.rec();
            rec.gauge("serve.workers", workers as f64);
            rec.gauge("serve.queue.cap", cfg.queue_cap as f64);
            rec.gauge("serve.max_batch", shared.max_batch as f64);
        }
        let addr = frontend::start(&cfg.addr, &shared, cfg.conn_workers.unwrap_or(workers))?;
        let executors = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || executor_loop(&shared))
            })
            .collect();
        Ok(Server { addr, shared, executors })
    }

    /// The bound address (resolve port 0 through this).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counter snapshot.
    pub fn stats(&self) -> ServerStats {
        stats_of(&self.shared.front.rec(), &self.shared.cache)
    }

    /// Graceful drain: stop accepting, answer everything admitted or in
    /// flight, join all threads, and return the final metrics.
    pub fn drain(mut self) -> DrainReport {
        self.stop_threads();
        let mut rec = self.shared.front.rec();
        let trace = self.shared.front.drain_trace(&Shared::NAMES, &mut rec);
        DrainReport {
            stats: stats_of(&rec, &self.shared.cache),
            exposition: exposition_of(&rec, &self.shared),
            trace,
        }
    }

    /// Join order matters: the front end first (its connection workers
    /// feed jobs and block on slots), executors last (they fill the
    /// slots).
    fn stop_threads(&mut self) {
        self.shared.front.stop();
        self.shared.jobs.close();
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Not drained: still stop the threads so tests that merely start a
        // server cannot leak a spinning acceptor.
        self.stop_threads();
    }
}

fn stats_of(rec: &InMemoryRecorder, cache: &SharedPlanCache) -> ServerStats {
    ServerStats {
        admitted: rec.counter_value("serve.conns.admitted"),
        rejected: rec.counter_value("serve.conns.rejected"),
        completed: rec.counter_value("serve.requests.completed"),
        shared_hits: cache.hits(),
        shared_misses: cache.misses(),
        singleflight_followers: cache.singleflight_followers(),
    }
}

fn exposition_of(rec: &InMemoryRecorder, shared: &Shared) -> String {
    let mut reg = MetricsRegistry::from_recorder(rec);
    // The cache atomics are authoritative process totals (per-request
    // recorder merges could lag mid-flight).
    let cache = &shared.cache;
    reg.set_counter("serve.cache.shared.hits", cache.hits());
    reg.set_counter("serve.cache.shared.misses", cache.misses());
    reg.set_counter("serve.planbuild_singleflight_followers", cache.singleflight_followers());
    if let Some(ratio) = cache.hit_ratio() {
        reg.set_gauge("serve.cache.hit_ratio", ratio);
    }
    shared.front.expose_slowest(&mut reg);
    reg.expose()
}

/// The wire form of a stage-span list: `{"queue_wait":1.5,...}`.
fn stages_value(stages: &[(&'static str, f64)]) -> Value {
    Value::Obj(stages.iter().map(|&(s, ms)| (s.to_string(), Value::Float(ms))).collect())
}

fn handle_request(shared: &Shared, line: &str) -> (String, ReqInfo) {
    let parse_started = Instant::now();
    let parsed = parse_request(line);
    let accept_ms = parse_started.elapsed().as_secs_f64() * 1e3;
    let (ver, wire_trace, req) = match parsed {
        Ok(parsed) => parsed,
        Err(e) => {
            let info = ReqInfo {
                trace_id: gen_trace_id(),
                kind: "unparsed",
                ok: false,
                stages: vec![("accept", accept_ms)],
            };
            let line = match e {
                ParseError::UnsupportedProto(msg) => {
                    error_line(ProtoVersion::V3, "unsupported-protocol", &msg, None)
                }
                ParseError::Malformed(msg) => {
                    error_line(ProtoVersion::V3, "bad-request", &msg, None)
                }
            };
            return (line, info);
        }
    };
    // First ingress: a /3 client (or the shard router) propagates its
    // trace context; older clients get a server-assigned trace id.
    let trace_id = wire_trace.unwrap_or_else(gen_trace_id);
    let kind = req.kind();
    let mut stages = vec![("accept", accept_ms)];
    let (response, ok) = match req {
        Request::Simulate(req) => {
            // `accept` covers admission too: spec parsing, topology and
            // computation construction, and fingerprinting all happen on
            // the connection thread before the job reaches the queue.
            let admit_started = Instant::now();
            let built = build_job(shared, &req, req.deadline_ms);
            // Close the span before the job becomes visible to workers, so
            // `accept` never overlaps the worker-side spans.
            stages[0].1 += admit_started.elapsed().as_secs_f64() * 1e3;
            let outcome = match built {
                Ok((job, slot)) => {
                    shared.jobs.push_all(vec![job]);
                    let wait_started = Instant::now();
                    let mut out = slot.wait();
                    let wait_ms = wait_started.elapsed().as_secs_f64() * 1e3;
                    // What the blocking wait cost beyond the worker's own
                    // spans: the scheduler handoff into the worker and the
                    // result handoff back. Without this span, condvar
                    // wakeup latency is unaccounted end-to-end time.
                    let worker_ms: f64 = out.stages.iter().map(|(_, ms)| ms).sum();
                    let dispatch_ms = wait_ms - worker_ms;
                    if dispatch_ms > 0.0 {
                        out.stages.push(("dispatch", dispatch_ms));
                    }
                    out
                }
                Err(e) => JobOutcome { payload: Err(e), stages: Vec::new() },
            };
            stages.extend(outcome.stages);
            match outcome.payload {
                Ok(mut payload) => {
                    if ver == ProtoVersion::V3 {
                        payload.push(("trace_id".to_string(), Value::Str(trace_id.clone())));
                        payload.push(("stages".to_string(), stages_value(&stages)));
                    }
                    (result_line(ver, "simulate", req.id, payload), true)
                }
                Err((code, message)) => (error_line(ver, &code, &message, req.id), false),
            }
        }
        Request::Batch(batch) => {
            let (line, ok, batch_stages) = handle_batch(shared, ver, batch, &trace_id);
            stages.extend(batch_stages);
            (line, ok)
        }
        Request::Analyze { trace, id } => handle_analyze(ver, &trace, id),
        Request::Metrics { id } => {
            let exposition = Value::Str(exposition_of(&shared.front.rec(), shared));
            (result_line(ver, "metrics", id, vec![("exposition".to_string(), exposition)]), true)
        }
    };
    (response, ReqInfo { trace_id, kind, ok, stages })
}

/// Parse one spec into a runnable [`Job`]. Parse failures surface as the
/// item's own typed error, never touching its batchmates.
fn build_job(
    shared: &Shared,
    req: &SimulateReq,
    deadline_override: Option<u64>,
) -> Result<(Job, Arc<ResultSlot>), (String, String)> {
    let guest =
        parse_graph(&req.guest).map_err(|e| ("bad-spec".to_string(), format!("guest: {e}")))?;
    let host =
        parse_graph(&req.host).map_err(|e| ("bad-spec".to_string(), format!("host: {e}")))?;
    let comp = GuestComputation::random(guest, req.seed);
    let embedding = Embedding::block(comp.n(), host.n());
    let router = unet_core::routers::presets::bfs();
    let fingerprint = workload_fingerprint(&comp.graph, &host, &embedding, router.name(), req.seed);
    let deadline_ms = deadline_override.unwrap_or(shared.default_deadline_ms);
    let slot = ResultSlot::new();
    let job = Job {
        comp,
        host,
        guest_spec: req.guest.clone(),
        host_spec: req.host.clone(),
        steps: req.steps,
        seed: req.seed,
        fingerprint,
        deadline_ms,
        token: CancelToken::with_deadline(Duration::from_millis(deadline_ms)),
        slot: Arc::clone(&slot),
        grouped: false,
        enqueued_at: Instant::now(),
    };
    Ok((job, slot))
}

/// Serve one `batch` request: enqueue every parseable item in one atomic
/// push (so an executor claims them as a group), then collect the
/// positionally-aligned outcomes. Returns the response line, whether every
/// item succeeded, and the batch's stage spans (per-stage *maximum* across
/// members — the members run in parallel, so the max approximates the
/// critical path without over-counting the request's wall clock).
fn handle_batch(
    shared: &Shared,
    ver: ProtoVersion,
    batch: BatchReq,
    trace_id: &str,
) -> (String, bool, Vec<(&'static str, f64)>) {
    enum Pending {
        Slot(Arc<ResultSlot>),
        Failed(String, String),
    }
    let mut pending = Vec::with_capacity(batch.items.len());
    let mut jobs = Vec::new();
    for item in &batch.items {
        match item {
            Err(msg) => pending.push(Pending::Failed("bad-request".to_string(), msg.clone())),
            Ok(spec) => {
                let deadline = spec.deadline_ms.or(batch.deadline_ms);
                match build_job(shared, spec, deadline) {
                    Ok((job, slot)) => {
                        jobs.push(job);
                        pending.push(Pending::Slot(slot));
                    }
                    Err((code, msg)) => pending.push(Pending::Failed(code, msg)),
                }
            }
        }
    }
    shared.jobs.push_all(jobs);
    let mut all_ok = true;
    let mut stage_max: Vec<(&'static str, f64)> = Vec::new();
    let items: Vec<Value> = pending
        .into_iter()
        .map(|p| {
            let outcome = match p {
                Pending::Slot(slot) => {
                    let out = slot.wait();
                    for (stage, ms) in out.stages {
                        match stage_max.iter_mut().find(|(s, _)| *s == stage) {
                            Some((_, acc)) => *acc = acc.max(ms),
                            None => stage_max.push((stage, ms)),
                        }
                    }
                    match out.payload {
                        Ok(mut payload) => {
                            if ver == ProtoVersion::V3 {
                                payload.push((
                                    "trace_id".to_string(),
                                    Value::Str(trace_id.to_string()),
                                ));
                            }
                            Ok(payload)
                        }
                        Err(e) => Err(e),
                    }
                }
                Pending::Failed(code, msg) => Err((code, msg)),
            };
            all_ok &= outcome.is_ok();
            batch_item_value(outcome)
        })
        .collect();
    let line = result_line(ver, "batch", batch.id, vec![("items".to_string(), Value::Arr(items))]);
    (line, all_ok, stage_max)
}

/// The batching executor: claim a same-fingerprint group, run its leader
/// first on a cold fingerprint (single plan build, followers spared), and
/// fan the rest out across the pool with the plan warm.
fn executor_loop(shared: &Shared) {
    while let Some(mut group) = shared.jobs.pop_group(shared.max_batch) {
        if group[0].grouped {
            // A fan-out member: its claim already ran the leader and
            // recorded the batch, so just execute.
            let job = group.pop().expect("grouped claim is a singleton");
            execute_job(shared, job, 0.0);
            continue;
        }
        let mut linger_ms = 0.0;
        if shared.linger_ms > 0 && group.len() < shared.max_batch {
            let fp = group[0].fingerprint;
            let linger_started = Instant::now();
            group.extend(shared.jobs.claim_lingering(
                fp,
                shared.max_batch - group.len(),
                Duration::from_millis(shared.linger_ms),
            ));
            linger_ms = linger_started.elapsed().as_secs_f64() * 1e3;
        }
        let g = group.len();
        shared.front.rec().histogram("serve.batch.size", g as u64);
        let cold = !shared.cache.contains(group[0].fingerprint);
        let mut rest: Vec<Job> = group.split_off(1);
        for job in &mut rest {
            job.grouped = true;
        }
        let leader = group.pop().expect("claims are non-empty");
        if cold {
            // Every batchmate was spared a redundant plan build by
            // coalescing on the leader's single flight.
            shared.cache.note_singleflight_followers((g - 1) as u64);
            // Leader first: publish the plan, then fan out warm.
            execute_job(shared, leader, linger_ms);
            shared.jobs.push_front_all(rest);
        } else {
            // Plan already cached: fan out immediately, run the leader here.
            shared.jobs.push_front_all(rest);
            execute_job(shared, leader, linger_ms);
        }
    }
}

/// Run one job and fill its slot, assembling the job-side stage spans:
/// `queue_wait` (enqueue to execution), `batch_linger` (the claim leader's
/// straggler wait, when any), then the engine-side spans measured by
/// [`simulate_outcome`].
fn execute_job(shared: &Shared, job: Job, linger_ms: f64) {
    let queue_wait_ms = job.enqueued_at.elapsed().as_secs_f64() * 1e3;
    let (payload, engine_stages) = simulate_outcome(shared, &job);
    let mut stages = vec![("queue_wait", queue_wait_ms)];
    if linger_ms > 0.0 {
        stages.push(("batch_linger", linger_ms));
    }
    stages.extend(engine_stages);
    job.slot.put(JobOutcome { payload, stages });
}

fn simulate_outcome(shared: &Shared, job: &Job) -> (SlotOutcome, Vec<(&'static str, f64)>) {
    let router = unet_core::routers::presets::bfs();
    let started = Instant::now();
    let mut local = InMemoryRecorder::new();
    let run = Simulation::builder()
        .guest(&job.comp)
        .host(&job.host)
        .embedding(Embedding::block(job.comp.n(), job.host.n()))
        .router(&router)
        .steps(job.steps)
        .seed(job.seed)
        .threads(1)
        .cache_policy(CachePolicy::Enabled)
        .shared_cache(&shared.cache)
        .cancel_token(job.token.clone())
        .recorder(&mut local)
        .run();
    // Verification replays the protocol against the guest/host contract —
    // part of serving the request, so it happens inside the timed region
    // the `simulate` span is carved from.
    let verify_err =
        run.as_ref().ok().and_then(|r| r.verify(&job.comp, &job.host, job.steps).err());
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let shared_hit = local.counter_value("sim.cache.shared.hits") > 0;
    // Disjoint engine spans: the plan acquire (single-flight wait) and the
    // plan build are carved out of the run's wall clock so a stage sum
    // never double-counts.
    let acquire_ms =
        local.histogram_data("sim.plan.acquire_us").map_or(0.0, |h| h.sum as f64 / 1e3);
    let build_ms = local.histogram_data("sim.plan.build_us").map_or(0.0, |h| h.sum as f64 / 1e3);
    let mut stages: Vec<(&'static str, f64)> = Vec::new();
    if acquire_ms > 0.0 {
        stages.push(("singleflight_wait", acquire_ms));
    }
    if build_ms > 0.0 {
        stages.push(("plan_build", build_ms));
    }
    stages.push(("simulate", (wall_ms - acquire_ms - build_ms).max(0.0)));
    // Fold the request's engine counters into the server-level registry
    // (recorder counters accumulate, so sim.* become process totals).
    {
        let mut rec = shared.front.rec();
        for (name, v) in local.counters() {
            rec.counter(name, v);
        }
    }
    let run = match run {
        Ok(run) => run,
        Err(SimError::Cancelled) => {
            return (
                Err((
                    "deadline-exceeded".to_string(),
                    format!("deadline of {} ms passed at a phase boundary", job.deadline_ms),
                )),
                stages,
            )
        }
        Err(e) => return (Err(("sim-error".to_string(), e.to_string())), stages),
    };
    if let Some(e) = verify_err {
        return (Err(("verify-failed".to_string(), e.to_string())), stages);
    }
    let payload = vec![
        ("guest".to_string(), Value::Str(job.guest_spec.clone())),
        ("host".to_string(), Value::Str(job.host_spec.clone())),
        ("steps".to_string(), Value::UInt(job.steps as u64)),
        ("host_steps".to_string(), Value::UInt(run.protocol.host_steps() as u64)),
        ("comm_steps".to_string(), Value::UInt(run.comm_steps as u64)),
        ("compute_steps".to_string(), Value::UInt(run.compute_steps as u64)),
        ("slowdown".to_string(), Value::Float(run.slowdown())),
        ("inefficiency".to_string(), Value::Float(run.inefficiency())),
        ("shared_cache_hit".to_string(), Value::Bool(shared_hit)),
        ("verified".to_string(), Value::Bool(true)),
        ("wall_ms".to_string(), Value::Float(wall_ms)),
    ];
    (Ok(payload), stages)
}

fn handle_analyze(ver: ProtoVersion, trace: &[String], id: Option<u64>) -> (String, bool) {
    let mut analyzer = TraceAnalyzer::new();
    for (i, line) in trace.iter().enumerate() {
        if let Err(e) = analyzer.feed_line(line, i + 1) {
            return (error_line(ver, "bad-trace", &e, id), false);
        }
    }
    let analysis = match analyzer.finish() {
        Ok(a) => a,
        Err(e) => return (error_line(ver, "bad-trace", &e, id), false),
    };
    let exposition = MetricsRegistry::from_analysis(&analysis).expose();
    let line = result_line(
        ver,
        "analyze",
        id,
        vec![
            ("lines".to_string(), Value::UInt(trace.len() as u64)),
            ("exposition".to_string(), Value::Str(exposition)),
        ],
    );
    (line, true)
}
