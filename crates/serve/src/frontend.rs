//! The connection front end shared by the server (`unet serve`) and the
//! shard router (`unet shard`).
//!
//! An acceptor thread polls a non-blocking [`TcpListener`] and admits each
//! connection into a [`BoundedQueue`]; a full queue gets a typed
//! `overloaded` line with a `retry_after_ms` hint. Connection workers, one
//! thread per connection at a time, read request lines, hand each to the
//! role's handler, write the answer, and keep the books both roles share:
//! the completed counter, the `serve.request.latency_ms` histogram with
//! the slowest request as its exemplar, and the tail sampler whose records
//! the drain trace carries.
//!
//! Three rules keep a hostile or slow client from holding a worker, each
//! counted under the role's prefix: a line over [`MAX_LINE_BYTES`] gets a
//! typed `bad-request` and the connection closes (`lines.too_long`); a
//! line incomplete [`LINE_DEADLINE`] after its first byte is dropped with
//! its connection (`lines.abandoned`); and at an [`IDLE_POLL`] tick an
//! idle connection yields its worker while others queue
//! (`conns.idle_closed`). There is no idle timeout. Drain answers every
//! request already read and waits on no partial line past its deadline,
//! so it always terminates.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::protocol::{error_line, overloaded_line, ProtoVersion};
use crate::queue::BoundedQueue;
use unet_obs::trace::{export_full, RequestRecord, RunMeta, SampleReason, StageSpan};
use unet_obs::{InMemoryRecorder, MetricsRegistry, Recorder, TailSampler};

/// The longest request line accepted, newline excluded. The largest line
/// any client sends today is an `analyze` of a quick trace, about 13 KB;
/// 1 MiB leaves that 80-fold headroom while bounding the input buffered
/// at once to one MiB per connection worker.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// How long a request line may take to arrive, counted from its first
/// byte. Clients write a line in one go, so it arrives within
/// milliseconds; even a full [`MAX_LINE_BYTES`] line at 1 MB/s takes
/// about one second. Only a stalled client reaches this, and drain, which
/// waits on nothing but partial lines, finishes within it.
pub const LINE_DEADLINE: Duration = Duration::from_secs(2);

/// The read timeout of a connection worker. At each tick it re-checks
/// the shutdown flag, the line deadline, and whether an idle connection
/// should yield to a queued one, so this bounds how long any of the
/// three goes unnoticed.
pub const IDLE_POLL: Duration = Duration::from_millis(50);

/// The `retry_after_ms` fallback before any request latency is measured.
const RETRY_AFTER_FLOOR_MS: u64 = 100;

/// The end-to-end latency histogram. Server and router record under the
/// same name, so [`retry_after_hint`] reads one series in both roles.
const LATENCY_MS: &str = "serve.request.latency_ms";

/// The recorder names of one role: `serve.*` on the server, `shard.*` on
/// the router.
pub(crate) struct Names {
    /// The drain trace's command: `serve` or `shard`.
    pub role: &'static str,
    pub admitted: &'static str,
    pub rejected: &'static str,
    pub queue_depth: &'static str,
    pub completed: &'static str,
    pub too_long: &'static str,
    pub abandoned: &'static str,
    pub idle_closed: &'static str,
    pub requests_sampled: &'static str,
    pub requests_dropped: &'static str,
}

/// What a handler reports about one request, for its trace record.
pub(crate) struct ReqInfo {
    pub trace_id: String,
    pub kind: &'static str,
    pub ok: bool,
    pub stages: Vec<(&'static str, f64)>,
}

/// A role behind the front end: the server or the shard router.
pub(crate) trait Handler: Send + Sync + 'static {
    /// The role's recorder names.
    const NAMES: Names;

    /// The front-end state inside the role's shared state.
    fn front(&self) -> &Front;

    /// Answer one trimmed, non-empty request line.
    fn handle(&self, line: &str) -> (String, ReqInfo);

    /// Record role-specific series of one answered request (its stage
    /// spans, `serialize` included) under the recorder lock.
    fn record(&self, _rec: &mut InMemoryRecorder, _stages: &[(&'static str, f64)]) {}
}

/// Front-end state: the role's recorder, the admission queue, and the
/// per-request books.
pub(crate) struct Front {
    recorder: Mutex<InMemoryRecorder>,
    shutdown: AtomicBool,
    queue: BoundedQueue<TcpStream>,
    /// Parallel servers of the admission queue, for the retry hint.
    servers: usize,
    /// Tail-sampled per-request stage records, drained into the trace.
    sampler: Mutex<TailSampler>,
    /// The slowest request so far: its trace id rides the latency
    /// histogram's `max` gauge as an exemplar.
    slowest: Mutex<Option<(String, f64)>>,
    /// The acceptor and connection workers, joined by [`Front::stop`].
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Front {
    pub(crate) fn new(queue_cap: usize, servers: usize, head_sample_permille: u32) -> Front {
        Front {
            recorder: Mutex::new(InMemoryRecorder::new()),
            shutdown: AtomicBool::new(false),
            queue: BoundedQueue::new(queue_cap),
            servers,
            sampler: Mutex::new(TailSampler::new(head_sample_permille)),
            slowest: Mutex::new(None),
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Stop accepting and finish every admitted connection: the acceptor
    /// closes the queue on its way out, and the workers exit once it is
    /// empty.
    pub(crate) fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for h in std::mem::take(&mut *self.threads.lock().expect("threads poisoned")) {
            let _ = h.join();
        }
    }

    /// The role's recorder, locked.
    pub(crate) fn rec(&self) -> MutexGuard<'_, InMemoryRecorder> {
        self.recorder.lock().expect("recorder poisoned")
    }

    /// Has a drain begun?
    pub(crate) fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Attach the slowest request's trace id to the latency histogram's
    /// `max` in `reg`.
    pub(crate) fn expose_slowest(&self, reg: &mut MetricsRegistry) {
        if let Some((trace_id, ms)) = self.slowest.lock().expect("exemplar poisoned").clone() {
            reg.set_exemplar("serve.request.latency_ms.max", &trace_id, ms);
        }
    }

    /// Count the tail-sampled request records into `rec` and return the
    /// drain trace that carries them.
    pub(crate) fn drain_trace(&self, names: &Names, rec: &mut InMemoryRecorder) -> String {
        let (requests, dropped) = {
            let mut sampler = self.sampler.lock().expect("sampler poisoned");
            let dropped = sampler.dropped();
            (sampler.drain(), dropped)
        };
        rec.counter(names.requests_sampled, requests.len() as u64);
        rec.counter(names.requests_dropped, dropped);
        // Drained expositions always show the cut counters, live ones once
        // they count. Adding them at start moved the recorder's first
        // allocation off the acceptor thread, which raised serve-hot peak
        // RSS from 60 to 76 MB through glibc's per-thread arenas.
        for name in [names.too_long, names.abandoned, names.idle_closed] {
            rec.counter(name, 0);
        }
        let meta = RunMeta {
            command: names.role.to_string(),
            guest: "-".to_string(),
            host: "-".to_string(),
            ..RunMeta::default()
        };
        export_full(rec, &meta, &[], &requests, None)
    }
}

/// Bind `addr`, then spawn the acceptor and `conn_workers` connection
/// workers serving `handler`. Returns the bound address.
pub(crate) fn start<H: Handler>(
    addr: &str,
    handler: &Arc<H>,
    conn_workers: usize,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let mut threads = handler.front().threads.lock().expect("threads poisoned");
    let acceptor = Arc::clone(handler);
    threads.push(std::thread::spawn(move || accept_loop(&listener, acceptor.front(), &H::NAMES)));
    threads.extend((0..conn_workers.max(1)).map(|_| {
        let handler = Arc::clone(handler);
        std::thread::spawn(move || {
            while let Some(stream) = handler.front().queue.pop() {
                serve_connection(&*handler, stream);
            }
        })
    }));
    Ok(bound)
}

fn accept_loop(listener: &TcpListener, front: &Front, names: &Names) {
    while !front.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                // The protocol is a ping-pong of small lines; without
                // nodelay, Nagle + delayed ACK stall every request after
                // the first on a persistent connection by tens of ms.
                let _ = stream.set_nodelay(true);
                admit(front, names, stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
    front.queue.close();
}

/// Hint for a rejected client: the full queue must drain through
/// `servers` parallel servers, each request costing about the measured
/// mean latency. Before the first latency lands, or if the mean is not
/// finite, the hint is the bare floor: the floor times the drain rounds
/// would tell the first rejected clients to back off for seconds on no
/// evidence at all.
fn retry_after_hint(rec: &InMemoryRecorder, depth: usize, servers: usize) -> u64 {
    match rec.histogram_data(LATENCY_MS).and_then(|h| h.mean()) {
        Some(mean) if mean.is_finite() => {
            let rounds = depth.div_ceil(servers.max(1)).max(1);
            ((mean * rounds as f64).ceil() as u64).max(1)
        }
        _ => RETRY_AFTER_FLOOR_MS,
    }
}

fn admit(front: &Front, names: &Names, stream: TcpStream) {
    match front.queue.try_push(stream) {
        Ok(depth) => {
            let mut rec = front.rec();
            // Admissions so far number the depth samples.
            let seq = rec.counter_value(names.admitted);
            rec.counter(names.admitted, 1);
            rec.sample(names.queue_depth, seq, 0, depth as u64);
        }
        Err(mut stream) => {
            let retry_after = {
                let mut rec = front.rec();
                rec.counter(names.rejected, 1);
                retry_after_hint(&rec, front.queue.cap(), front.servers)
            };
            let _ = writeln!(stream, "{}", overloaded_line(front.queue.cap(), retry_after));
            let _ = stream.flush();
        }
    }
}

fn serve_connection<H: Handler>(handler: &H, stream: TcpStream) {
    let front = handler.front();
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let cut = match read_line_patient(&mut reader, &mut buf, front) {
            // Invalid UTF-8 closes the connection, as a broken transport
            // does, and so does an answer that cannot be written.
            LineRead::Line => match std::str::from_utf8(&buf).map(str::trim) {
                Ok("") => continue,
                Ok(line) if answer(handler, &mut writer, line) => continue,
                _ => return,
            },
            LineRead::Closed => return,
            LineRead::TooLong => {
                let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                let _ =
                    writeln!(writer, "{}", error_line(ProtoVersion::V3, "bad-request", &msg, None));
                H::NAMES.too_long
            }
            LineRead::Abandoned => H::NAMES.abandoned,
            LineRead::Yielded => H::NAMES.idle_closed,
        };
        front.rec().counter(cut, 1);
        return;
    }
}

/// Answer one request line and keep the books; `false` once the answer
/// could not be written.
fn answer<H: Handler>(handler: &H, writer: &mut TcpStream, line: &str) -> bool {
    let front = handler.front();
    let started = Instant::now();
    let (response, mut info) = handler.handle(line);
    let write_started = Instant::now();
    let write_ok = writeln!(writer, "{response}").and_then(|_| writer.flush()).is_ok();
    info.stages.push(("serialize", write_started.elapsed().as_secs_f64() * 1e3));
    let e2e_ms = started.elapsed().as_secs_f64() * 1e3;
    {
        let mut rec = front.rec();
        rec.counter(H::NAMES.completed, 1);
        rec.histogram(LATENCY_MS, e2e_ms as u64);
        handler.record(&mut rec, &info.stages);
    }
    {
        let mut slowest = front.slowest.lock().expect("exemplar poisoned");
        if slowest.as_ref().is_none_or(|(_, ms)| e2e_ms >= *ms) {
            *slowest = Some((info.trace_id.clone(), e2e_ms));
        }
    }
    let record = RequestRecord {
        trace_id: info.trace_id,
        kind: info.kind.to_string(),
        ok: info.ok,
        e2e_ms,
        sampled: SampleReason::Head,
        stages: info
            .stages
            .into_iter()
            .map(|(stage, ms)| StageSpan { stage: stage.to_string(), ms })
            .collect(),
    };
    front.sampler.lock().expect("sampler poisoned").offer(record);
    write_ok
}

/// How reading one request line ended.
enum LineRead {
    /// `buf` holds a line, or the unterminated tail before EOF.
    Line,
    /// EOF or a transport error, or drain found the connection idle.
    Closed,
    TooLong,
    Abandoned,
    /// Idle while connections wait for a worker.
    Yielded,
}

/// Read one line into `buf`, at most [`MAX_LINE_BYTES`] of it. Each read
/// times out after [`IDLE_POLL`]; a timeout with a partial line keeps the
/// data and waits on, so slow writers are never corrupted, until the
/// line's deadline passes. A timeout with nothing read closes the
/// connection when a drain has begun, and yields it when others queue.
fn read_line_patient(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    front: &Front,
) -> LineRead {
    let mut first_byte: Option<Instant> = None;
    loop {
        if first_byte.is_some_and(|t| t.elapsed() >= LINE_DEADLINE) {
            return LineRead::Abandoned;
        }
        match reader.fill_buf() {
            // EOF: serve a final unterminated line; the next read sees EOF.
            Ok([]) if buf.is_empty() => return LineRead::Closed,
            Ok([]) => return LineRead::Line,
            Ok(chunk) => {
                first_byte.get_or_insert_with(Instant::now);
                let room = MAX_LINE_BYTES + 1 - buf.len();
                let (take, done) = match chunk.iter().position(|&b| b == b'\n') {
                    Some(i) if i < room => (i + 1, true),
                    _ => (chunk.len().min(room), false),
                };
                buf.extend_from_slice(&chunk[..take]);
                reader.consume(take);
                if done {
                    return LineRead::Line;
                }
                if buf.len() > MAX_LINE_BYTES {
                    return LineRead::TooLong;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if buf.is_empty() && front.stopping() {
                    return LineRead::Closed;
                }
                if buf.is_empty() && !front.queue.is_empty() {
                    return LineRead::Yielded;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return LineRead::Closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: before any request latency lands, the hint used to be
    /// the 100 ms floor *multiplied by the drain rounds* — the very first
    /// rejected clients were told to back off for seconds based on no
    /// measurement at all. The zero-sample window now reports the bare
    /// floor.
    #[test]
    fn retry_after_hint_startup_window_reports_the_bare_floor() {
        let rec = InMemoryRecorder::new();
        assert_eq!(retry_after_hint(&rec, 64, 2), RETRY_AFTER_FLOOR_MS);
        assert_eq!(retry_after_hint(&rec, 1024, 1), RETRY_AFTER_FLOOR_MS);
        assert_eq!(retry_after_hint(&rec, 0, 4), RETRY_AFTER_FLOOR_MS);
    }

    #[test]
    fn retry_after_hint_scales_with_measured_latency_and_depth() {
        let mut rec = InMemoryRecorder::new();
        rec.histogram("serve.request.latency_ms", 10);
        // 8 queued through 2 workers = 4 rounds of ~10 ms each.
        assert_eq!(retry_after_hint(&rec, 8, 2), 40);
        // Depth 0 still suggests one round.
        assert_eq!(retry_after_hint(&rec, 0, 2), 10);
        // Sub-millisecond means still hint at least 1 ms.
        let mut fast = InMemoryRecorder::new();
        fast.histogram("serve.request.latency_ms", 0);
        assert_eq!(retry_after_hint(&fast, 4, 4), 1);
    }
}
