//! The connection front end shared by `unet serve` and `unet shard`.
//!
//! Two kinds of tests live here. The equivalence tests pin what a fixed
//! request mix makes observable — the sorted metric family names of the
//! drained exposition and the stats snapshot — for a server and for a
//! router over two backends, so a change to the front end that alters
//! either shows up. The regression tests reproduce the front end's
//! hostile-client defects: an idle socket holding the only connection
//! worker, a client stalled mid-line blocking drain, and an unterminated
//! request line buffered without bound.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use unet_obs::trace::{export, RunMeta};
use unet_obs::{InMemoryRecorder, Recorder};
use unet_serve::client::Client;
use unet_serve::protocol::{metrics_request_line, parse_response, Response, SimulateReq};
use unet_serve::router::{Router, RouterStats, ShardConfig};
use unet_serve::{ServeConfig, Server, ServerStats};

/// The three front-end counters, which the equivalence tests leave out
/// of the pinned family names.
const FRONTEND_COUNTERS: [&str; 3] = ["lines_too_long", "lines_abandoned", "conns_idle_closed"];

fn spec(guest: &str, seed: u64) -> SimulateReq {
    SimulateReq {
        guest: guest.into(),
        host: "torus:2x2".into(),
        steps: 2,
        seed,
        deadline_ms: None,
        id: None,
    }
}

/// The fixed request mix, on one typed connection: a simulate, a batch
/// (a warm repeat plus a cold same-fingerprint pair), an analyze, a
/// metrics scrape, and a simulate with a bad spec.
fn drive_mix(addr: &str) {
    let mut client = Client::connect(addr).expect("connect").timeout(Duration::from_secs(30));
    client.simulate(&spec("ring:12", 7)).expect("simulate");
    let items = client
        .simulate_batch(&[spec("ring:12", 7), spec("ring:16", 3), spec("ring:16", 3)], None)
        .expect("batch round trip");
    assert!(items.iter().all(Result::is_ok), "{items:?}");
    let trace: Vec<String> = {
        let mut rec = InMemoryRecorder::new();
        rec.counter("sim.cache.hits", 4);
        let meta = RunMeta { command: "t".into(), ..RunMeta::default() };
        export(&rec, &meta, None).lines().map(str::to_string).collect()
    };
    assert!(client.analyze(&trace).expect("analyze").contains("unet_sim_cache_hits 4"));
    assert!(client.metrics().expect("metrics").contains("# TYPE"));
    assert!(client.simulate(&spec("blah:3", 1)).is_err(), "a bad spec is a typed error");
}

/// Sorted metric family names of an exposition (from its `# TYPE`
/// headers), without the front-end counters.
fn families(exposition: &str) -> Vec<String> {
    let mut names: Vec<String> = exposition
        .lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|h| h.split(' ').next())
        .filter(|name| !FRONTEND_COUNTERS.iter().any(|c| name.ends_with(c)))
        .map(str::to_string)
        .collect();
    names.sort();
    names.dedup();
    names
}

/// The value of an unlabeled (or `shard="router"`-labeled) series.
fn series(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        let rest = rest.strip_prefix("{shard=\"router\"}").unwrap_or(rest);
        rest.strip_prefix(' ')?.parse().ok()
    })
}

#[test]
fn server_exposition_and_stats_are_pinned_for_a_fixed_mix() {
    let server = Server::start(ServeConfig { workers: 2, queue_cap: 8, ..ServeConfig::default() })
        .expect("bind");
    drive_mix(&server.addr().to_string());
    let report = server.drain();
    assert_eq!(
        report.stats,
        ServerStats {
            admitted: 1,
            rejected: 0,
            completed: 5,
            shared_hits: 2,
            shared_misses: 2,
            singleflight_followers: 1,
        }
    );
    let want = [
        "unet_route_packets",
        "unet_route_steps",
        "unet_route_transfers",
        "unet_serve_batch_size_count",
        "unet_serve_batch_size_max",
        "unet_serve_batch_size_sum",
        "unet_serve_cache_hit_ratio",
        "unet_serve_cache_shared_hits",
        "unet_serve_cache_shared_misses",
        "unet_serve_conns_admitted",
        "unet_serve_max_batch",
        "unet_serve_planbuild_singleflight_followers",
        "unet_serve_queue_cap",
        "unet_serve_request_latency_ms_count",
        "unet_serve_request_latency_ms_max",
        "unet_serve_request_latency_ms_sum",
        "unet_serve_requests_completed",
        "unet_serve_trace_requests_dropped",
        "unet_serve_trace_requests_sampled",
        "unet_serve_workers",
        "unet_sim_cache_hits",
        "unet_sim_cache_misses",
        "unet_sim_cache_shared_hits",
        "unet_sim_cache_shared_misses",
        "unet_sim_comm_steps",
        "unet_sim_compute_steps",
        "unet_sim_guest_steps",
    ];
    assert_eq!(families(&report.exposition), want, "{}", report.exposition);
}

#[test]
fn router_exposition_and_stats_are_pinned_for_a_fixed_mix() {
    let backends: Vec<Server> = (0..2)
        .map(|_| {
            Server::start(ServeConfig { workers: 2, queue_cap: 8, ..ServeConfig::default() })
                .expect("bind backend")
        })
        .collect();
    let router = Router::start(ShardConfig {
        backends: backends.iter().map(|b| b.addr().to_string()).collect(),
        workers: 2,
        ..ShardConfig::default()
    })
    .expect("bind router");
    drive_mix(&router.addr().to_string());
    let report = router.drain();
    assert_eq!(
        report.stats,
        RouterStats {
            forwarded: 4,
            completed: 5,
            failovers: 0,
            overloads_absorbed: 0,
            ejected: 0,
            reinstated: 0,
            backends: 2,
            healthy: 2,
        }
    );
    let want = [
        "unet_serve_request_latency_ms_count",
        "unet_serve_request_latency_ms_max",
        "unet_serve_request_latency_ms_sum",
        "unet_shard_backends",
        "unet_shard_backends_healthy",
        "unet_shard_conns_admitted",
        "unet_shard_queue_cap",
        "unet_shard_requests_completed",
        "unet_shard_requests_forwarded",
        "unet_shard_stage_accept_us_count",
        "unet_shard_stage_accept_us_max",
        "unet_shard_stage_accept_us_sum",
        "unet_shard_stage_forward_us_count",
        "unet_shard_stage_forward_us_max",
        "unet_shard_stage_forward_us_sum",
        "unet_shard_stage_serialize_us_count",
        "unet_shard_stage_serialize_us_max",
        "unet_shard_stage_serialize_us_sum",
        "unet_shard_trace_requests_dropped",
        "unet_shard_trace_requests_sampled",
        "unet_shard_workers",
    ];
    assert_eq!(families(&report.exposition), want, "{}", report.exposition);
    for b in backends {
        b.drain();
    }
}

/// A server with exactly one connection worker.
fn one_conn_server() -> Server {
    Server::start(ServeConfig {
        workers: 1,
        conn_workers: Some(1),
        queue_cap: 8,
        ..ServeConfig::default()
    })
    .expect("bind")
}

/// Peak resident set of this process in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024
}

#[test]
fn an_unterminated_64_mib_line_gets_a_typed_error_and_memory_stays_bounded() {
    let server = one_conn_server();
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let before = peak_rss_mib();
    let mut writer = stream.try_clone().expect("clone");
    let sender = std::thread::spawn(move || {
        let chunk = vec![b'x'; 1 << 16];
        for _ in 0..1024 {
            // The server closes the connection once the line passes its
            // bound; the remaining writes then fail.
            if writer.write_all(&chunk).is_err() {
                break;
            }
        }
    });
    let mut response = String::new();
    let read = BufReader::new(&stream).read_line(&mut response);
    let grown = peak_rss_mib().saturating_sub(before);
    assert!(grown < 32, "peak RSS grew {grown} MiB while a 64 MiB line arrived");
    assert!(read.is_ok(), "no answer to an over-long line: {read:?}");
    match parse_response(response.trim()) {
        Ok(Response::Error { code, .. }) => assert_eq!(code, "bad-request"),
        other => panic!("expected a typed bad-request, got {other:?}"),
    }
    sender.join().expect("sender");
    drop(stream);
    let report = server.drain();
    assert_eq!(series(&report.exposition, "unet_serve_lines_too_long"), Some(1.0));
    assert_eq!(report.stats.completed, 0, "an over-long line is not a request");
}

/// How long a drain may take while a client sits mid-line: the front
/// end's 2 s `LINE_DEADLINE` plus a margin. Stated as a number, not the
/// constant, so this file also builds against a front end without one.
const DRAIN_BOUND: Duration = Duration::from_secs(5);

/// Start a drain in the background and wait at most [`DRAIN_BOUND`].
fn drain_within_deadline<T: Send + 'static>(drain: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let drainer = std::thread::spawn(move || {
        // The receiver is gone only when the test has already failed.
        let _ = tx.send(drain());
    });
    let report = rx.recv_timeout(DRAIN_BOUND).expect("drain finishes while a client sits mid-line");
    drainer.join().expect("drain thread");
    report
}

/// Connect, complete one `metrics` round trip (so the connection is
/// admitted and owns a worker), then send half a request line and stall.
fn stall_mid_line(addr: std::net::SocketAddr) -> TcpStream {
    let mut stalled = TcpStream::connect(addr).expect("connect");
    writeln!(stalled, "{}", metrics_request_line(None, None)).expect("send");
    let mut answer = String::new();
    BufReader::new(&stalled).read_line(&mut answer).expect("metrics answered");
    assert!(matches!(parse_response(answer.trim()), Ok(Response::Result(_))), "{answer}");
    stalled.write_all(b"{\"proto\":\"unet-serve/3\",\"kind\":").expect("send half a line");
    stalled
}

/// The connection is closed without an answer to the partial line.
fn assert_closed_unanswered(stalled: TcpStream) {
    stalled.set_read_timeout(Some(Duration::from_secs(1))).expect("timeout");
    let mut rest = Vec::new();
    let read = (&stalled).read_to_end(&mut rest);
    assert!(read.is_ok(), "connection closed: {read:?}");
    assert!(rest.is_empty(), "a dropped line gets no answer: {:?}", String::from_utf8_lossy(&rest));
}

#[test]
fn server_drain_finishes_within_the_line_deadline_while_a_client_sits_mid_line() {
    let server = one_conn_server();
    let stalled = stall_mid_line(server.addr());
    let report = drain_within_deadline(move || server.drain());
    assert_eq!(series(&report.exposition, "unet_serve_lines_abandoned"), Some(1.0));
    assert_eq!(report.stats.completed, 1, "only the metrics request was answered");
    assert_closed_unanswered(stalled);
}

#[test]
fn router_drain_finishes_within_the_line_deadline_while_a_client_sits_mid_line() {
    let backend = one_conn_server();
    let router = Router::start(ShardConfig {
        backends: vec![backend.addr().to_string()],
        workers: 1,
        ..ShardConfig::default()
    })
    .expect("bind router");
    let stalled = stall_mid_line(router.addr());
    let report = drain_within_deadline(move || router.drain());
    assert_eq!(series(&report.exposition, "unet_shard_lines_abandoned"), Some(1.0));
    assert_eq!(report.stats.completed, 1, "only the metrics request was answered");
    assert_closed_unanswered(stalled);
    backend.drain();
}

#[test]
fn an_idle_socket_yields_the_only_connection_worker_to_a_waiting_client() {
    let server = one_conn_server();
    let addr = server.addr().to_string();
    let idle = TcpStream::connect(&addr).expect("connect");
    while server.stats().admitted == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let started = Instant::now();
    let mut client = Client::connect(&addr).expect("connect").timeout(Duration::from_secs(2));
    let answer = client.metrics();
    assert!(answer.is_ok(), "no answer while an idle socket holds the worker: {answer:?}");
    assert!(started.elapsed() < Duration::from_secs(1), "answered after {:?}", started.elapsed());
    drop((client, idle));
    let report = server.drain();
    assert_eq!(series(&report.exposition, "unet_serve_conns_idle_closed"), Some(1.0));
}

#[test]
fn a_typed_client_whose_idle_connection_yielded_gets_its_next_answer() {
    let server = one_conn_server();
    let addr = server.addr().to_string();
    let connect = || Client::connect(&addr).expect("connect").timeout(Duration::from_secs(2));
    let mut first = connect();
    first.metrics().expect("first client answered");
    let mut second = connect();
    second.metrics().expect("second client answered once the first yields");
    // The first client's connection was closed under it; its one
    // reconnect queues, the now idle second connection yields, and the
    // first is answered.
    first.metrics().expect("first client answered after its reconnect");
    drop((first, second));
    let report = server.drain();
    assert_eq!(series(&report.exposition, "unet_serve_conns_idle_closed"), Some(2.0));
    assert_eq!(report.stats.completed, 3);
}
