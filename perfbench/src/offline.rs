//! The `offline-large` workload: back-to-back certified runs through the
//! library, as `unet simulate` then `unet check` would make them.

use std::time::Instant;

use unet_obs::json::Value;
use unet_serve::protocol::SimulateReq;

use crate::library::{self, Output};
use crate::load::{self, ClosedReport, Done, WallClock};
use crate::report::{Outcome, PER_LAYER};
use crate::spans::SpanLog;
use crate::{mix, nproc, procfs, stats, SETUPS};

/// Single-stream runs per measurement round.
const SINGLE_PER_ROUND: usize = 2;
/// Share of `--seconds` for the untraced phase of a traced run; the
/// traced phase repeats the same runs.
const TRACED_SHARE: f64 = 0.3;
/// Specs split into layers in a traced run.
const SPLIT_RUNS: usize = 2;

fn spec(seed: u64, i: usize) -> SimulateReq {
    SimulateReq {
        guest: "random:4096x4".into(),
        host: "butterfly:5".into(),
        steps: 8,
        seed: mix(seed, i as u64),
        deadline_ms: None,
        id: None,
    }
}

/// `count` certified runs over specs `base..` in a closed loop on
/// `streams` threads. Each run's output comes with the process CPU it
/// took, which is its own when it runs on a single stream.
fn runs(seed: u64, base: usize, streams: usize, count: usize) -> ClosedReport<(Output, f64)> {
    let mut workers = vec![(); streams];
    load::closed_loop(&WallClock::start(), count, f64::INFINITY, &mut workers, |_, i| {
        let cpu_before = procfs::cpu_ms();
        let out = library::certified(&spec(seed, base + i), None, base + i)
            .map_err(|e| format!("run {}: {e}", base + i))?;
        Ok((out, procfs::cpu_ms() - cpu_before))
    })
}

/// Round trips of the runs that completed.
fn ok_ms(done: &[Done<(Output, f64)>]) -> Vec<f64> {
    done.iter().filter(|d| d.result.is_ok()).map(|d| d.ms).collect()
}

/// The untraced run: set up [`SETUPS`] times (each makes the inputs and
/// warms up with one certified run), then certified runs on one stream
/// and on one stream per core, in alternating rounds.
pub fn measure(seed: u64, seconds: u64, process_start: Instant) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    for rep in 0..SETUPS {
        let started = if rep == 0 { process_start } else { Instant::now() };
        library::certified(&spec(seed, 0), None, 0)?;
        setup_s.push(started.elapsed().as_secs_f64());
    }
    // Rounds of two runs on one stream, then one run on each of `nproc`
    // streams, until the next round would overrun `--seconds`. Both kinds
    // of run are spread over the whole measurement, so a burst of load
    // from outside the process touches a few of each.
    let started = Instant::now();
    let (mut single, mut parallel) = (Vec::new(), Vec::new());
    let (mut next, mut round_s) = (1, 0.0);
    while started.elapsed().as_secs_f64() + round_s <= seconds as f64 {
        let round = Instant::now();
        single.extend(runs(seed, next, 1, SINGLE_PER_ROUND).done);
        next += SINGLE_PER_ROUND;
        parallel.extend(runs(seed, next, nproc(), nproc()).done);
        next += nproc();
        round_s = round.elapsed().as_secs_f64();
    }
    let peak_rss = procfs::peak_rss_mb();

    let mut out = Outcome { correct: true, ..Outcome::default() };
    for d in single.iter().chain(&parallel) {
        if let Err(e) = &d.result {
            out.fail_check(e.clone());
        }
    }
    out.attempted = (single.len() + parallel.len()) as u64;
    out.failed = single.iter().chain(&parallel).filter(|d| d.result.is_err()).count() as u64;
    let times = ok_ms(&single);
    let tail = stats::tail(&times).ok_or("no certified run completed")?;
    let p50 = stats::median(&times).expect("times exist");
    let cpu: Vec<f64> = single.iter().filter_map(|d| Some(d.result.as_ref().ok()?.1)).collect();
    // Rates by Little's law from the median run time, so that a burst of
    // outside load during a few runs does not set them.
    let parallel_p50 = stats::median(&ok_ms(&parallel)).ok_or("no parallel run completed")?;
    out.metric("setup_s", stats::median(&setup_s).expect("set-ups ran"));
    out.metric("latency_p50_ms", p50);
    out.metric("latency_tail_ms", tail.value);
    out.metric("sustained_rps", 1e3 / p50);
    out.metric("capacity_rps", nproc() as f64 * 1e3 / parallel_p50);
    out.metric("cpu_ms_per_op", stats::median(&cpu).expect("runs completed"));
    out.metric("ok_ratio", 1.0 - out.failed as f64 / out.attempted.max(1) as f64);
    out.metric("peak_rss_mb", peak_rss);
    out.metric("run_p50_ms", p50);
    out.note("latency_tail", tail.note());
    out.note("parallel_runs", Value::UInt(parallel.len() as u64));
    out.note("parallel_run_p50_ms", Value::Float(parallel_p50));
    out.note("setups_s", Value::Arr(setup_s.into_iter().map(Value::Float).collect()));
    Ok(out)
}

/// The traced run: runs without spans for [`TRACED_SHARE`] of
/// `--seconds`, the same runs with a span around every library call
/// (their difference is the tracing overhead), then the first
/// [`SPLIT_RUNS`] of them split into layers.
pub fn traced(seed: u64, seconds: u64, trace_path: &std::path::Path) -> Result<Outcome, String> {
    library::certified(&spec(seed, 0), None, 0)?;
    let started = Instant::now();
    let mut untraced = Vec::new();
    while untraced.len() < SPLIT_RUNS
        || started.elapsed().as_secs_f64() < TRACED_SHARE * seconds as f64
    {
        untraced.extend(runs(seed, 1 + untraced.len(), 1, 1).done);
    }
    let traced_runs = untraced.len();
    let mut out = Outcome { correct: true, ..Outcome::default() };
    let mut log = SpanLog::new(Instant::now());
    let mut outputs = Vec::new();
    for i in 1..=traced_runs {
        match log.root("op", i, |log| library::certified(&spec(seed, i), Some(log), i)) {
            Ok(o) => outputs.push(o),
            Err(e) => out.fail_check(format!("run {i}: {e}")),
        }
    }
    for k in 0..SPLIT_RUNS {
        // Split runs are operations of their own, after the traced ones.
        let got = library::layered(&spec(seed, 1 + k), &mut log, traced_runs + 1 + k)?;
        if outputs.get(k) != Some(&got) {
            out.fail_check(format!("run {}: layer split gave {got:?}", 1 + k));
        }
    }
    let failed =
        untraced.iter().filter(|d| d.result.is_err()).count() + traced_runs - outputs.len();
    out.attempted = 2 * traced_runs as u64;
    out.failed = failed as u64;
    for d in &untraced {
        if let Err(e) = &d.result {
            out.fail_check(e.clone());
        }
    }
    let untraced_ms: Vec<f64> = untraced.iter().map(|d| d.ms).collect();
    let e2e = log.mean_ms("op");
    let replay = log.mean_ms("core.replay");
    out.metric("e2e_ms", e2e);
    out.metric("trace.overhead_ms", e2e - stats::mean(&untraced_ms));
    out.metric("topology.parse_ms", log.mean_ms("topology.parse"));
    out.metric("core.guest_init_ms", log.mean_ms("core.guest_init"));
    out.metric("core.plan_build_ms", log.mean_ms("core.cold_run") - replay);
    out.metric("core.replay_ms", replay);
    out.metric("pebble.check_ms", log.mean_ms("pebble.check"));
    out.metric("core.direct_ms", log.mean_ms("core.direct"));
    let host_steps = outputs.first().ok_or("no traced run completed")?.host_steps;
    out.metric("output.host_steps", host_steps as f64);
    // No serving tier here: its layers read 0.
    for &(name, _) in PER_LAYER {
        if ["wire_ms", "serve.", "router.", "plan_cache."].iter().any(|p| name.starts_with(p)) {
            out.metric(name, 0.0);
        }
    }
    out.note("run_ms_with_builder_defaults", Value::Float(log.mean_ms("core.run")));
    out.note("verify_run_ms", Value::Float(log.mean_ms("core.verify_run")));
    log.write_jsonl(trace_path).map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    out.note("spans", Value::Str(trace_path.display().to_string()));
    Ok(out)
}
