//! Certified runs through the library's public functions: the reference
//! every served result is checked against, the offline workload's
//! operation, and the traced split of one run into its layers.

use unet_core::routers::presets;
use unet_core::spec::parse_graph;
use unet_core::{verify_run, Embedding, GuestComputation, SharedPlanCache, Simulation};
use unet_serve::protocol::SimulateReq;

use crate::spans::SpanLog;

/// The exact outputs a served result must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Output {
    pub host_steps: u64,
    pub comm_steps: u64,
    pub slowdown: f64,
}

/// Time `f` in a span when a log is given.
fn timed<T>(
    log: &mut Option<&mut SpanLog>,
    name: &'static str,
    op: usize,
    f: impl FnOnce() -> T,
) -> T {
    match log {
        Some(log) => log.time(name, Some("op"), op, f),
        None => f(),
    }
}

/// One certified run as `unet simulate` then `unet check` do it: parse
/// both specs, build the guest, run with builder defaults (so a new plan
/// cache per run) and certify with `verify_run`.
pub fn certified(
    spec: &SimulateReq,
    mut log: Option<&mut SpanLog>,
    op: usize,
) -> Result<Output, String> {
    let guest = timed(&mut log, "topology.parse", op, || parse_graph(&spec.guest))?;
    let host = timed(&mut log, "topology.parse", op, || parse_graph(&spec.host))?;
    let comp =
        timed(&mut log, "core.guest_init", op, || GuestComputation::random(guest, spec.seed));
    let router = presets::bfs();
    let run = timed(&mut log, "core.run", op, || {
        Simulation::builder()
            .guest(&comp)
            .host(&host)
            .embedding(Embedding::block(comp.n(), host.n()))
            .router(&router)
            .steps(spec.steps)
            .seed(spec.seed)
            .run()
    })
    .map_err(|e| format!("simulate: {e}"))?;
    timed(&mut log, "core.verify_run", op, || verify_run(&comp, &host, &run, spec.steps))
        .map_err(|e| format!("verify_run: {e}"))?;
    Ok(Output {
        host_steps: run.protocol.host_steps() as u64,
        comm_steps: run.comm_steps as u64,
        slowdown: run.slowdown(),
    })
}

/// One spec's certified run split into layers, each in its own span:
/// parse, guest set-up, a cold run that builds the plan into a fresh
/// shared cache (`core.cold_run`), a warm run that only replays it
/// (`core.replay`), the checker (`pebble.check`) and direct execution of
/// the guest (`core.direct`). Plan build is cold minus warm.
pub fn layered(spec: &SimulateReq, log: &mut SpanLog, op: usize) -> Result<Output, String> {
    let root = Some("op");
    let guest = log.time("topology.parse", root, op, || parse_graph(&spec.guest))?;
    let host = log.time("topology.parse", root, op, || parse_graph(&spec.host))?;
    let comp = log.time("core.guest_init", root, op, || GuestComputation::random(guest, spec.seed));
    let router = presets::bfs();
    let cache = SharedPlanCache::new();
    let run = || {
        Simulation::builder()
            .guest(&comp)
            .host(&host)
            .embedding(Embedding::block(comp.n(), host.n()))
            .router(&router)
            .steps(spec.steps)
            .seed(spec.seed)
            .shared_cache(&cache)
            .run()
            .map_err(|e| format!("simulate: {e}"))
    };
    // Dropped before the warm run so only one protocol is alive at a time.
    let cold_steps = log.time("core.cold_run", root, op, run)?.protocol.host_steps();
    let warm = log.time("core.replay", root, op, run)?;
    if (cache.misses(), cache.hits()) != (1, 1) {
        return Err(format!(
            "warm run missed the plan cache: {} misses, {} hits",
            cache.misses(),
            cache.hits()
        ));
    }
    log.time("pebble.check", root, op, || unet_pebble::check(&comp.graph, &host, &warm.protocol))
        .map_err(|e| format!("check: {e}"))?;
    let direct = log.time("core.direct", root, op, || comp.run_final(spec.steps));
    if direct != warm.final_states || cold_steps != warm.protocol.host_steps() {
        return Err("warm replay disagrees with direct execution or the cold run".to_string());
    }
    Ok(Output {
        host_steps: warm.protocol.host_steps() as u64,
        comm_steps: warm.comm_steps as u64,
        slowdown: warm.slowdown(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn spec(seed: u64) -> SimulateReq {
        SimulateReq {
            guest: "ring:24".into(),
            host: "torus:3x3".into(),
            steps: 3,
            seed,
            deadline_ms: None,
            id: None,
        }
    }

    #[test]
    fn layered_split_reproduces_the_certified_outputs() {
        let mut log = SpanLog::new(Instant::now());
        let plain = certified(&spec(5), None, 0).unwrap();
        let traced = certified(&spec(5), Some(&mut log), 0).unwrap();
        let split = layered(&spec(5), &mut log, 1).unwrap();
        assert_eq!(plain, traced);
        assert_eq!(plain, split);
        let names: Vec<&str> = log.spans.iter().filter(|s| s.op == 1).map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "topology.parse",
                "topology.parse",
                "core.guest_init",
                "core.cold_run",
                "core.replay",
                "pebble.check",
                "core.direct"
            ]
        );
    }

    #[test]
    fn bad_specs_fail_without_panicking() {
        let mut bad = spec(1);
        bad.guest = "blah:3".into();
        assert!(certified(&bad, None, 0).is_err());
        assert!(layered(&bad, &mut SpanLog::new(Instant::now()), 0).is_err());
    }
}
