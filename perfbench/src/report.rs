//! Metric names, units and the result line. `BENCHMARK.json` at the
//! repository root lists the same names and units; a test holds the two
//! in step.

use unet_obs::json::Value;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["serve-hot", "shard-cold", "offline-large"];

/// End-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("sustained_rps", "1/s"),
    ("capacity_rps", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("run_p50_ms", "ms"),
];

/// Per-layer metrics, printed by a traced run: `(name, unit)`. Times are
/// means per operation, so that layers add up to their totals.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("e2e_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("wire_ms", "ms"),
    ("serve.accept_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.singleflight_wait_ms", "ms"),
    ("serve.plan_build_ms", "ms"),
    ("serve.simulate_ms", "ms"),
    ("serve.dispatch_ms", "ms"),
    ("serve.other_ms", "ms"),
    ("serve.serialize_ms", "ms"),
    ("serve.simulate_overhead_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.errors", "count"),
    ("router.forward_ms", "ms"),
    ("router.retry_ms", "ms"),
    ("router.failover_ms", "ms"),
    ("router.failovers", "count"),
    ("router.overloads_absorbed", "count"),
    ("plan_cache.hits", "count"),
    ("plan_cache.misses", "count"),
    ("plan_cache.hit_ratio", "ratio"),
    ("plan_cache.singleflight_followers", "count"),
    ("plan_cache.mb_per_entry", "MB"),
    ("topology.parse_ms", "ms"),
    ("core.guest_init_ms", "ms"),
    ("core.plan_build_ms", "ms"),
    ("core.replay_ms", "ms"),
    ("pebble.check_ms", "ms"),
    ("core.direct_ms", "ms"),
    ("output.host_steps", "count"),
];

/// Names are letters, digits, `_`, `.` and `-`, start with a letter or
/// digit, and are at most 64 characters long.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output checked equal to its reference and every exact count held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Provenance and evidence printed ahead of the result line.
    pub notes: Vec<(String, Value)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.to_string(), value));
    }

    /// Fold a failed check into the outcome.
    pub fn fail_check(&mut self, what: String) {
        self.correct = false;
        self.note("check_failed", Value::Str(what));
    }
}

/// The result line: exactly the metrics of `table`, each once, with its
/// unit. A missing, repeated, unknown or non-finite metric is an error.
pub fn result_line(out: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        if !valid_name(name) {
            return Err(format!("metric name {name:?} is not allowed"));
        }
        let mut values = out.metrics.iter().filter(|(n, _)| *n == name);
        let value = match (values.next(), values.next()) {
            (Some(&(_, v)), None) if v.is_finite() => v,
            (Some(&(_, v)), None) => return Err(format!("metric {name} is {v}")),
            (None, _) => return Err(format!("metric {name} missing")),
            (Some(_), Some(_)) => return Err(format!("metric {name} reported twice")),
        };
        let body = vec![
            ("value".to_string(), Value::Float(value)),
            ("unit".to_string(), Value::Str(unit.to_string())),
        ];
        metrics.push((name.to_string(), Value::Obj(body)));
    }
    if let Some((name, _)) = out.metrics.iter().find(|(n, _)| !table.iter().any(|t| t.0 == *n)) {
        return Err(format!("metric {name} is not in this run's table"));
    }
    Ok(Value::Obj(vec![
        ("correct".to_string(), Value::Bool(out.correct)),
        ("attempted".to_string(), Value::UInt(out.attempted)),
        ("failed".to_string(), Value::UInt(out.failed)),
        ("metrics".to_string(), Value::Obj(metrics)),
    ])
    .to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use unet_obs::json::parse;

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{unit}"
            );
        }
        for name in WORKLOADS {
            assert!(valid_name(name), "{name}");
        }
        for bad in ["", "_x", "a b", "p99%", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for good in ["x", "9lives", "pebble.check_ms", "serve-hot", &"x".repeat(64)] {
            assert!(valid_name(good), "{good:?}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn table(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Value::as_str).unwrap_or_else(|| panic!("{k}"));
                (s("name").to_string(), s("unit").to_string())
            })
            .collect()
    }

    fn owned(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn benchmark_json_round_trips_and_matches_the_tables() {
        let v = manifest();
        assert_eq!(parse(&v.to_json()).unwrap(), v);
        let Value::Obj(fields) = &v else { panic!("an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        assert_eq!(table(&v, "end_to_end"), owned(END_TO_END));
        assert_eq!(table(&v, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for m in v.get("end_to_end").and_then(Value::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
            let better = m.get("better").and_then(Value::as_str).unwrap();
            assert!(better == "lower" || better == "higher");
        }
        let setup = &v.get("end_to_end").and_then(Value::as_arr).unwrap()[0];
        assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
        let seconds = v.get("run_seconds").and_then(Value::as_u64).unwrap();
        assert!((1..=60).contains(&seconds));
    }

    #[test]
    fn result_line_holds_exactly_the_table() {
        let mut out = Outcome { correct: true, attempted: 3, ..Outcome::default() };
        out.metric("a", 1.5);
        out.metric("b", 2.0);
        let line = result_line(&out, &[("a", "ms"), ("b", "s")]).unwrap();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
        let a = v.get("metrics").and_then(|m| m.get("a")).unwrap();
        assert_eq!(a.get("value").and_then(Value::as_f64), Some(1.5));
        assert_eq!(a.get("unit").and_then(Value::as_str), Some("ms"));
        assert!(result_line(&out, &[("a", "ms")]).is_err(), "b is extra");
        assert!(result_line(&out, &[("a", "ms"), ("b", "s"), ("c", "s")]).is_err());
        out.metric("a", 1.0);
        assert!(result_line(&out, &[("a", "ms"), ("b", "s")]).is_err(), "a twice");
        let mut nan = Outcome::default();
        nan.metric("a", f64::NAN);
        assert!(result_line(&nan, &[("a", "ms")]).is_err());
    }
}
