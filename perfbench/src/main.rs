//! The repository's performance benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-hot|shard-cold|offline-large --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}` with every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`), each with its unit. The line before it holds the run's
//! provenance and evidence. See `perfbench/README.md`.

mod library;
mod load;
mod offline;
mod procfs;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use unet_obs::json::Value;

use report::{result_line, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// A seed no gain claim may be tuned on: a claim must also hold on it.
const HELD_OUT_SEED: u64 = 7919;

/// Cores available to this process: load threads, connections and the
/// serving tier's executors are sized by it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seed of input `i` of a workload seeded with `seed` (SplitMix64, a
/// bijection of its input, so distinct `i` give distinct seeds).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => trace = Some(num(&value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(32);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t}: 0 or 1")),
    };
    Ok(Args { workload, seed: seed.unwrap_or(HELD_OUT_SEED), seconds, trace })
}

/// The commit of a git checkout in the working directory, read from
/// `.git` without running git; `None` elsewhere.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// FNV-1a over the paths and bytes of the measured sources (`crates/`
/// and the root manifests), so a run names its code in a checkout that
/// is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let trace_path =
        PathBuf::from(format!("perfbench/out/spans-{}-{}.jsonl", args.workload, args.seed));
    match (args.workload.as_str(), args.trace) {
        ("serve-hot", false) => {
            serve::measure(&serve::SERVE_HOT, args.seed, args.seconds, process_start)
        }
        ("serve-hot", true) => {
            serve::traced(&serve::SERVE_HOT, args.seed, args.seconds, &trace_path)
        }
        ("shard-cold", false) => {
            serve::measure(&serve::SHARD_COLD, args.seed, args.seconds, process_start)
        }
        ("shard-cold", true) => {
            serve::traced(&serve::SHARD_COLD, args.seed, args.seconds, &trace_path)
        }
        ("offline-large", false) => offline::measure(args.seed, args.seconds, process_start),
        ("offline-large", true) => offline::traced(args.seed, args.seconds, &trace_path),
        (w, _) => Err(format!("unknown workload {w}")),
    }
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let outcome = match run(&args, process_start) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let line = match result_line(&outcome, table) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut provenance = vec![
        ("workload".to_string(), Value::Str(args.workload.clone())),
        ("seed".to_string(), Value::UInt(args.seed)),
        ("held_out_seed".to_string(), Value::UInt(HELD_OUT_SEED)),
        ("seconds".to_string(), Value::UInt(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("nproc".to_string(), Value::UInt(nproc() as u64)),
        ("git_rev".to_string(), git_rev().map_or(Value::Null, Value::Str)),
        ("source_fnv".to_string(), Value::Str(source_digest())),
        ("wall_s".to_string(), Value::Float(started.elapsed().as_secs_f64())),
    ];
    provenance.extend(outcome.notes.iter().cloned());
    println!("{}", Value::Obj(provenance).to_json());
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload shard-cold --seed 5 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("shard-cold", 5, 3, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload serve-hot --trace 2").is_err());
        assert!(args("--workload serve-hot --seconds 0").is_err());
        assert!(args("--workload serve-hot --seed").is_err());
        assert!(args("--seed 1").is_err());
    }

    #[test]
    fn input_seeds_are_distinct() {
        let mut seeds: Vec<u64> = (0..10_000).map(|i| mix(42, i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 10_000);
        assert_ne!(mix(1, 0), mix(2, 0));
    }
}
