//! The repository benchmark. One command runs one workload for one seed:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! carries the run's provenance. The traced run's layer table goes to
//! standard error. See `README.md` beside this file for the method.

mod check;
mod cosim;
mod pins;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use check::Tally;
use cosim::{Cosim, CHIPLET_DNN, MESH256, MESH512_PAR2};
use trace::LAYER_METRICS;

const COSIM: [Cosim; 3] = [MESH256, MESH512_PAR2, CHIPLET_DNN];

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Every end-to-end metric, with its unit. An untraced run prints all of
/// them for every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("sim_kips", "kIPS"),
    ("latency_err_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("setup_s", "s"),
];

/// Metric values of one run, keyed by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run found.
#[derive(Debug)]
pub struct Report {
    pub tally: Tally,
    pub params: String,
    pub notes: String,
    /// End-to-end metrics.
    pub metrics: Values,
    /// Per-layer metrics (traced runs only).
    pub layers: Option<Values>,
    /// The traced run's layer table.
    pub table: Option<String>,
}

impl Report {
    pub fn new(tally: Tally, params: String, notes: String) -> Report {
        Report {
            tally,
            params,
            notes,
            metrics: Values::new(),
            layers: None,
            table: None,
        }
    }
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.max(1),
        trace,
    })
}

/// JSON number text: shortest round-trip form, never NaN or infinite.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Identity of the measured sources: the git commit when the tree is a
/// checkout, and always an FNV-1a hash over the sources the benchmark
/// builds, so a copy without git history is identified too.
fn provenance_source() -> (String, String) {
    // Only this tree's own history: a copy nested in another checkout
    // must not report that checkout's commit.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let mut files = Vec::new();
    for root in ["crates", "vendor", "perfbench/src"] {
        collect(Path::new(root), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"].map(Into::into));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (commit, format!("{h:016x}"))
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    if args.workload == serve::NAME {
        return serve::run(args.seed, args.seconds, args.trace);
    }
    COSIM
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?
        .run(args.seed, args.seconds, args.trace)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--pin") {
        return pin(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for failure in &report.tally.failures {
        eprintln!("FAILED {failure}");
    }
    if let Some(table) = &report.table {
        eprint!("{table}");
    }
    let (commit, tree) = provenance_source();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"commit\":{},\"source_fnv\":{},\"rustc\":{},\"params\":{},\"notes\":{}}}}}",
        quote(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        quote(&commit),
        quote(&tree),
        quote(env!("PERFBENCH_RUSTC")),
        quote(&report.params),
        quote(&report.notes),
    );
    // Every listed metric is printed; one a workload does not produce
    // (a layer it does not exercise) reads 0.
    let no_layers = Values::new();
    let (list, values) = if args.trace {
        (LAYER_METRICS, report.layers.as_ref().unwrap_or(&no_layers))
    } else {
        (END_TO_END, &report.metrics)
    };
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(name),
                num(value),
                quote(unit)
            )
        })
        .collect();
    let t = &report.tally;
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        t.failed == 0 && t.attempted > 0,
        t.attempted.max(1),
        t.failed,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}

/// `--pin <workload> <seeds...>`: prints pin rows for `src/pins.rs`.
fn pin(args: &[String]) -> ExitCode {
    let Some(w) = args
        .first()
        .and_then(|n| COSIM.iter().find(|w| w.name == n))
    else {
        eprintln!("perfbench: --pin needs a co-simulation workload name");
        return ExitCode::from(2);
    };
    let seeds: Result<Vec<u64>, _> = args[1..].iter().map(|s| s.parse()).collect();
    match seeds
        .map_err(|e| e.to_string())
        .and_then(|s| cosim::print_pins(w, &s))
    {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ra_serve::Json;

    #[test]
    fn arguments_parse_and_reject_unknown_flags() {
        let argv: Vec<String> = "--workload cosim-mesh256 --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("cosim-mesh256", 7, 3, true)
        );
        assert!(parse_args(&["--bogus".into(), "1".into()]).is_err());
        assert!(parse_args(&["--seed".into(), "x".into()]).is_err());
    }

    #[test]
    fn json_helpers_escape_and_never_emit_nan() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(1.25), "1.25");
    }

    /// `BENCHMARK.json` must list exactly the metrics the harness prints,
    /// with the same units, and only workloads the harness knows.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&fs::read_to_string(path).unwrap()).unwrap();
        let items = |key: &str| match json.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => panic!("{key} missing"),
        };
        let text =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).unwrap().to_string();
        let listed = |key: &str| -> Vec<(String, String)> {
            items(key)
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect()
        };
        let printed = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), printed(END_TO_END));
        assert_eq!(listed("per_layer"), printed(LAYER_METRICS));
        for w in items("workloads") {
            let name = text(&w, "name");
            assert!(
                name == serve::NAME || COSIM.iter().any(|c| c.name == name),
                "{name}"
            );
        }
    }
}
