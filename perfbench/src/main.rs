//! End-to-end and per-layer benchmark of the Fleche embedding cache.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot-skew|cold-flat|update-mix|serve-open> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run prints the host stamp, one `metric` line per measured value
//! and, as its last line, a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. With `--trace 0` the JSON carries the
//! end-to-end metrics; with `--trace 1` the per-layer metrics, and the
//! host spans plus a sample of the simulated device timeline are written
//! to `.bench_out/`. `perfbench/README.md` describes the workloads and
//! metrics.

mod closed;
mod oracle;
mod reference;
mod served;
mod trace;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use fleche_gpu::{Category, Gpu};

/// End-to-end metrics in the JSON of an untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_samples_per_ref", "1/ref"),
    ("host_batch_p50_ref", "ref"),
    ("host_batch_p90_ref", "ref"),
    ("sim_samples_per_s", "1/s"),
    ("sim_req_p50_us", "us"),
    ("sim_req_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics in the JSON of a traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.next_batch_ms", "ms"),
    ("workload.ids_per_batch", "count"),
    ("store.dedup_ms", "ms"),
    ("store.dup_factor", "ratio"),
    ("store.sim_dram_index_us", "us"),
    ("store.sim_dram_payload_us", "us"),
    ("core.query_ms", "ms"),
    ("core.evict_passes_per_batch", "count"),
    ("core.hit_rate", "ratio"),
    ("core.unified_hit_rate", "ratio"),
    ("core.miss_rate", "ratio"),
    ("core.sim_cache_index_us", "us"),
    ("core.sim_other_us", "us"),
    ("core.cache_utilization", "ratio"),
    ("core.device_bytes", "bytes"),
    ("core.torn_rows", "count"),
    ("core.failed_keys", "count"),
    ("core.stale_keys", "count"),
    ("core.corrupt_detected", "count"),
    ("gpu.launches_per_batch", "count"),
    ("gpu.syncs_per_batch", "count"),
    ("gpu.copies_per_batch", "count"),
    ("gpu.device_busy_frac", "ratio"),
    ("gpu.sim_host_compute_us", "us"),
    ("model.mean_batch", "count"),
    ("model.utilization", "ratio"),
    ("bench.verify_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Hit rates of the timed phase's first and last quarters may differ by
/// at most this much (absolute) before the run calls itself unsteady.
pub const STEADY_TOLERANCE: f64 = 0.02;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotSkew,
    ColdFlat,
    UpdateMix,
    ServeOpen,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "hot-skew" => Workload::HotSkew,
            "cold-flat" => Workload::ColdFlat,
            "update-mix" => Workload::UpdateMix,
            "serve-open" => Workload::ServeOpen,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotSkew => "hot-skew",
            Workload::ColdFlat => "cold-flat",
            Workload::UpdateMix => "update-mix",
            Workload::ServeOpen => "serve-open",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <hot-skew|cold-flat|update-mix|serve-open> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=600"));
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything a run measured, plus what it found wrong.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.problem(format!("{name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, u)| (v, u))
    }

    /// The final JSON line, carrying exactly the metrics of `wanted`.
    fn json(&mut self, wanted: &[(&str, &str)]) -> String {
        let mut metrics = String::new();
        for (i, &(name, unit)) in wanted.iter().enumerate() {
            let value = match self.get(name) {
                Some((v, u)) if u == unit => v,
                Some((_, u)) => {
                    self.problem(format!("{name} measured in {u}, declared in {unit}"));
                    0.0
                }
                None => {
                    self.problem(format!("{name} was not measured"));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if value.is_finite() { value } else { 0.0 }
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

/// Launches, syncs and copies on a simulated timeline, and the host
/// compute it charged (idle gaps excluded).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GpuCounts {
    pub launches: u64,
    pub syncs: u64,
    pub copies: u64,
    pub host_compute_ns: f64,
}

impl GpuCounts {
    pub fn of(gpu: &Gpu) -> GpuCounts {
        let mut c = GpuCounts::default();
        for span in gpu.timeline().spans() {
            match span.category {
                Category::Launch => c.launches += 1,
                Category::Sync => c.syncs += 1,
                Category::Copy => c.copies += 1,
                Category::HostCompute if span.label != "idle" => {
                    c.host_compute_ns += span.duration().as_ns()
                }
                _ => {}
            }
        }
        c
    }
}

/// Runs one set-up, recording its wall time in seconds.
pub fn timed<T>(setups: &mut Vec<f64>, setup: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = setup();
    setups.push(t.elapsed().as_secs_f64());
    out
}

impl Report {
    /// The steady-state guard: warm-up must have filled the cache, so the
    /// hit rates at the start and end of the timed phase agree.
    pub fn check_steady(&mut self, first: f64, last: f64, part: &str) {
        println!("steady hit rate first {part} {first:.4} last {part} {last:.4}");
        if (first - last).abs() > STEADY_TOLERANCE {
            self.problem(format!(
                "steady-state guard: hit rate {first:.4} in the first {part} vs {last:.4} in \
                 the last differs by more than {STEADY_TOLERANCE}"
            ));
        }
    }
}

/// `q`-quantile by nearest rank, the rule `fleche_model::LatencyRecorder`
/// uses.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    sorted[((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1)]
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Peak resident set (VmHWM) of this process in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The host every number of this run belongs to.
pub fn host_stamp() -> String {
    format!(
        "fingerprint={} nproc={} simd={}",
        fleche_bench::host_fingerprint(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        fleche_simd::simd_level()
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let stamp = host_stamp();
    println!("host {stamp}");
    println!(
        "run workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    if let Err(e) = oracle::self_test() {
        eprintln!("perfbench: oracle self-test failed: {e}");
        std::process::exit(1);
    }

    let mut report = Report::default();
    match args.workload {
        Workload::ServeOpen => served::run(&args, &stamp, &mut report),
        w => closed::run(w, &args, &stamp, &mut report),
    }
    match peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "MB"),
        None => report.problem("VmHWM is unreadable".into()),
    }
    if report.attempted == 0 {
        report.problem("no row or request was checked".into());
    }
    report.metric(
        "failed_fraction",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );

    for (name, value, unit) in &report.metrics {
        println!("metric {name} {value} {unit}");
    }
    let line = report.json(if args.trace { PER_LAYER } else { END_TO_END });
    for p in &report.problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    let ok = report.problems.is_empty() && report.failed == 0;
    println!("{line}");
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (name, unit) pairs of one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let start = doc
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let rest = &entry[at..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("closed string");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn args_are_checked() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload cold-flat --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::ColdFlat);
        assert_eq!((a.seed, a.seconds.as_secs(), a.trace), (7, 3, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload hot-skew --seed 1 --seconds 0 --trace 0",
            "--workload hot-skew --seed 1 --seconds 1 --trace 2",
            "--workload hot-skew --seed 1 --seconds 1",
            "--workload hot-skew --seed x --seconds 1 --trace 0",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_line_has_exactly_the_wanted_metrics() {
        let mut r = Report {
            attempted: 10,
            ..Report::default()
        };
        r.metric("setup_s", 1.25, "s");
        r.metric("extra", 3.0, "count");
        let line = r.json(&[("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        let line = r.json(&[("missing", "s")]);
        assert!(line.starts_with("{\"correct\": false"));
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.99), 100.0);
        assert_eq!(quantile(&[3.0], 0.95), 3.0);
    }
}
