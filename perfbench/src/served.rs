//! `serve-open`: open-loop Poisson arrivals through `fleche_model::serve`.
//!
//! Independent users send on a schedule, so the batcher forms small,
//! variable batches and a queue builds as the offered load nears the
//! simulated capacity (about 955k requests/s). Each run walks a fixed
//! ladder of offered loads; the first walk gives the simulated numbers,
//! and walks repeat until the time budget is spent for the host numbers.
//! `serve` fixes its arrival seed and drops served rows, so only the trace
//! varies with `--seed` and correctness is served == offered with no
//! failed key.

use std::time::{Duration, Instant};

use fleche_bench::concat_dim;
use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::{to_chrome_trace, DeviceSpec, DramSpec, Gpu, Ns};
use fleche_model::{serve, DenseModel, InferenceEngine, ModelMode, ServedRun, ServerConfig};
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::{CpuStore, Deduped};
use fleche_workload::{spec, TraceGenerator};

use crate::reference::Reference;
use crate::trace::{write_chrome_trace, Tracer};
use crate::{mean, quantile, timed, Args, GpuCounts, Report, SETUPS};

/// Offered loads in requests per second: the latency ladder, then an
/// overload far past capacity whose achieved rate is the capacity.
const WALK: [f64; 7] = [250e3, 500e3, 600e3, 700e3, 800e3, 900e3, 4e6];
const OVERLOAD: usize = WALK.len() - 1;
/// The rate at which request latency is reported.
const REFERENCE: usize = 2;
/// The latency limit `sim_max_rate_at_slo` holds the p99 to.
const SLO_P99: Ns = Ns(2.4e6);
const REQUESTS_PER_CALL: usize = 8_192;
const MAX_BATCH: usize = 4_096;
const WARMUP_BATCHES: u64 = 240;
const WARMUP_BATCH: usize = 256;
/// Ladder rungs replayed on a second same-seed instance with tracing
/// flipped.
const CHECK_RUNGS: usize = 2;
/// Simulated span of the first call whose device timeline goes into the
/// trace file.
const DEVICE_WINDOW: Ns = Ns(200e3);
/// Reference kernel runs after each `serve` call (~7% of a call's time).
const REFERENCE_RUNS: usize = 4;

struct Instance {
    eng: InferenceEngine<FlecheSystem>,
    gen: TraceGenerator,
}

/// Per-batch layer numbers from the warm-up's second half, where the
/// program's stages are reachable from outside (`serve` runs them
/// internally).
#[derive(Default)]
struct WarmLayers {
    batches: u64,
    accesses: u64,
    unique: u64,
    hits: u64,
    unified: u64,
    misses: u64,
    failed_keys: u64,
    stale_keys: u64,
    corrupt: u64,
    evict_passes: u64,
    dram_index: Ns,
    dram_payload: Ns,
    cache_index: Ns,
    cache_copy: Ns,
    other: Ns,
}

/// Construction plus warm-up: what `setup_s` measures. Warm-up goes
/// through the same calls as the closed-loop workloads, so the layer
/// spans exist here too.
fn setup(seed: u64, tr: &mut Tracer, layers: &mut WarmLayers) -> Instance {
    let mut ds = spec::avazu();
    ds.seed = seed;
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let sys = FlecheSystem::new(&ds, store, FlecheConfig::full(0.05));
    let dense = DenseModel::dcn_paper(concat_dim(&ds));
    let mut eng =
        InferenceEngine::new(Gpu::new(DeviceSpec::t4()), sys, dense, ModelMode::Full, &ds);
    let mut gen = TraceGenerator::new(&ds);
    for b in 0..WARMUP_BATCHES {
        let batch = tr.span("workload.next_batch", b, || gen.next_batch(WARMUP_BATCH));
        let dedup = tr.span("store.dedup", b, || Deduped::from_batch(&batch));
        let (sys, gpu) = eng.system_and_gpu_mut();
        let evict0 = sys.cache().evict_passes();
        let out = tr.span("core.query", b, || {
            sys.query_batch_prepared(gpu, &batch, dedup)
        });
        gpu.clear_timeline();
        if b >= WARMUP_BATCHES / 2 {
            let st = &out.stats;
            layers.batches += 1;
            layers.accesses += batch.total_ids() as u64;
            layers.unique += st.unique_keys;
            layers.hits += st.hits;
            layers.unified += st.unified_hits;
            layers.misses += st.misses;
            layers.failed_keys += st.failed_keys;
            layers.stale_keys += st.stale_keys;
            layers.corrupt += st.corrupt_detected;
            layers.evict_passes += sys.cache().evict_passes() - evict0;
            layers.dram_index += st.phases.dram_index;
            layers.dram_payload += st.phases.dram_payload;
            layers.cache_index += st.phases.cache_index;
            layers.cache_copy += st.phases.cache_copy;
            layers.other += st.phases.other;
        }
    }
    eng.system_mut().reset_stats();
    Instance { eng, gen }
}

/// The simulated outcome of one `serve` call: everything that must repeat
/// exactly for the same seed, traced or not.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Rung {
    rate: f64,
    offered: u64,
    served: u64,
    achieved: f64,
    mean_batch: f64,
    utilization: f64,
    p50_ns: f64,
    p99_ns: f64,
    unique: u64,
    hits: u64,
    failed_keys: u64,
    stale_keys: u64,
    batches: u64,
    gpu: GpuCounts,
    device_busy_ns: f64,
    elapsed_ns: f64,
}

impl Rung {
    fn from_run(rate: f64, run: &ServedRun, gpu: &Gpu, from: Ns) -> Rung {
        Rung {
            rate,
            offered: run.offered,
            served: run.served,
            achieved: run.achieved,
            mean_batch: run.mean_batch,
            utilization: run.utilization,
            p50_ns: run.latency.median().as_ns(),
            p99_ns: run.latency.p99().as_ns(),
            unique: run.lifetime.unique_keys,
            hits: run.lifetime.hits,
            failed_keys: run.lifetime.failed_keys,
            stale_keys: run.lifetime.stale_keys,
            batches: run.lifetime.batches,
            gpu: GpuCounts::of(gpu),
            device_busy_ns: gpu.device_busy(from, gpu.now()).as_ns(),
            elapsed_ns: (gpu.now() - from).as_ns(),
        }
    }

    fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.unique.max(1) as f64
    }

    /// Every request is served (no queue bound, no deadline), so a
    /// growing backlog shows as a growing p99 within the call. Achieved
    /// over offered is no test here: the drain after the last arrival
    /// biases it low by several percent on a call of 8192 requests.
    fn meets_slo(&self) -> bool {
        self.served == self.offered && self.p99_ns <= SLO_P99.as_ns()
    }
}

struct Pass {
    /// Every call in order; the first `WALK.len()` are the first walk.
    rungs: Vec<Rung>,
    host_s: Vec<f64>,
    /// The reference kernel's times after each call.
    ref_ms: Vec<f64>,
    /// Requests offered, and those not served or served with a failed or
    /// stale key.
    attempted: u64,
    failed: u64,
    device_trace: Vec<String>,
}

/// Calls `serve` up the ladder until at least `min_calls` calls ran and
/// `budget` elapsed; a non-zero budget ends on a whole walk.
fn run_pass(inst: &mut Instance, tr: &mut Tracer, min_calls: usize, budget: Duration) -> Pass {
    let mut pass = Pass {
        rungs: Vec::new(),
        host_s: Vec::new(),
        ref_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        device_trace: Vec::new(),
    };
    let mut reference = Reference::new();
    let started = Instant::now();
    let mut call = 0usize;
    while call < min_calls
        || started.elapsed() < budget
        || (!budget.is_zero() && !call.is_multiple_of(WALK.len()))
    {
        let rate = WALK[call % WALK.len()];
        let config = ServerConfig {
            offered_load: rate,
            max_batch: MAX_BATCH,
            requests: REQUESTS_PER_CALL,
            warmup_requests: 0,
            queue_capacity: None,
            deadline: None,
        };
        let from = inst.eng.gpu().now();
        let t0 = Instant::now();
        let run = tr.span("model.serve", call as u64, || {
            serve(&mut inst.eng, &mut inst.gen, &config)
        });
        pass.host_s.push(t0.elapsed().as_secs_f64());
        let failed = tr.span("bench.verify", call as u64, || {
            let unserved = run.offered - run.served.min(run.offered);
            let bad_keys = run.lifetime.failed_keys + run.lifetime.stale_keys;
            unserved.max(u64::from(bad_keys > 0) * run.offered)
        });
        pass.attempted += run.offered;
        pass.failed += failed;
        let gpu = inst.eng.gpu();
        pass.rungs.push(Rung::from_run(rate, &run, gpu, from));
        if tr.enabled() && call == 0 {
            pass.device_trace
                .push(to_chrome_trace(gpu.timeline(), from, from + DEVICE_WINDOW));
        }
        inst.eng.gpu_mut().clear_timeline();
        for _ in 0..REFERENCE_RUNS {
            reference.run();
        }
        call += 1;
    }
    pass.ref_ms = reference.times_ms;
    pass
}

pub fn run(args: &Args, stamp: &str, report: &mut Report) {
    let walk = WALK.len();
    let mut setups = Vec::new();
    let mut layers = WarmLayers::default();

    let mut tr = Tracer::new(args.trace);
    let mut inst = timed(&mut setups, || setup(args.seed, &mut tr, &mut layers));
    let cache_utilization = inst.eng.system().cache().effective_utilization();
    let device_bytes = inst.eng.system().cache().device_bytes() as f64;
    let main = run_pass(&mut inst, &mut tr, 2 * walk, args.seconds);
    drop(inst);

    let mut flipped = Tracer::new(!args.trace);
    let mut inst = timed(&mut setups, || {
        setup(args.seed, &mut flipped, &mut WarmLayers::default())
    });
    let check = run_pass(&mut inst, &mut flipped, CHECK_RUNGS, Duration::ZERO);
    drop(inst);
    while setups.len() < SETUPS {
        let quiet = &mut Tracer::new(false);
        drop(timed(&mut setups, || {
            setup(args.seed, quiet, &mut WarmLayers::default())
        }));
    }
    if let Some(i) = (0..CHECK_RUNGS).find(|&i| main.rungs[i] != check.rungs[i]) {
        report.problem(format!(
            "determinism: serve call {i} differs between two same-seed runs \
             (traced={}): {:?} vs {:?}",
            args.trace, main.rungs[i], check.rungs[i]
        ));
    }

    // Steady state: each rung's hit rate in the first walk vs the last.
    let rates = |v: &[Rung]| mean(&v.iter().map(Rung::hit_rate).collect::<Vec<_>>());
    report.check_steady(
        rates(&main.rungs[..walk]),
        rates(&main.rungs[main.rungs.len() - walk..]),
        "walk",
    );

    report.attempted += main.attempted;
    report.failed += main.failed;
    println!("oracle requests={} failed={}", main.attempted, main.failed);

    // ---- End to end -------------------------------------------------
    let offered: u64 = main.rungs.iter().map(|r| r.offered).sum();
    let host_s: f64 = main.host_s.iter().sum();
    // Host time per 1024 offered requests, the closed loop's batch.
    let per_1024_ms: Vec<f64> = main
        .host_s
        .iter()
        .zip(&main.rungs)
        .map(|(s, r)| s * 1e3 * 1024.0 / r.offered as f64)
        .collect();
    let first_walk = &main.rungs[..walk];
    let reference = &first_walk[REFERENCE];
    report.metric("setup_s", quantile(&setups, 0.5), "s");
    report.host_metrics(&per_1024_ms, host_s * 1e3, offered, &main.ref_ms);
    report.metric("host_us_per_req", host_s * 1e6 / offered as f64, "us");
    report.metric("sim_samples_per_s", first_walk[OVERLOAD].achieved, "1/s");
    report.metric("sim_req_p50_us", reference.p50_ns / 1e3, "us");
    report.metric("sim_req_p99_us", reference.p99_ns / 1e3, "us");
    let max_rate = first_walk[..OVERLOAD]
        .iter()
        .filter(|r| r.meets_slo())
        .map(|r| r.rate)
        .fold(0.0, f64::max);
    report.metric("sim_max_rate_at_slo", max_rate, "1/s");
    report.metric("timed_calls", main.rungs.len() as f64, "count");

    // ---- Per layer --------------------------------------------------
    let n = layers.batches as f64;
    let unique = layers.unique as f64;
    report.metric(
        "workload.ids_per_batch",
        layers.accesses as f64 / n,
        "count",
    );
    report.metric("store.dup_factor", layers.accesses as f64 / unique, "ratio");
    report.metric(
        "store.sim_dram_index_us",
        layers.dram_index.as_us() / n,
        "us",
    );
    report.metric(
        "store.sim_dram_payload_us",
        layers.dram_payload.as_us() / n,
        "us",
    );
    report.metric(
        "core.evict_passes_per_batch",
        layers.evict_passes as f64 / n,
        "count",
    );
    report.metric("core.hit_rate", layers.hits as f64 / unique, "ratio");
    report.metric(
        "core.unified_hit_rate",
        layers.unified as f64 / unique,
        "ratio",
    );
    report.metric("core.miss_rate", layers.misses as f64 / unique, "ratio");
    report.metric(
        "core.sim_cache_index_us",
        layers.cache_index.as_us() / n,
        "us",
    );
    report.metric(
        "core.sim_cache_copy_us",
        layers.cache_copy.as_us() / n,
        "us",
    );
    report.metric("core.sim_other_us", layers.other.as_us() / n, "us");
    report.metric("core.cache_utilization", cache_utilization, "ratio");
    report.metric("core.device_bytes", device_bytes, "bytes");
    // `serve` drops the rows, so no row is checked and none is torn.
    report.metric("core.torn_rows", 0.0, "count");
    let failed: u64 = first_walk.iter().map(|r| r.failed_keys).sum();
    let stale: u64 = first_walk.iter().map(|r| r.stale_keys).sum();
    report.metric(
        "core.failed_keys",
        (layers.failed_keys + failed) as f64,
        "count",
    );
    report.metric(
        "core.stale_keys",
        (layers.stale_keys + stale) as f64,
        "count",
    );
    report.metric("core.corrupt_detected", layers.corrupt as f64, "count");
    let batches: u64 = first_walk.iter().map(|r| r.batches).sum();
    let per_batch = |f: fn(&Rung) -> f64| first_walk.iter().map(f).sum::<f64>() / batches as f64;
    report.metric(
        "gpu.launches_per_batch",
        per_batch(|r| r.gpu.launches as f64),
        "count",
    );
    report.metric(
        "gpu.syncs_per_batch",
        per_batch(|r| r.gpu.syncs as f64),
        "count",
    );
    report.metric(
        "gpu.copies_per_batch",
        per_batch(|r| r.gpu.copies as f64),
        "count",
    );
    let elapsed: f64 = first_walk.iter().map(|r| r.elapsed_ns).sum();
    report.metric(
        "gpu.device_busy_frac",
        first_walk.iter().map(|r| r.device_busy_ns).sum::<f64>() / elapsed,
        "ratio",
    );
    report.metric(
        "gpu.sim_host_compute_us",
        per_batch(|r| r.gpu.host_compute_ns) / 1e3,
        "us",
    );
    report.metric("model.mean_batch", reference.mean_batch, "count");
    report.metric("model.utilization", reference.utilization, "ratio");
    report.metric("model.serve_s", mean(&main.host_s), "s");
    for r in &first_walk[..OVERLOAD] {
        report.metric(
            format!("model.req_p99_us.{}k", r.rate / 1e3),
            r.p99_ns / 1e3,
            "us",
        );
    }

    let (traced, traced_host, untraced_host) = if args.trace {
        (&tr, &main.host_s, &check.host_s)
    } else {
        (&flipped, &check.host_s, &main.host_s)
    };
    let times = traced.layer_times(|b| b >= WARMUP_BATCHES / 2);
    let ms = |name: &str| times.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6 / n);
    report.metric("workload.next_batch_ms", ms("workload.next_batch"), "ms");
    report.metric("store.dedup_ms", ms("store.dedup"), "ms");
    report.metric("core.query_ms", ms("core.query"), "ms");
    let verify = traced.layer_times(|_| true)["bench.verify"];
    report.metric(
        "bench.verify_ms",
        verify.self_ns as f64 / 1e6 / verify.count as f64,
        "ms",
    );
    let head = |v: &[f64]| v[..CHECK_RUNGS].iter().sum::<f64>();
    report.metric(
        "trace.overhead_frac",
        head(traced_host) / head(untraced_host) - 1.0,
        "ratio",
    );

    if args.trace {
        let file = format!("serve-open-seed{}.trace.json", args.seed);
        match write_chrome_trace(&file, &tr, &main.device_trace, stamp) {
            Ok(path) => println!("wrote {path} ({} host spans)", tr.spans().len()),
            Err(e) => report.problem(format!("writing the trace: {e}")),
        }
    }
}
