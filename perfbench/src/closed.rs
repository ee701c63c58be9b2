//! Closed-loop workloads: one client sends its next batch of 1024 samples
//! when the previous one completes.
//!
//! They drive the cache trait directly in embedding-only mode, because
//! `InferenceEngine` drops the served rows and the oracle must see them.
//! The serving path a batch pays for is staging updates
//! (`FlecheSystem::{commit_updates, push_updates}`), `Deduped::from_batch`
//! and `EmbeddingCacheSystem::query_batch_prepared`; trace generation and
//! the oracle run outside it.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::{to_chrome_trace, DeviceSpec, DramSpec, Gpu};
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::{CpuStore, Deduped, UpdatePush, UpdateStream};
use fleche_workload::{spec, TraceGenerator, WorkloadStats};

use crate::oracle::{RowCheck, RowOracle};
use crate::reference::Reference;
use crate::trace::{write_chrome_trace, Tracer};
use crate::{mean, quantile, timed, Args, GpuCounts, Report, Workload, SETUPS};

const BATCH: usize = 1024;
/// Batches replayed on a second same-seed instance, with tracing flipped,
/// to check determinism and measure tracing overhead.
const CHECK_BATCHES: usize = 24;
/// Batches whose simulated device timeline goes into the trace file.
const DEVICE_SAMPLE: u64 = 3;

struct Shape {
    alpha: f64,
    cache_fraction: f64,
    /// Trainer pushes staged before each batch (0: read-only).
    pushes_per_batch: usize,
    warmup_batches: usize,
    /// Leading batches of the timed phase whose simulated numbers and
    /// counts are reported. They always run in full, so those numbers do
    /// not depend on host speed.
    sim_batches: usize,
}

fn shape(w: Workload) -> Shape {
    match w {
        Workload::HotSkew => Shape {
            alpha: -1.5,
            cache_fraction: 0.01,
            pushes_per_batch: 0,
            warmup_batches: 150,
            sim_batches: 160,
        },
        Workload::ColdFlat => Shape {
            alpha: -0.9,
            cache_fraction: 0.01,
            pushes_per_batch: 0,
            warmup_batches: 40,
            sim_batches: 80,
        },
        // About one trainer push per ten row reads.
        Workload::UpdateMix => Shape {
            pushes_per_batch: 4096,
            ..shape(Workload::HotSkew)
        },
        Workload::ServeOpen => unreachable!("serve-open is an open-loop workload"),
    }
}

struct Updates {
    stream: UpdateStream,
    hot: Vec<(u16, u64)>,
    per_batch: usize,
}

struct Instance {
    sys: FlecheSystem,
    gpu: Gpu,
    gen: TraceGenerator,
    updates: Option<Updates>,
}

/// Construction plus warm-up: what `setup_s` measures.
fn setup(s: &Shape, seed: u64) -> Instance {
    let mut ds = spec::synthetic(40, 250_000, 32, s.alpha);
    ds.seed = seed;
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let mut sys = FlecheSystem::new(&ds, store, FlecheConfig::full(s.cache_fraction));
    let mut gpu = Gpu::new(DeviceSpec::t4());
    let mut gen = TraceGenerator::new(&ds);
    let mut seen = WorkloadStats::new();
    for _ in 0..s.warmup_batches {
        let batch = gen.next_batch(BATCH);
        if s.pushes_per_batch > 0 {
            seen.observe(&batch);
        }
        sys.query_batch(&mut gpu, &batch);
    }
    sys.reset_stats();
    gpu.clear_timeline();
    // The trainer re-embeds the keys serving touches, hottest first.
    let updates = (s.pushes_per_batch > 0).then(|| Updates {
        stream: UpdateStream::new(&ds, seed),
        hot: seen.update_candidates(8_192, 2),
        per_batch: s.pushes_per_batch,
    });
    Instance {
        sys,
        gpu,
        gen,
        updates,
    }
}

/// Simulated outcome of one batch: everything that must repeat exactly
/// for the same seed, traced or not.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct SimBatch {
    /// Simulated time of staging plus query.
    path_ns: f64,
    /// `BatchStats::wall`: the batch's latency, which each of its
    /// requests sees.
    wall_ns: f64,
    cache_index_ns: f64,
    cache_copy_ns: f64,
    dram_index_ns: f64,
    dram_payload_ns: f64,
    other_ns: f64,
    accesses: u64,
    unique: u64,
    hits: u64,
    unified: u64,
    misses: u64,
    failed_keys: u64,
    stale_keys: u64,
    corrupt: u64,
    evict_passes: u64,
    gpu: GpuCounts,
    device_busy_ns: f64,
}

impl SimBatch {
    fn hit_rate(&self) -> f64 {
        self.hits as f64 / self.unique.max(1) as f64
    }
}

struct Pass {
    sim: Vec<SimBatch>,
    host_ms: Vec<f64>,
    /// The reference kernel's time after each batch.
    ref_ms: Vec<f64>,
    /// Oracle result of each batch.
    rows: Vec<RowCheck>,
    /// Cache state after the first `sim_batches`.
    cache_utilization: f64,
    device_bytes: f64,
    device_trace: Vec<String>,
}

/// Runs batches until at least `min_batches` ran and `budget` elapsed.
fn run_pass(
    inst: &mut Instance,
    tr: &mut Tracer,
    min_batches: usize,
    budget: Duration,
    oracle: &mut RowOracle,
) -> Pass {
    let mut pass = Pass {
        sim: Vec::new(),
        host_ms: Vec::new(),
        ref_ms: Vec::new(),
        rows: Vec::new(),
        cache_utilization: 0.0,
        device_bytes: 0.0,
        device_trace: Vec::new(),
    };
    let Instance {
        sys,
        gpu,
        gen,
        updates,
    } = inst;
    let mut reference = Reference::new();
    let started = Instant::now();
    let mut b = 0u64;
    while (b as usize) < min_batches || started.elapsed() < budget {
        let batch = tr.span("workload.next_batch", b, || gen.next_batch(BATCH));
        let pushes: Vec<UpdatePush> = match updates {
            Some(u) => tr.span("workload.next_burst", b, || {
                u.stream.next_burst_from(&u.hot, u.per_batch)
            }),
            None => Vec::new(),
        };
        let sim0 = gpu.now();
        let evict0 = sys.cache().evict_passes();

        let t0 = Instant::now();
        tr.enter("bench.serve_path", b);
        if !pushes.is_empty() {
            tr.span("core.stage_updates", b, || {
                sys.commit_updates(gpu, &pushes);
                sys.push_updates(gpu, &pushes);
            });
        }
        let dedup = tr.span("store.dedup", b, || Deduped::from_batch(&batch));
        let out = tr.span("core.query", b, || {
            sys.query_batch_prepared(gpu, &batch, dedup)
        });
        tr.exit();
        pass.host_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        let sim1 = gpu.now();
        let st = &out.stats;
        let rec = SimBatch {
            path_ns: (sim1 - sim0).as_ns(),
            wall_ns: st.wall.as_ns(),
            cache_index_ns: st.phases.cache_index.as_ns(),
            cache_copy_ns: st.phases.cache_copy.as_ns(),
            dram_index_ns: st.phases.dram_index.as_ns(),
            dram_payload_ns: st.phases.dram_payload.as_ns(),
            other_ns: st.phases.other.as_ns(),
            accesses: batch.total_ids() as u64,
            unique: st.unique_keys,
            hits: st.hits,
            unified: st.unified_hits,
            misses: st.misses,
            failed_keys: st.failed_keys,
            stale_keys: st.stale_keys,
            corrupt: st.corrupt_detected,
            evict_passes: sys.cache().evict_passes() - evict0,
            gpu: GpuCounts::of(gpu),
            device_busy_ns: gpu.device_busy(sim0, sim1).as_ns(),
        };
        if tr.enabled() && b < DEVICE_SAMPLE {
            pass.device_trace
                .push(to_chrome_trace(gpu.timeline(), sim0, sim1));
        }
        gpu.clear_timeline();
        pass.sim.push(rec);

        let check = tr.span("bench.verify", b, || match updates {
            Some(u) => {
                // A hit on a key pushed in this burst still carries the
                // version from before it: pushes apply after the batch.
                let mut before: HashMap<(u16, u64), u64> = HashMap::new();
                for p in &pushes {
                    before.entry((p.table, p.id)).or_insert(p.version - 1);
                }
                oracle.check(&batch, &out.rows, |t, id| {
                    (u.stream.version_of(t, id), before.get(&(t, id)).copied())
                })
            }
            None => oracle.check(&batch, &out.rows, |_, _| (0, None)),
        });
        pass.rows.push(check);
        if pass.sim.len() == min_batches {
            pass.cache_utilization = sys.cache().effective_utilization();
            pass.device_bytes = sys.cache().device_bytes() as f64;
        }
        reference.run();
        b += 1;
    }
    pass.ref_ms = reference.times_ms;
    pass
}

pub fn run(w: Workload, args: &Args, stamp: &str, report: &mut Report) {
    let s = shape(w);
    let k = s.sim_batches;
    let mut setups = Vec::new();

    let mut tr = Tracer::new(args.trace);
    let mut oracle = RowOracle::default();
    let mut inst = timed(&mut setups, || setup(&s, args.seed));
    let main = run_pass(&mut inst, &mut tr, k, args.seconds, &mut oracle);
    drop(inst);

    // The same seed on a fresh instance, with tracing flipped, must
    // reproduce every simulated number of the leading batches.
    // It runs the oracle too, so both passes meet the same CPU caches.
    let mut flipped = Tracer::new(!args.trace);
    let mut inst = timed(&mut setups, || setup(&s, args.seed));
    let check = run_pass(
        &mut inst,
        &mut flipped,
        CHECK_BATCHES,
        Duration::ZERO,
        &mut RowOracle::default(),
    );
    drop(inst);
    while setups.len() < SETUPS {
        drop(timed(&mut setups, || setup(&s, args.seed)));
    }
    let same = |i: usize| main.sim[i] == check.sim[i] && main.rows[i] == check.rows[i];
    if let Some(i) = (0..CHECK_BATCHES).find(|&i| !same(i)) {
        report.problem(format!(
            "determinism: batch {i} differs between two same-seed runs \
             (traced={}): {:?} {:?} vs {:?} {:?}",
            args.trace, main.sim[i], main.rows[i], check.sim[i], check.rows[i]
        ));
    }

    let q = main.sim.len() / 4;
    let rate = |v: &[SimBatch]| mean(&v.iter().map(SimBatch::hit_rate).collect::<Vec<_>>());
    report.check_steady(
        rate(&main.sim[..q]),
        rate(&main.sim[main.sim.len() - q..]),
        "quarter",
    );
    report.metric("timed_batches", main.sim.len() as f64, "count");

    let total = |v: &[RowCheck]| {
        let mut sum = RowCheck::default();
        v.iter().for_each(|c| sum.add(c));
        sum
    };
    let (rows, window) = (total(&main.rows), total(&main.rows[..k]));
    report.attempted += rows.rows;
    report.failed += rows.failed();
    println!(
        "oracle rows={} wrong={} regressed={}",
        rows.rows, rows.wrong, rows.regressed
    );

    // ---- End to end -------------------------------------------------
    let n = main.host_ms.len();
    let host_s: f64 = main.host_ms.iter().sum::<f64>() / 1e3;
    let win = &main.sim[..k];
    let sum = |f: fn(&SimBatch) -> f64| win.iter().map(f).sum::<f64>();
    let walls_us: Vec<f64> = win.iter().map(|r| r.wall_ns / 1e3).collect();
    let sim_path_s = sum(|r| r.path_ns) / 1e9;
    report.metric("setup_s", quantile(&setups, 0.5), "s");
    report.host_metrics(
        &main.host_ms,
        host_s * 1e3,
        (n * BATCH) as u64,
        &main.ref_ms,
    );
    report.metric("sim_samples_per_s", (k * BATCH) as f64 / sim_path_s, "1/s");
    report.metric("sim_req_p50_us", quantile(&walls_us, 0.5), "us");
    report.metric("sim_req_p99_us", quantile(&walls_us, 0.99), "us");
    report.metric("sim_batch_p50_us", quantile(&walls_us, 0.5), "us");
    report.metric("sim_batch_p95_us", quantile(&walls_us, 0.95), "us");
    report.metric(
        "host_to_sim_ratio",
        host_s / n as f64 / (sim_path_s / k as f64),
        "ratio",
    );
    if s.pushes_per_batch > 0 {
        report.metric(
            "update_lag_versions",
            window.lag_sum as f64 / window.pushed_rows.max(1) as f64,
            "versions",
        );
    }

    // ---- Per layer --------------------------------------------------
    let per_batch = |f: fn(&SimBatch) -> f64| sum(f) / k as f64;
    let unique = sum(|r| r.unique as f64);
    report.metric(
        "workload.ids_per_batch",
        per_batch(|r| r.accesses as f64),
        "count",
    );
    report.metric(
        "store.dup_factor",
        sum(|r| r.accesses as f64) / unique,
        "ratio",
    );
    report.metric(
        "store.sim_dram_index_us",
        per_batch(|r| r.dram_index_ns) / 1e3,
        "us",
    );
    report.metric(
        "store.sim_dram_payload_us",
        per_batch(|r| r.dram_payload_ns) / 1e3,
        "us",
    );
    report.metric(
        "core.evict_passes_per_batch",
        per_batch(|r| r.evict_passes as f64),
        "count",
    );
    report.metric("core.hit_rate", sum(|r| r.hits as f64) / unique, "ratio");
    report.metric(
        "core.unified_hit_rate",
        sum(|r| r.unified as f64) / unique,
        "ratio",
    );
    report.metric("core.miss_rate", sum(|r| r.misses as f64) / unique, "ratio");
    report.metric(
        "core.sim_cache_index_us",
        per_batch(|r| r.cache_index_ns) / 1e3,
        "us",
    );
    report.metric(
        "core.sim_cache_copy_us",
        per_batch(|r| r.cache_copy_ns) / 1e3,
        "us",
    );
    report.metric("core.sim_other_us", per_batch(|r| r.other_ns) / 1e3, "us");
    report.metric("core.cache_utilization", main.cache_utilization, "ratio");
    report.metric("core.device_bytes", main.device_bytes, "bytes");
    report.metric("core.torn_rows", window.wrong as f64, "count");
    report.metric("core.failed_keys", sum(|r| r.failed_keys as f64), "count");
    report.metric("core.stale_keys", sum(|r| r.stale_keys as f64), "count");
    report.metric("core.corrupt_detected", sum(|r| r.corrupt as f64), "count");
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
    report.metric(
        "gpu.device_busy_frac",
        sum(|r| r.device_busy_ns) / sum(|r| r.path_ns),
        "ratio",
    );
    report.metric(
        "gpu.sim_host_compute_us",
        per_batch(|r| r.gpu.host_compute_ns) / 1e3,
        "us",
    );
    // The closed loop's "batcher" always sends full batches and the
    // engine is busy except while updates are staged.
    report.metric("model.mean_batch", BATCH as f64, "count");
    report.metric(
        "model.utilization",
        sum(|r| r.wall_ns) / sum(|r| r.path_ns),
        "ratio",
    );

    // Host layer self times come from whichever pass was traced; the
    // other pass over the same leading batches gives the tracing overhead.
    let (traced, traced_host, untraced_host) = if args.trace {
        (&tr, &main.host_ms, &check.host_ms)
    } else {
        (&flipped, &check.host_ms, &main.host_ms)
    };
    let times = traced.layer_times(|_| true);
    let batches = traced_host.len() as f64;
    let ms = |name: &str| {
        times
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e6 / batches)
    };
    report.metric("workload.next_batch_ms", ms("workload.next_batch"), "ms");
    report.metric("store.dedup_ms", ms("store.dedup"), "ms");
    report.metric("core.query_ms", ms("core.query"), "ms");
    if s.pushes_per_batch > 0 {
        report.metric("workload.next_burst_ms", ms("workload.next_burst"), "ms");
        report.metric("core.stage_updates_ms", ms("core.stage_updates"), "ms");
    }
    report.metric("bench.serve_path_self_ms", ms("bench.serve_path"), "ms");
    report.metric("bench.verify_ms", ms("bench.verify"), "ms");
    let head = |v: &[f64]| quantile(&v[..CHECK_BATCHES], 0.5);
    report.metric(
        "trace.overhead_frac",
        head(traced_host) / head(untraced_host) - 1.0,
        "ratio",
    );

    if args.trace {
        let file = format!("{}-seed{}.trace.json", w.name(), args.seed);
        match write_chrome_trace(&file, &tr, &main.device_trace, stamp) {
            Ok(path) => println!("wrote {path} ({} host spans)", tr.spans().len()),
            Err(e) => report.problem(format!("writing the trace: {e}")),
        }
    }
}
