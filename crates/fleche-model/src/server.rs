//! Open-loop serving simulation.
//!
//! The paper's throughput-vs-latency curves (Exp #2) come from a loaded
//! inference server, where observed latency is queueing delay plus service
//! time. This module models that: requests arrive in a Poisson stream at a
//! configured offered load, a batcher groups whatever is queued (up to a
//! maximum batch) whenever the engine goes idle, and per-request latency
//! is measured from arrival to batch completion. As offered load
//! approaches the service capacity, queueing inflates the tail — the
//! hockey-stick the paper's Figure 10 plots.
//!
//! Overload protection is optional and off by default: a bounded admission
//! queue rejects arrivals that find it full, and a deadline sheds queued
//! requests that have already waited too long to be worth serving. Both
//! show up in [`ServedRun`]'s shed counters instead of inflating the tail.
//!
//! ## One serving loop
//!
//! Every engine-feedback front-end in this crate runs the window loop
//! here (`drive`): [`serve`], each streaming worker of
//! [`serve_concurrent`](crate::serve_concurrent), and
//! [`serve_multi_tenant`](crate::serve_multi_tenant). They differ only in
//! where arrivals come from and in the admission policy deciding who is
//! queued, shed and batched — first-come-first-served (`Fifo`) here, the
//! tenant quotas in [`crate::admission`]. The linger-mode executor of the
//! concurrent front-end reuses the same execute-and-record step
//! (`Tally::execute`).

use crate::engine::{InferenceEngine, InferenceTiming};
use crate::latency::LatencyRecorder;
use fleche_gpu::Ns;
use fleche_store::api::{EmbeddingCacheSystem, LifetimeStats};
use fleche_workload::{ArrivalGen, Batch, BurstWindow, TraceGenerator};
use std::collections::VecDeque;

/// Seed of the serial arrival stream. [`crate::serve_concurrent`] uses the
/// same seed so its workers replay the identical Poisson process.
pub const ARRIVAL_SEED: u64 = 0x005E_A7ED;

/// The deadline-shedding rule, shared by every batcher: a request sheds
/// when its queueing wait alone — the time from `arrival` to the moment
/// the batch would seal (`seal_at`) — already exceeds `deadline`, so
/// serving it could no longer meet the SLA.
pub fn misses_deadline(seal_at: Ns, arrival: Ns, deadline: Ns) -> bool {
    seal_at.saturating_sub(arrival) > deadline
}

/// Serving configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Offered load in requests (samples) per second.
    pub offered_load: f64,
    /// Maximum samples the batcher packs into one engine invocation.
    pub max_batch: usize,
    /// Requests to simulate (after warm-up).
    pub requests: usize,
    /// Requests used to warm the cache (not measured).
    pub warmup_requests: usize,
    /// Admission queue bound: an arrival that finds this many requests
    /// already waiting is rejected. `None` queues without bound.
    pub queue_capacity: Option<usize>,
    /// Shed a queued request once its wait alone exceeds this (serving it
    /// could no longer meet the SLA). `None` never sheds on age.
    pub deadline: Option<Ns>,
}

/// Result of a serving run.
#[derive(Debug)]
pub struct ServedRun {
    /// Per-request latency (arrival -> completion), served requests only.
    pub latency: LatencyRecorder,
    /// Achieved throughput in samples per second.
    pub achieved: f64,
    /// Mean batch size the batcher formed.
    pub mean_batch: f64,
    /// Fraction of simulated time the engine was busy.
    pub utilization: f64,
    /// Requests offered (arrived) during the measured window.
    pub offered: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests rejected because the admission queue was full.
    pub shed_queue: u64,
    /// Requests shed because they outwaited the deadline.
    pub shed_deadline: u64,
    /// The cache system's lifetime counters over the measured window
    /// (fetch failures, stale serves, corruption detections, degradation).
    pub lifetime: LifetimeStats,
}

impl ServedRun {
    /// Fraction of offered requests that were served *with complete data*:
    /// admitted, run to completion, and not zero-filled by fetch failures.
    pub fn availability(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            (self.served as f64 / self.offered as f64) * self.lifetime.availability()
        }
    }

    /// Fraction of offered requests shed (queue rejection + deadline).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.shed_queue + self.shed_deadline) as f64 / self.offered as f64
        }
    }

    /// Fraction of unique keys served from stale DRAM copies.
    pub fn stale_serve_rate(&self) -> f64 {
        self.lifetime.stale_rate()
    }
}

/// The warm-up every server runs before it measures: `warmup_requests`
/// samples at an easy pace, in batches of `max_batch` capped at 256,
/// dealt round-robin across the tenants' trace generators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Warmup {
    batch: usize,
    batches: usize,
}

impl Warmup {
    /// The warm-up of a server configured with `warmup_requests` and
    /// `max_batch` (which must be positive).
    pub fn new(warmup_requests: usize, max_batch: usize) -> Warmup {
        let batch = max_batch.min(256);
        Warmup {
            batch,
            batches: warmup_requests.div_ceil(batch),
        }
    }

    /// Samples tenant `tenant` of `tenants` draws from its generator.
    pub fn samples(&self, tenant: usize, tenants: usize) -> u64 {
        (self.batches.saturating_sub(tenant).div_ceil(tenants) * self.batch) as u64
    }

    /// Runs the warm-up — tenant `t` draws from `gens[t]` under its own
    /// identity, so tenant-partitioned caches attribute residency
    /// correctly — then resets the system's statistics.
    pub fn run<S: EmbeddingCacheSystem>(
        &self,
        engine: &mut InferenceEngine<S>,
        gens: &mut [TraceGenerator],
    ) {
        for round in 0..self.batches {
            let tenant = round % gens.len();
            engine.system_mut().set_active_tenant(tenant);
            let b = gens[tenant].next_batch(self.batch);
            engine.run_batch(&b);
        }
        engine.system_mut().reset_stats();
    }
}

/// Simulates an open-loop server over `engine`. The engine's own
/// [`crate::ModelMode`] governs what each batch runs.
///
/// Arrival times are generated on a separate clock from the engine's
/// simulated device clock; the server advances the device only when it has
/// work, and idle gaps are skipped (arrival-driven).
pub fn serve<S: EmbeddingCacheSystem>(
    engine: &mut InferenceEngine<S>,
    gen: &mut TraceGenerator,
    config: &ServerConfig,
) -> ServedRun {
    assert!(config.offered_load > 0.0, "offered load must be positive");
    assert!(config.max_batch > 0, "max batch must be positive");
    let gens = std::slice::from_mut(gen);
    Warmup::new(config.warmup_requests, config.max_batch).run(engine, gens);
    let arrivals = arrival_times(ARRIVAL_SEED, config.offered_load, &[], engine.gpu().now())
        .take(config.requests)
        .map(|at| Arrival { at, tenant: 0 });
    drive(engine, gens, arrivals, &mut Fifo::new(config), &mut ())
}

/// The Poisson arrival stream at `load` requests per second, modulated by
/// `bursts`: absolute times accumulated gap by gap from `base`. Every
/// front-end draws its arrivals through this one expression, so streams
/// with the same seed are bit-identical.
pub(crate) fn arrival_times(
    seed: u64,
    load: f64,
    bursts: &[BurstWindow],
    base: Ns,
) -> impl Iterator<Item = Ns> {
    let mut agen =
        ArrivalGen::new(seed, Ns::from_secs(1.0 / load).as_ns()).with_bursts(bursts.to_vec());
    let mut t = base;
    std::iter::repeat_with(move || {
        t += Ns(agen.next_gap_ns());
        t
    })
}

/// One request on a serving loop's arrival clock.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Arrival {
    pub(crate) at: Ns,
    /// The tenant (model) it is for; always 0 on a single-model server.
    pub(crate) tenant: usize,
}

/// Who is queued, shed and batched: the one decision that differs between
/// the front-ends sharing [`drive`].
pub(crate) trait Admission {
    /// `a` has arrived by the current window anchor: queue or reject it.
    fn admit(&mut self, a: Arrival);

    /// Arrival time of the oldest waiter, if anyone waits.
    fn oldest(&self) -> Option<Ns>;

    /// Applies the shedding rule at the window anchor `ready_from`, then
    /// moves the next batch's members (arrival times, oldest first) into
    /// the empty `members` and returns their tenant. `None` when nobody
    /// is left to serve.
    fn select(&mut self, ready_from: Ns, members: &mut Vec<Ns>) -> Option<usize>;

    /// Runs `tenant`'s batch of `members` once the engine has skipped
    /// forward to its start.
    fn execute<S: EmbeddingCacheSystem>(
        &mut self,
        engine: &mut InferenceEngine<S>,
        _tenant: usize,
        _members: &[Ns],
        batch: &Batch,
    ) -> InferenceTiming {
        engine.run_batch(batch)
    }

    /// Requests shed so far: `(queue bound, deadline)`.
    fn shed(&self) -> (u64, u64);
}

/// First-come-first-served admission, the single-model server's rule. At
/// each window, waiters that already missed the deadline shed oldest
/// first; then the newest arrivals beyond the queue bound are rejected
/// (they found the queue full); then the oldest `max_batch` ride.
pub(crate) struct Fifo<'a> {
    config: &'a ServerConfig,
    waiting: VecDeque<Ns>,
    shed_queue: u64,
    shed_deadline: u64,
}

impl<'a> Fifo<'a> {
    pub(crate) fn new(config: &'a ServerConfig) -> Fifo<'a> {
        Fifo {
            config,
            waiting: VecDeque::new(),
            shed_queue: 0,
            shed_deadline: 0,
        }
    }
}

impl Admission for Fifo<'_> {
    fn admit(&mut self, a: Arrival) {
        self.waiting.push_back(a.at);
    }

    fn oldest(&self) -> Option<Ns> {
        self.waiting.front().copied()
    }

    fn select(&mut self, ready_from: Ns, members: &mut Vec<Ns>) -> Option<usize> {
        // Deadline shedding: the oldest waiters may already have blown the
        // SLA on queueing alone — serving them is wasted work.
        if let Some(dl) = self.config.deadline {
            while let Some(&arrival) = self.waiting.front() {
                if !misses_deadline(ready_from, arrival, dl) {
                    break;
                }
                self.waiting.pop_front();
                self.shed_deadline += 1;
            }
        }
        // Bounded admission queue: the newest arrivals found it full and
        // were rejected at arrival time.
        if let Some(cap) = self.config.queue_capacity {
            let cap = cap.max(1);
            if self.waiting.len() > cap {
                self.shed_queue += (self.waiting.len() - cap) as u64;
                self.waiting.truncate(cap);
            }
        }
        let count = self.waiting.len().min(self.config.max_batch);
        members.extend(self.waiting.drain(..count));
        (count > 0).then_some(0)
    }

    fn shed(&self) -> (u64, u64) {
        (self.shed_queue, self.shed_deadline)
    }
}

/// Wall-clock work a driver wraps around each engine call (stage timing,
/// paced device dwell). It observes the simulation and never steers it.
pub(crate) trait BatchHook {
    /// A batch is about to be assembled and run.
    fn begin(&mut self);
    /// The batch ran for `sim_time` of simulated time.
    fn end(&mut self, sim_time: Ns);
}

impl BatchHook for () {
    fn begin(&mut self) {}
    fn end(&mut self, _sim_time: Ns) {}
}

/// What a serving loop accumulates on its way to a [`ServedRun`].
#[derive(Default)]
pub(crate) struct Tally {
    latency: LatencyRecorder,
    start: Ns,
    busy: Ns,
    batches: u64,
    served: u64,
}

impl Tally {
    /// An empty tally for a run whose measured window opens at `start`.
    pub(crate) fn new(start: Ns) -> Tally {
        Tally {
            start,
            ..Tally::default()
        }
    }

    /// The loop's execute step: skips the idle engine forward to `start`
    /// (modelled as free host time), runs one batch through `run`, and
    /// records every member's latency from arrival to completion.
    pub(crate) fn execute<S: EmbeddingCacheSystem>(
        &mut self,
        engine: &mut InferenceEngine<S>,
        start: Ns,
        members: &[Ns],
        run: impl FnOnce(&mut InferenceEngine<S>) -> InferenceTiming,
    ) -> InferenceTiming {
        let now = engine.gpu().now();
        if start > now {
            engine.gpu_mut().elapse_host("idle", start - now);
        }
        let t0 = engine.gpu().now();
        let timing = run(engine);
        let done = engine.gpu().now();
        self.busy += done - t0;
        for &arrival in members {
            self.latency.record(done - arrival);
        }
        self.batches += 1;
        self.served += members.len() as u64;
        timing
    }

    /// The run's result, given what the loop counted beside the batches.
    pub(crate) fn finish<S: EmbeddingCacheSystem>(
        self,
        engine: &InferenceEngine<S>,
        offered: u64,
        (shed_queue, shed_deadline): (u64, u64),
    ) -> ServedRun {
        let elapsed = engine.gpu().now() - self.start;
        ServedRun {
            achieved: self.served as f64 / elapsed.as_secs().max(1e-12),
            mean_batch: self.served as f64 / self.batches.max(1) as f64,
            utilization: (self.busy / elapsed).min(1.0),
            offered,
            served: self.served,
            shed_queue,
            shed_deadline,
            lifetime: engine.system().lifetime_stats(),
            latency: self.latency,
        }
    }
}

/// The engine-feedback window loop. Whenever the engine goes idle at
/// `now`, the window anchors at `ready_from = max(now, oldest waiter)`:
/// every arrival up to the anchor is handed to `policy`, which sheds and
/// picks the batch; the batch then starts at its oldest member's arrival
/// (an idle gap is skipped) and each member's latency is recorded. Runs
/// until `arrivals` is exhausted and nobody waits.
pub(crate) fn drive<S, P, H>(
    engine: &mut InferenceEngine<S>,
    gens: &mut [TraceGenerator],
    arrivals: impl Iterator<Item = Arrival>,
    policy: &mut P,
    hook: &mut H,
) -> ServedRun
where
    S: EmbeddingCacheSystem,
    P: Admission,
    H: BatchHook,
{
    let mut arrivals = arrivals.peekable();
    let mut tally = Tally::new(engine.gpu().now());
    let mut offered = 0u64;
    let mut members = Vec::new();
    loop {
        let Some(oldest) = policy.oldest() else {
            // Nobody waits: the next arrival opens the next window.
            let Some(a) = arrivals.next() else { break };
            offered += 1;
            policy.admit(a);
            continue;
        };
        let ready_from = engine.gpu().now().max(oldest);
        while let Some(a) = arrivals.next_if(|a| a.at <= ready_from) {
            offered += 1;
            policy.admit(a);
        }
        members.clear();
        let Some(tenant) = policy.select(ready_from, &mut members) else {
            continue;
        };
        hook.begin();
        let batch = gens[tenant].next_batch(members.len());
        let timing = tally.execute(engine, members[0], &members, |engine| {
            policy.execute(engine, tenant, &members, &batch)
        });
        hook.end(timing.total);
    }
    tally.finish(engine, offered, policy.shed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseModel;
    use crate::engine::ModelMode;
    use fleche_core::{FlecheConfig, FlecheSystem};
    use fleche_gpu::{DeviceSpec, DramSpec, Gpu};
    use fleche_store::CpuStore;
    use fleche_workload::spec;

    fn engine() -> (InferenceEngine<FlecheSystem>, TraceGenerator) {
        let ds = spec::synthetic(8, 5_000, 16, -1.3);
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let sys = FlecheSystem::new(&ds, store, FlecheConfig::full(0.05));
        let dense = DenseModel::dcn_paper(InferenceEngine::<FlecheSystem>::concat_dim(&ds));
        (
            InferenceEngine::new(
                Gpu::new(DeviceSpec::t4()),
                sys,
                dense,
                ModelMode::EmbeddingOnly,
                &ds,
            ),
            TraceGenerator::new(&ds),
        )
    }

    fn open_config(load: f64) -> ServerConfig {
        ServerConfig {
            offered_load: load,
            max_batch: 256,
            requests: 2_000,
            warmup_requests: 2_000,
            queue_capacity: None,
            deadline: None,
        }
    }

    fn run_at(load: f64) -> ServedRun {
        let (mut eng, mut gen) = engine();
        serve(&mut eng, &mut gen, &open_config(load))
    }

    #[test]
    fn light_load_latency_is_service_time() {
        let run = run_at(10_000.0);
        assert_eq!(run.latency.len(), 2_000);
        assert!(run.utilization < 0.9);
        // At light load there is effectively no queueing: p99 within a
        // small factor of median.
        let ratio = run.latency.p99().as_ns() / run.latency.median().as_ns();
        assert!(ratio < 20.0, "p99/median {ratio}");
    }

    #[test]
    fn heavy_load_inflates_tail_latency() {
        let light = run_at(20_000.0);
        let heavy = run_at(20_000_000.0); // far beyond ~4M/s capacity
        assert!(
            heavy.latency.p99() > light.latency.p99() * 2.0,
            "heavy p99 {} vs light {}",
            heavy.latency.p99(),
            light.latency.p99()
        );
        assert!(
            heavy.mean_batch > light.mean_batch,
            "batcher packs under load"
        );
    }

    #[test]
    fn achieved_throughput_saturates() {
        let modest = run_at(50_000.0);
        // Near the offered load when below capacity.
        assert!(
            (modest.achieved - 50_000.0).abs() / 50_000.0 < 0.25,
            "achieved {} at offered 50k",
            modest.achieved
        );
        let extreme = run_at(50_000_000.0);
        assert!(
            extreme.achieved < 50_000_000.0 * 0.9,
            "cannot serve far beyond capacity: {}",
            extreme.achieved
        );
    }

    #[test]
    fn unbounded_run_serves_everything() {
        let run = run_at(100_000.0);
        assert_eq!(run.offered, 2_000);
        assert_eq!(run.served, 2_000);
        assert_eq!(run.shed_queue + run.shed_deadline, 0);
        assert_eq!(run.shed_rate(), 0.0);
        assert_eq!(run.availability(), 1.0, "flat store cannot fail");
    }

    #[test]
    fn bounded_queue_sheds_under_overload() {
        let (mut eng, mut gen) = engine();
        let run = serve(
            &mut eng,
            &mut gen,
            &ServerConfig {
                queue_capacity: Some(64),
                ..open_config(20_000_000.0)
            },
        );
        assert!(run.shed_queue > 0, "overload must overflow a 64-deep queue");
        assert_eq!(run.served + run.shed_queue + run.shed_deadline, run.offered);
        assert_eq!(run.latency.len() as u64, run.served);
        assert!(run.shed_rate() > 0.0);
        assert!(run.availability() < 1.0);
        // Admitted requests see a bounded queue, so their tail stays far
        // below the unbounded run's.
        let unbounded = run_at(20_000_000.0);
        assert!(
            run.latency.p99() < unbounded.latency.p99(),
            "bounded p99 {} vs unbounded {}",
            run.latency.p99(),
            unbounded.latency.p99()
        );
    }

    #[test]
    fn deadline_sheds_stale_waiters_and_bounds_served_wait() {
        let deadline = Ns::from_us(300.0);
        let (mut eng, mut gen) = engine();
        let run = serve(
            &mut eng,
            &mut gen,
            &ServerConfig {
                deadline: Some(deadline),
                ..open_config(20_000_000.0)
            },
        );
        assert!(run.shed_deadline > 0, "overload must age out waiters");
        assert_eq!(run.served + run.shed_queue + run.shed_deadline, run.offered);
        // Every served request waited at most the deadline before its
        // batch started; its latency is that wait plus one service time.
        let unbounded = run_at(20_000_000.0);
        assert!(
            run.latency.quantile(1.0) < unbounded.latency.quantile(1.0),
            "deadline-shed max {} vs unbounded {}",
            run.latency.quantile(1.0),
            unbounded.latency.quantile(1.0)
        );
    }

    #[test]
    fn warmup_draws_every_requested_sample() {
        // A batch cap above the 256-sample warm-up batch must not shrink
        // the warm-up: all of `warmup_requests` is drawn before measuring.
        let (mut eng, mut gen) = engine();
        let run = serve(
            &mut eng,
            &mut gen,
            &ServerConfig {
                max_batch: 1_024,
                warmup_requests: 4_096,
                requests: 200,
                ..open_config(100_000.0)
            },
        );
        assert_eq!(gen.produced(), 4_096 + run.served);
        // Three tenants share 4 batches of 256 round-robin.
        let warmup = Warmup::new(1_000, 4_096);
        assert_eq!(warmup.samples(0, 3), 512);
        assert_eq!(warmup.samples(1, 3), 256);
        assert_eq!(warmup.samples(2, 3), 256);
    }

    #[test]
    fn fifo_never_forms_an_empty_batch() {
        // The newest arrival is rejected by the queue bound; once the
        // older waiter has aged out nobody is left, so nothing runs even
        // though the rejected arrival itself is still young.
        let config = ServerConfig {
            max_batch: 1,
            queue_capacity: Some(2),
            deadline: Some(Ns(100.0)),
            ..open_config(1.0)
        };
        let mut fifo = Fifo::new(&config);
        for at in [0.0, 10.0, 20.0] {
            fifo.admit(Arrival {
                at: Ns(at),
                tenant: 0,
            });
        }
        let mut members = Vec::new();
        assert_eq!(fifo.select(Ns(20.0), &mut members), Some(0));
        assert_eq!(members, vec![Ns(0.0)]);
        members.clear();
        assert_eq!(fifo.select(Ns(115.0), &mut members), None);
        assert!(members.is_empty());
        assert_eq!(fifo.shed(), (1, 1));
    }

    #[test]
    #[should_panic(expected = "offered load")]
    fn zero_load_rejected() {
        let (mut eng, mut gen) = engine();
        serve(
            &mut eng,
            &mut gen,
            &ServerConfig {
                offered_load: 0.0,
                max_batch: 16,
                requests: 10,
                warmup_requests: 0,
                queue_capacity: None,
                deadline: None,
            },
        );
    }
}
