//! Pipelined multi-worker serving front-end.
//!
//! [`serve`](crate::serve) is a single-threaded discrete-event loop: one
//! engine, one arrival stream, simulated time only. This module adds the
//! host-side concurrency layer a real serving deployment has — and
//! measures it in *wall-clock* time, which the simulator cannot fake:
//!
//! * a [`ShardedQueue`] — the bounded MPMC work queue. A feeder thread
//!   draws the global Poisson arrival stream (bit-identical to the serial
//!   server's: same [`ARRIVAL_SEED`](crate::server::ARRIVAL_SEED), same
//!   gap expression) and shards it round-robin across per-worker lanes;
//! * N workers, each owning a full engine replica (built *inside* the
//!   worker thread by a caller-supplied factory, so engines never cross
//!   threads and need no `Send` bound);
//! * a [`MicroBatcher`] — incremental logical-time request coalescing
//!   under a latency budget: a batch seals at `first_arrival + linger` or
//!   when `max_batch` requests have arrived, whichever is earlier, and
//!   over-age requests are shed against the deadline at seal time;
//! * a pipelined executor per worker — a prep stage (batch assembly +
//!   dedup) runs one bounded channel ahead of the execute stage, so batch
//!   `N+1`'s host work overlaps batch `N`'s device dwell.
//!
//! ## Where wall-clock scaling comes from
//!
//! The simulated GPU is a data structure; "running" a batch costs host
//! CPU only. A real serving host, by contrast, spends most of each batch
//! *blocked on the device*. [`ConcurrentConfig::pace`] restores that
//! duty cycle: after each batch the worker sleeps `pace ×` the batch's
//! *simulated* time. Sleeps overlap across workers (even on one core),
//! exactly as device dwell overlaps across real streams — so throughput
//! scales with workers until host CPU saturates. Pacing never touches
//! simulated state: every simulated metric is bit-identical at any pace,
//! and determinism checks run at `pace = 0`.
//!
//! ## Determinism
//!
//! Each worker's simulation is self-contained (own engine, own clock, own
//! trace stream) and its shard receives its requests in arrival order, so
//! every simulated output is independent of thread scheduling. Without a
//! linger a worker runs the serial server's own window loop
//! ([`crate::server`]) over its lane, so with one worker the results are
//! bit-identical to [`serve`](crate::serve) (asserted by tests and the
//! `serve_scaling` drill).

use crate::engine::InferenceEngine;
use crate::server::{
    arrival_times, drive, misses_deadline, Arrival, BatchHook, Fifo, ServedRun, ServerConfig,
    Tally, Warmup, ARRIVAL_SEED,
};
use fleche_gpu::{declare_pipeline_handoffs, Ns, RaceChecker};
use fleche_store::api::EmbeddingCacheSystem;
use fleche_store::Deduped;
use fleche_workload::{BurstWindow, TraceGenerator};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Barrier, Condvar, Mutex};
use std::time::Duration;
// Wall-clock reads are confined to this module (and the serve_scaling
// drill) by the analyzer's no-wall-clock rule: simulated results must
// never depend on them, only the scaling report does.
use std::time::Instant;

/// Default prep→execute channel depth: one batch of prep runs ahead of
/// the executor. `fleche-verify`'s ring model checks the publish/credit
/// protocol at exactly this depth.
pub const DEFAULT_PIPELINE_DEPTH: usize = 2;

/// Default per-lane bound of the sharded arrival queue.
pub const DEFAULT_SHARD_CAPACITY: usize = 4096;

/// One queued request: its global sequence number and absolute arrival
/// time on the (shared) post-warmup simulated clock.
#[derive(Clone, Copy, Debug)]
pub struct QueuedRequest {
    /// Position in the global arrival stream.
    pub seq: u64,
    /// Absolute arrival time.
    pub arrival: Ns,
}

struct ShardState<T> {
    items: VecDeque<T>,
    closed: bool,
}

struct Shard<T> {
    state: Mutex<ShardState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// A bounded multi-producer multi-consumer queue, sharded into
/// independent lanes so producers and consumers on different lanes never
/// contend on one lock. The serving front-end uses one lane per worker
/// with the feeder sharding round-robin; nothing restricts a lane to one
/// producer or consumer.
pub struct ShardedQueue<T> {
    shards: Vec<Shard<T>>,
    capacity: usize,
}

impl<T> ShardedQueue<T> {
    /// A queue with `shards` lanes of `capacity` items each.
    pub fn new(shards: usize, capacity: usize) -> ShardedQueue<T> {
        assert!(shards > 0, "need at least one shard");
        assert!(capacity > 0, "shard capacity must be positive");
        ShardedQueue {
            shards: (0..shards)
                .map(|_| Shard {
                    state: Mutex::new(ShardState {
                        items: VecDeque::new(),
                        closed: false,
                    }),
                    not_empty: Condvar::new(),
                    not_full: Condvar::new(),
                })
                .collect(),
            capacity,
        }
    }

    /// Number of lanes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Pushes onto lane `shard`, blocking while it is full. An item
    /// pushed after [`ShardedQueue::close`] is dropped.
    pub fn push(&self, shard: usize, item: T) {
        let lane = &self.shards[shard % self.shards.len()];
        let mut st = lane.state.lock().expect("queue lock poisoned");
        while st.items.len() >= self.capacity && !st.closed {
            st = lane.not_full.wait(st).expect("queue lock poisoned");
        }
        if st.closed {
            return;
        }
        st.items.push_back(item);
        lane.not_empty.notify_one();
    }

    /// Pops from lane `shard`, blocking while it is empty and open.
    /// Returns `None` once the lane is closed *and* drained.
    pub fn pop(&self, shard: usize) -> Option<T> {
        let lane = &self.shards[shard % self.shards.len()];
        let mut st = lane.state.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = st.items.pop_front() {
                lane.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = lane.not_empty.wait(st).expect("queue lock poisoned");
        }
    }

    /// Closes every lane: blocked pushers drop their item and return,
    /// blocked poppers drain what remains and then see `None`.
    pub fn close(&self) {
        for lane in &self.shards {
            let mut st = lane.state.lock().expect("queue lock poisoned");
            st.closed = true;
            lane.not_empty.notify_all();
            lane.not_full.notify_all();
        }
    }
}

/// Logical-time coalescing policy of a [`MicroBatcher`].
#[derive(Clone, Copy, Debug)]
pub struct MicroBatcherConfig {
    /// Seal a batch once this many requests have joined.
    pub max_batch: usize,
    /// Seal a batch this long after its first request arrives, even if
    /// not full — the latency budget spent waiting for co-riders.
    pub linger: Ns,
    /// Shed a request whose wait at seal time already exceeds this.
    pub deadline: Option<Ns>,
}

/// One planned batch: the requests riding it and the logical time it
/// sealed (execution may start no earlier).
#[derive(Clone, Debug)]
pub struct BatchPlan {
    /// Seal time: `min(first_arrival + linger, arrival of the
    /// max_batch-th request)`.
    pub seal: Ns,
    /// `(seq, arrival)` of each member, in arrival order.
    pub members: Vec<(u64, Ns)>,
}

/// Output of [`MicroBatcher::plan`]: the batches plus everything shed.
#[derive(Clone, Debug, Default)]
pub struct MicroBatchPlan {
    /// Planned batches, in arrival order.
    pub batches: Vec<BatchPlan>,
    /// Requests shed at plan time (deadline exceeded at seal).
    pub shed: Vec<(u64, Ns)>,
}

/// Incremental logical-time micro-batcher. Sealing is a function of
/// arrival times only — no clocks, no threads — so its invariants (no
/// request dropped or duplicated, batches within `max_batch`, linger
/// budget respected) are property-testable in isolation through
/// [`MicroBatcher::plan`], and the pipelined prep stage seals its stream
/// with the very same [`MicroBatcher::step`].
#[derive(Clone, Debug)]
pub struct MicroBatcher {
    cfg: MicroBatcherConfig,
    open: Vec<(u64, Ns)>,
}

impl MicroBatcher {
    /// A batcher with no open batch.
    pub fn new(cfg: MicroBatcherConfig) -> MicroBatcher {
        assert!(cfg.max_batch > 0, "max batch must be positive");
        assert!(cfg.linger.as_ns() >= 0.0, "linger must be non-negative");
        MicroBatcher {
            cfg,
            open: Vec::with_capacity(cfg.max_batch),
        }
    }

    /// The seal step. `next` is the next arrival in arrival order, or
    /// `None` once the stream has ended. An arrival past the open batch's
    /// linger seals that batch and opens the next; a batch seals as soon
    /// as its `max_batch`-th rider joins; the end of the stream seals what
    /// is open. Riders that would miss the deadline at the seal go to
    /// `shed`; the sealed batch is returned unless all of them did.
    pub fn step(
        &mut self,
        next: Option<(u64, Ns)>,
        shed: &mut Vec<(u64, Ns)>,
    ) -> Option<BatchPlan> {
        let seal_by_linger = self.open.first().map(|&(_, first)| first + self.cfg.linger);
        let Some((seq, arrival)) = next else {
            // Short batches wait out the full linger.
            return seal_by_linger.and_then(|seal| self.seal(seal, shed));
        };
        let mut sealed = None;
        if let Some(seal) = seal_by_linger.filter(|&seal| arrival > seal) {
            sealed = self.seal(seal, shed);
        }
        self.open.push((seq, arrival));
        if self.open.len() == self.cfg.max_batch {
            // Full batches seal when their last rider arrives. Never in
            // the same step as a linger seal: that needs an open batch.
            sealed = self.seal(arrival, shed);
        }
        sealed
    }

    fn seal(&mut self, seal: Ns, shed: &mut Vec<(u64, Ns)>) -> Option<BatchPlan> {
        let mut members = Vec::with_capacity(self.open.len());
        for (seq, arrival) in self.open.drain(..) {
            match self.cfg.deadline {
                Some(dl) if misses_deadline(seal, arrival, dl) => shed.push((seq, arrival)),
                _ => members.push((seq, arrival)),
            }
        }
        (!members.is_empty()).then_some(BatchPlan { seal, members })
    }

    /// Partitions `arrivals` (sorted ascending by arrival) into batches.
    pub fn plan(arrivals: &[(u64, Ns)], cfg: &MicroBatcherConfig) -> MicroBatchPlan {
        debug_assert!(
            arrivals.windows(2).all(|w| w[0].1 <= w[1].1),
            "arrivals must be sorted"
        );
        let mut batcher = MicroBatcher::new(*cfg);
        let mut plan = MicroBatchPlan::default();
        for next in arrivals.iter().copied().map(Some).chain([None]) {
            plan.batches.extend(batcher.step(next, &mut plan.shed));
        }
        plan
    }
}

/// Configuration of [`serve_concurrent`].
#[derive(Clone, Debug)]
pub struct ConcurrentConfig {
    /// The serving parameters: offered load and requests across all
    /// workers; batch cap, warm-up, queue bound and deadline per worker.
    /// The queue bound applies to the streaming batcher only and must be
    /// `None` under a linger.
    pub server: ServerConfig,
    /// Worker (engine replica) count.
    pub workers: usize,
    /// `None`: engine-feedback streaming batching, bit-identical to the
    /// serial server per worker. `Some(l)`: micro-batch with linger `l`
    /// and pipeline prep against execution.
    pub linger: Option<Ns>,
    /// Prep→execute channel depth under a linger (min 1).
    pub pipeline_depth: usize,
    /// Real seconds slept per simulated second of batch time, modelling
    /// the host blocking on device completion. Zero disables pacing.
    pub pace: f64,
    /// Overload windows modulating the arrival stream.
    pub bursts: Vec<BurstWindow>,
    /// Replay the queue and pipeline hand-off protocols through the race
    /// checker after the run.
    pub analyze: bool,
    /// Per-lane bound of the arrival queue.
    pub shard_capacity: usize,
}

/// Real (wall-clock) seconds each pipeline stage of one worker spent
/// working, summed over batches. `prep` and `exec` exclude time blocked
/// on the hand-off channel; `dwell` is the paced device-dwell sleep.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageWall {
    /// Batch assembly + dedup on the prep stage.
    pub prep_secs: f64,
    /// Engine execution on the executor stage.
    pub exec_secs: f64,
    /// Paced device dwell on the executor stage.
    pub dwell_secs: f64,
}

/// One worker's result.
#[derive(Debug)]
pub struct WorkerRun {
    /// Worker index.
    pub worker: usize,
    /// The worker's serving results on its own simulated clock (same
    /// shape as the serial server's).
    pub run: ServedRun,
    /// Batches the worker executed.
    pub batches: u64,
    /// Per-stage wall time.
    pub stage: StageWall,
    /// Requests received through the sharded arrival queue.
    pub queue_handoffs: u64,
    /// Prepared batches received through the prep→execute channel.
    pub pipeline_handoffs: u64,
    /// Requests that aged past the deadline *between* plan-time seal and
    /// execution (the executor re-checks at dequeue; these are included
    /// in the run's `shed_deadline` total).
    pub shed_at_dequeue: u64,
}

/// Result of a concurrent serving run.
#[derive(Debug)]
pub struct ConcurrentRun {
    /// Per-worker results, indexed by worker.
    pub workers: Vec<WorkerRun>,
    /// Wall-clock seconds from the post-warmup start barrier to the last
    /// worker finishing. The only machine-dependent field.
    pub wall_secs: f64,
    /// Races found replaying the hand-off protocols (`Some` only when
    /// [`ConcurrentConfig::analyze`] was set).
    pub races: Option<usize>,
}

impl ConcurrentRun {
    /// Requests offered across workers.
    pub fn offered(&self) -> u64 {
        self.workers.iter().map(|w| w.run.offered).sum()
    }

    /// Requests served across workers.
    pub fn served(&self) -> u64 {
        self.workers.iter().map(|w| w.run.served).sum()
    }

    /// Requests shed across workers (admission + deadline).
    pub fn shed(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| w.run.shed_queue + w.run.shed_deadline)
            .sum()
    }

    /// Wall-clock throughput: served requests per real second. The
    /// scaling figure — machine-dependent by construction.
    pub fn wall_throughput(&self) -> f64 {
        self.served() as f64 / self.wall_secs.max(1e-12)
    }

    /// Aggregate simulated throughput (sum of per-worker achieved rates;
    /// workers simulate the same horizon in parallel).
    pub fn sim_achieved(&self) -> f64 {
        self.workers.iter().map(|w| w.run.achieved).sum()
    }
}

/// Runs the concurrent serving front-end.
///
/// `factory(worker)` builds worker `worker`'s engine replica and trace
/// generator; it is called *inside* the worker's thread, so neither needs
/// to be `Send`. Every worker must be built identically (same specs,
/// same seeds) — the feeder asserts their post-warmup clocks agree
/// bit-for-bit, since the shared arrival stream is anchored there.
///
/// Worker `w` serves every `workers`-th request of the global stream.
/// Each replica draws its samples from its own generator (same seed:
/// replicas see identically-distributed traffic, as replicated serving
/// instances of one model do), so all simulated outputs are deterministic
/// regardless of thread scheduling.
pub fn serve_concurrent<S, F>(factory: F, config: &ConcurrentConfig) -> ConcurrentRun
where
    S: EmbeddingCacheSystem,
    F: Fn(usize) -> (InferenceEngine<S>, TraceGenerator) + Sync,
{
    let server = &config.server;
    assert!(config.workers >= 1, "need at least one worker");
    assert!(server.offered_load > 0.0, "offered load must be positive");
    assert!(server.max_batch > 0, "max batch must be positive");
    assert!(
        config.linger.is_none() || server.queue_capacity.is_none(),
        "queue_capacity bounds the streaming batcher only; unset it under a linger"
    );
    let w = config.workers;
    let queue: ShardedQueue<QueuedRequest> = ShardedQueue::new(w, config.shard_capacity.max(1));
    let base_now: Mutex<Vec<Option<f64>>> = Mutex::new(vec![None; w]);
    // Workers + feeder + the timing thread all release together, after
    // every warmup is done, so wall time measures only the serving phase.
    let start_barrier = Barrier::new(w + 2);
    let results: Mutex<Vec<Option<WorkerRun>>> = Mutex::new((0..w).map(|_| None).collect());
    let mut wall_start: Option<Instant> = None;

    std::thread::scope(|scope| {
        // Feeder: draws the one global arrival stream and shards it.
        scope.spawn(|| {
            start_barrier.wait();
            let base = {
                let g = base_now.lock().expect("base-now lock poisoned");
                let first = g[0].expect("worker 0 published its clock");
                for (i, b) in g.iter().enumerate() {
                    let b = b.expect("worker published its clock");
                    assert_eq!(
                        b.to_bits(),
                        first.to_bits(),
                        "worker {i} warmup diverged: clock {b} vs {first}"
                    );
                }
                first
            };
            let arrivals =
                arrival_times(ARRIVAL_SEED, server.offered_load, &config.bursts, Ns(base));
            for (seq, arrival) in (0..server.requests as u64).zip(arrivals) {
                queue.push(seq as usize % w, QueuedRequest { seq, arrival });
            }
            queue.close();
        });

        for wid in 0..w {
            let factory = &factory;
            let queue = &queue;
            let base_now = &base_now;
            let start_barrier = &start_barrier;
            let results = &results;
            scope.spawn(move || {
                let (mut engine, mut gen) = factory(wid);
                Warmup::new(server.warmup_requests, server.max_batch)
                    .run(&mut engine, std::slice::from_mut(&mut gen));
                base_now.lock().expect("base-now lock poisoned")[wid] =
                    Some(engine.gpu().now().as_ns());
                start_barrier.wait();
                let mut pacer = Pacer {
                    pace: config.pace,
                    stage: StageWall::default(),
                    batches: 0,
                    started: Instant::now(),
                };
                let (run, pipeline_handoffs, shed_at_dequeue) = match config.linger {
                    // The serial server's own loop and rule, fed from
                    // this worker's lane.
                    None => {
                        let lane = std::iter::from_fn(|| queue.pop(wid));
                        let arrivals = lane.map(|r| Arrival {
                            at: r.arrival,
                            tenant: 0,
                        });
                        let gens = std::slice::from_mut(&mut gen);
                        let fifo = &mut Fifo::new(server);
                        (drive(&mut engine, gens, arrivals, fifo, &mut pacer), 0, 0)
                    }
                    Some(linger) => {
                        pipelined_drive(&mut engine, gen, queue, wid, config, linger, &mut pacer)
                    }
                };
                let run = WorkerRun {
                    worker: wid,
                    batches: pacer.batches,
                    stage: pacer.stage,
                    queue_handoffs: run.offered,
                    pipeline_handoffs,
                    shed_at_dequeue,
                    run,
                };
                results.lock().expect("results lock poisoned")[wid] = Some(run);
            });
        }

        start_barrier.wait();
        wall_start = Some(Instant::now());
    });

    let wall_secs = wall_start
        .expect("start barrier released")
        .elapsed()
        .as_secs_f64();
    let workers: Vec<WorkerRun> = results
        .into_inner()
        .expect("results lock poisoned")
        .into_iter()
        .map(|r| r.expect("worker finished"))
        .collect();

    // Feeder→worker lane of the sharded queue, then the worker's
    // prep→execute pipeline ring.
    let races = config.analyze.then(|| {
        let ring = |w: &WorkerRun| {
            replay_ring(w.worker, 0, config.shard_capacity, w.queue_handoffs)
                + replay_ring(
                    w.worker,
                    1 << 16,
                    config.pipeline_depth,
                    w.pipeline_handoffs,
                )
        };
        workers.iter().map(ring).sum()
    });

    ConcurrentRun {
        workers,
        wall_secs,
        races,
    }
}

/// Replays `handoffs` hand-offs through one ring of `depth` slots (min 1)
/// on a fresh race checker — publish edge from producer to consumer,
/// credit edge back — and returns the races found. The ring of `stream`
/// lives at `slot_base`.
pub(crate) fn replay_ring(stream: usize, slot_base: u32, depth: usize, handoffs: u64) -> usize {
    let mut c = RaceChecker::new();
    declare_pipeline_handoffs(
        &mut c,
        stream as u16,
        slot_base,
        depth.max(1) as u32,
        handoffs,
        true,
    );
    c.race_count()
}

/// The executor stage's wall-clock accounting around each batch: time
/// spent executing, then the paced device dwell.
struct Pacer {
    pace: f64,
    stage: StageWall,
    batches: u64,
    started: Instant,
}

impl BatchHook for Pacer {
    fn begin(&mut self) {
        self.started = Instant::now();
    }

    /// Sleeps `pace ×` the batch's simulated time: the host-side duty
    /// cycle of waiting on the device. Overlaps across worker threads,
    /// which is exactly where the wall-clock scaling of multiple workers
    /// comes from.
    fn end(&mut self, sim_time: Ns) {
        self.stage.exec_secs += self.started.elapsed().as_secs_f64();
        self.batches += 1;
        if self.pace > 0.0 {
            let d0 = Instant::now();
            std::thread::sleep(Duration::from_secs_f64(sim_time.as_secs() * self.pace));
            self.stage.dwell_secs += d0.elapsed().as_secs_f64();
        }
    }
}

/// One prepared batch crossing the prep→execute channel.
struct PreparedBatch {
    plan: BatchPlan,
    batch: fleche_workload::Batch,
    dedup: Deduped,
}

/// The pipelined drive: a prep stage pops the lane incrementally, seals
/// micro-batches with [`MicroBatcher::step`] and prepares each one a
/// bounded channel ahead of the executor. Simulated results are
/// independent of pipeline depth — the prepared path charges the
/// identical dedup cost — so only wall time changes. Nothing in the path
/// grows with offered load: the lane, the batcher's one open batch and
/// the channel are all bounded, so a slow executor backpressures all the
/// way to the feeder.
///
/// Deadlines are enforced twice: at plan time against the seal (the
/// micro-batcher's rule) and again at dequeue against the executor's
/// clock, so requests that aged out while queued behind earlier batches
/// do not burn a pipeline slot pretending to be servable. Returns the run,
/// the batches received and the requests shed at dequeue.
fn pipelined_drive<S: EmbeddingCacheSystem>(
    engine: &mut InferenceEngine<S>,
    mut gen: TraceGenerator,
    queue: &ShardedQueue<QueuedRequest>,
    wid: usize,
    config: &ConcurrentConfig,
    linger: Ns,
    pacer: &mut Pacer,
) -> (ServedRun, u64, u64) {
    let deadline = config.server.deadline;
    let mut batcher = MicroBatcher::new(MicroBatcherConfig {
        max_batch: config.server.max_batch,
        linger,
        deadline,
    });
    let (tx, rx) = mpsc::sync_channel::<PreparedBatch>(config.pipeline_depth.max(1));
    let mut tally = Tally::new(engine.gpu().now());
    let mut recvs = 0u64;
    let mut shed_at_dequeue = 0u64;
    let (offered, shed_plan, prep_secs) = std::thread::scope(|scope| {
        let prep = scope.spawn(move || {
            let (mut offered, mut shed_plan, mut prep_secs) = (0u64, 0u64, 0.0f64);
            let mut shed = Vec::new();
            loop {
                let next = queue.pop(wid).map(|r| (r.seq, r.arrival));
                offered += u64::from(next.is_some());
                let p0 = Instant::now();
                let sealed = batcher.step(next, &mut shed);
                shed_plan += shed.len() as u64;
                shed.clear();
                if let Some(plan) = sealed {
                    let batch = gen.next_batch(plan.members.len());
                    let dedup = Deduped::from_batch(&batch);
                    prep_secs += p0.elapsed().as_secs_f64();
                    if tx.send(PreparedBatch { plan, batch, dedup }).is_err() {
                        break;
                    }
                }
                if next.is_none() {
                    break;
                }
            }
            (offered, shed_plan, prep_secs)
        });
        while let Ok(p) = rx.recv() {
            recvs += 1;
            // Dequeue-time deadline re-check: the plan judged waits
            // against the seal, but by now the executor may be far past
            // it. Requests already over budget are shed here.
            let start = engine.gpu().now().max(p.plan.seal);
            let aged = |&a: &Ns| deadline.is_some_and(|dl| misses_deadline(start, a, dl));
            let members = p.plan.members.iter().map(|&(_, arrival)| arrival);
            let live: Vec<Ns> = members.filter(|a| !aged(a)).collect();
            shed_at_dequeue += (p.plan.members.len() - live.len()) as u64;
            if live.is_empty() {
                // Every rider aged out while queued: skip the device
                // instead of burning the slot on dead work.
                continue;
            }
            pacer.begin();
            let timing = tally.execute(engine, p.plan.seal, &live, |engine| {
                engine.run_batch_prepared(&p.batch, p.dedup)
            });
            pacer.end(timing.total);
        }
        prep.join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    });
    pacer.stage.prep_secs = prep_secs;
    let run = tally.finish(engine, offered, (0, shed_plan + shed_at_dequeue));
    (run, recvs, shed_at_dequeue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseModel;
    use crate::engine::ModelMode;
    use crate::server::serve;
    use fleche_core::{FlecheConfig, FlecheSystem};
    use fleche_gpu::{DeviceSpec, DramSpec, Gpu};
    use fleche_store::CpuStore;
    use fleche_workload::{spec, DatasetSpec};

    fn dataset() -> DatasetSpec {
        spec::synthetic(8, 5_000, 16, -1.3)
    }

    fn build(wid: usize) -> (InferenceEngine<FlecheSystem>, TraceGenerator) {
        let _ = wid;
        let ds = dataset();
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

    fn serial_config(load: f64) -> ServerConfig {
        ServerConfig {
            offered_load: load,
            max_batch: 256,
            requests: 2_000,
            warmup_requests: 2_000,
            queue_capacity: None,
            deadline: None,
        }
    }

    /// The streaming, unpaced front-end over `cfg` with `workers` replicas.
    fn mirror(cfg: &ServerConfig, workers: usize) -> ConcurrentConfig {
        ConcurrentConfig {
            server: cfg.clone(),
            workers,
            linger: None,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
            pace: 0.0,
            bursts: Vec::new(),
            analyze: false,
            shard_capacity: DEFAULT_SHARD_CAPACITY,
        }
    }

    fn assert_bit_identical(serial: &ServedRun, conc: &ServedRun) {
        assert_eq!(serial.offered, conc.offered);
        assert_eq!(serial.served, conc.served);
        assert_eq!(serial.shed_queue, conc.shed_queue);
        assert_eq!(serial.shed_deadline, conc.shed_deadline);
        assert_eq!(serial.latency.len(), conc.latency.len());
        assert_eq!(serial.achieved.to_bits(), conc.achieved.to_bits());
        assert_eq!(serial.mean_batch.to_bits(), conc.mean_batch.to_bits());
        assert_eq!(serial.utilization.to_bits(), conc.utilization.to_bits());
        for (a, b) in [
            (serial.latency.median(), conc.latency.median()),
            (serial.latency.p99(), conc.latency.p99()),
            (serial.latency.mean(), conc.latency.mean()),
            (serial.latency.total(), conc.latency.total()),
        ] {
            assert_eq!(a.as_ns().to_bits(), b.as_ns().to_bits());
        }
        assert_eq!(serial.lifetime.hits, conc.lifetime.hits);
        assert_eq!(serial.lifetime.misses, conc.lifetime.misses);
        assert_eq!(serial.lifetime.batches, conc.lifetime.batches);
    }

    #[test]
    fn one_worker_streaming_matches_serial_bitwise() {
        let cfg = serial_config(200_000.0);
        let (mut eng, mut gen) = build(0);
        let serial = serve(&mut eng, &mut gen, &cfg);
        let conc = serve_concurrent(build, &mirror(&cfg, 1));
        assert_eq!(conc.workers.len(), 1);
        assert_bit_identical(&serial, &conc.workers[0].run);
    }

    #[test]
    fn one_worker_matches_serial_with_shedding() {
        let cfg = ServerConfig {
            queue_capacity: Some(64),
            deadline: Some(Ns::from_us(300.0)),
            ..serial_config(5_000_000.0)
        };
        let (mut eng, mut gen) = build(0);
        let serial = serve(&mut eng, &mut gen, &cfg);
        let conc = serve_concurrent(build, &mirror(&cfg, 1));
        assert!(serial.shed_queue + serial.shed_deadline > 0);
        assert_bit_identical(&serial, &conc.workers[0].run);
    }

    #[test]
    fn multi_worker_run_is_deterministic_and_complete() {
        let cfg = mirror(&serial_config(400_000.0), 3);
        let a = serve_concurrent(build, &cfg);
        let b = serve_concurrent(build, &cfg);
        assert_eq!(a.offered(), 2_000);
        assert_eq!(a.served(), 2_000);
        for (x, y) in a.workers.iter().zip(&b.workers) {
            assert_bit_identical(&x.run, &y.run);
        }
    }

    #[test]
    fn pipelined_results_are_depth_invariant() {
        let mut cfg = mirror(&serial_config(400_000.0), 2);
        cfg.linger = Some(Ns::from_us(200.0));
        let a = serve_concurrent(build, &cfg);
        cfg.pipeline_depth = 8;
        let b = serve_concurrent(build, &cfg);
        assert!(a.served() > 0);
        for (x, y) in a.workers.iter().zip(&b.workers) {
            assert_bit_identical(&x.run, &y.run);
            assert!(x.pipeline_handoffs > 0);
        }
    }

    #[test]
    fn pipelined_dequeue_sheds_aged_requests() {
        // Overload with a deadline the plan-time check cannot violate
        // (linger < deadline bounds every wait at seal): all shedding
        // must come from the dequeue-time re-check as the executor falls
        // behind, and fully-aged batches must not burn a pipeline slot.
        let mut cfg = mirror(&serial_config(50_000_000.0), 1);
        cfg.linger = Some(Ns::from_us(200.0));
        cfg.server.deadline = Some(Ns::from_us(300.0));
        let a = serve_concurrent(build, &cfg);
        let w = &a.workers[0];
        assert!(w.shed_at_dequeue > 0, "executor backlog must age requests");
        assert_eq!(w.run.shed_deadline, w.shed_at_dequeue);
        assert_eq!(
            w.run.offered,
            w.run.served + w.run.shed_deadline,
            "every request is served or shed exactly once"
        );
        assert!(
            w.batches < w.pipeline_handoffs,
            "fully-aged batches must skip the device: {} executed of {} received",
            w.batches,
            w.pipeline_handoffs
        );
        let b = serve_concurrent(build, &cfg);
        assert_bit_identical(&a.workers[0].run, &b.workers[0].run);
        assert_eq!(a.workers[0].shed_at_dequeue, b.workers[0].shed_at_dequeue);
    }

    #[test]
    fn pipelined_backpressure_survives_tiny_lanes() {
        // A 4-deep lane forces the feeder to block on the planner, which
        // blocks on the executor — the run only completes if the bounded
        // chain drains end to end, and the bound must not change any
        // simulated result.
        let mut cfg = mirror(&serial_config(400_000.0), 2);
        cfg.linger = Some(Ns::from_us(200.0));
        let a = serve_concurrent(build, &cfg);
        cfg.shard_capacity = 4;
        let b = serve_concurrent(build, &cfg);
        assert_eq!(b.offered(), 2_000);
        assert_eq!(b.served(), 2_000);
        for (x, y) in a.workers.iter().zip(&b.workers) {
            assert_bit_identical(&x.run, &y.run);
        }
    }

    #[test]
    fn pacing_never_touches_simulated_results() {
        let mut cfg = mirror(&serial_config(400_000.0), 2);
        cfg.linger = Some(Ns::from_us(200.0));
        cfg.server.requests = 400;
        cfg.server.warmup_requests = 400;
        let a = serve_concurrent(build, &cfg);
        cfg.pace = 0.5;
        let b = serve_concurrent(build, &cfg);
        for (x, y) in a.workers.iter().zip(&b.workers) {
            assert_bit_identical(&x.run, &y.run);
            assert!(y.stage.dwell_secs > 0.0);
        }
    }

    #[test]
    fn analyze_mode_finds_no_races_in_the_protocol() {
        let mut cfg = mirror(&serial_config(400_000.0), 2);
        cfg.linger = Some(Ns::from_us(200.0));
        cfg.server.requests = 500;
        cfg.server.warmup_requests = 400;
        cfg.analyze = true;
        let run = serve_concurrent(build, &cfg);
        assert_eq!(run.races, Some(0));
    }

    #[test]
    #[should_panic(expected = "queue_capacity")]
    fn linger_rejects_a_queue_bound() {
        let mut cfg = mirror(&serial_config(400_000.0), 1);
        cfg.linger = Some(Ns::from_us(200.0));
        cfg.server.queue_capacity = Some(64);
        serve_concurrent(build, &cfg);
    }

    #[test]
    fn micro_batcher_steps_seal_as_arrivals_come() {
        let mut batcher = MicroBatcher::new(MicroBatcherConfig {
            max_batch: 2,
            linger: Ns(100.0),
            deadline: Some(Ns(50.0)),
        });
        let mut shed = Vec::new();
        // Fills at the second arrival: seals at once.
        assert!(batcher.step(Some((0, Ns(0.0))), &mut shed).is_none());
        let full = batcher.step(Some((1, Ns(10.0))), &mut shed).unwrap();
        assert_eq!((full.seal, full.members.len()), (Ns(10.0), 2));
        // A lone rider seals at its linger once a later arrival lands
        // past it; having waited the whole linger it misses the deadline
        // and sheds, as does the last rider when the stream ends.
        assert!(batcher.step(Some((2, Ns(20.0))), &mut shed).is_none());
        let short = batcher.step(Some((3, Ns(500.0))), &mut shed);
        assert!(short.is_none(), "its wait to the seal exceeds the deadline");
        assert_eq!(shed, vec![(2, Ns(20.0))]);
        assert!(batcher.step(None, &mut shed).is_none());
        assert_eq!(shed, vec![(2, Ns(20.0)), (3, Ns(500.0))]);
    }

    #[test]
    fn micro_batcher_partitions_without_loss() {
        let arrivals: Vec<(u64, Ns)> = (0..1_000u64).map(|i| (i, Ns(i as f64 * 137.0))).collect();
        let cfg = MicroBatcherConfig {
            max_batch: 48,
            linger: Ns::from_us(2.0),
            deadline: None,
        };
        let plan = MicroBatcher::plan(&arrivals, &cfg);
        let mut seen: Vec<u64> = plan
            .batches
            .iter()
            .flat_map(|b| b.members.iter().map(|&(s, _)| s))
            .chain(plan.shed.iter().map(|&(s, _)| s))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..1_000).collect::<Vec<_>>());
        for b in &plan.batches {
            assert!(b.members.len() <= cfg.max_batch);
            let first = b.members[0].1;
            assert!(b.seal.saturating_sub(first) <= cfg.linger);
            for &(_, arr) in &b.members {
                assert!(arr <= b.seal);
            }
        }
    }

    #[test]
    fn micro_batcher_seals_full_batches_early() {
        // 10 requests at t=0: with max_batch 4 the first two batches seal
        // immediately, not after the linger.
        let arrivals: Vec<(u64, Ns)> = (0..10u64).map(|i| (i, Ns::ZERO)).collect();
        let plan = MicroBatcher::plan(
            &arrivals,
            &MicroBatcherConfig {
                max_batch: 4,
                linger: Ns::from_ms(1.0),
                deadline: None,
            },
        );
        assert_eq!(plan.batches.len(), 3);
        assert_eq!(plan.batches[0].seal, Ns::ZERO);
        assert_eq!(plan.batches[1].seal, Ns::ZERO);
        // The last, short batch waits out the linger.
        assert_eq!(plan.batches[2].seal, Ns::from_ms(1.0));
    }

    #[test]
    fn sharded_queue_close_drains_then_ends() {
        let q: ShardedQueue<u32> = ShardedQueue::new(2, 4);
        q.push(0, 1);
        q.push(0, 2);
        q.push(1, 3);
        q.close();
        assert_eq!(q.pop(0), Some(1));
        assert_eq!(q.pop(0), Some(2));
        assert_eq!(q.pop(0), None);
        assert_eq!(q.pop(1), Some(3));
        assert_eq!(q.pop(1), None);
        assert_eq!(q.shard_count(), 2);
    }
}
