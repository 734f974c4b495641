//! The sharded, batching scheduler.
//!
//! Data path: [`Scheduler::submit`] hashes the request's [`BucketKey`] to
//! a shard and admits it to that shard's bounded queue (backpressure: a
//! full queue rejects with [`SubmitError::QueueFull`]). Each shard owns
//! one scheduler thread and one [`me_par::WorkerPool`]; the thread picks
//! the next request (the head, or with several tenants the deficit
//! round-robin choice), coalesces up to `batch_max` same-bucket requests
//! (FIFO within the bucket, non-matching requests keep their relative
//! order), and executes the batch:
//!
//! - **GEMM buckets** share one `B` operand (`Arc` identity), one alpha,
//!   and one kernel variant, so the batch row-stacks the `A` operands
//!   into a single `(Σmᵢ) × k × n` GEMM on the shard's pool. This is the
//!   batching payoff the paper's utilization argument needs: one B-pack
//!   per batch instead of per request, full MR-tile occupancy for skinny
//!   requests — and it is **bitwise identical** to running each request
//!   alone, because the packed core's per-element FMA order never
//!   depends on the row partition (`me-linalg::blas3`'s fixed-kernel
//!   guarantee).
//! - **Ozaki buckets** execute per request, fanned over the pool; each
//!   request is the exact serial [`me_ozaki::ozaki_gemm`].
//!
//! ## Shard queue
//!
//! Each shard owns one `Mutex<Inbox>` plus a `Condvar`. Producers admit
//! under the lock — closed check, then the capacity check against the
//! shard's *logical* depth (inbox + the shard thread's local ready and
//! delayed queues), then the `enqueued` bump before the push — and
//! notify only while the shard thread is waiting. The shard thread takes
//! the whole inbox in one `append` and does everything else off the
//! lock on its own `ready`/`delayed` queues: promoting due retries,
//! drop-head shedding, and per-tenant deficit round-robin coalescing. It
//! frees a batch's depth under one short lock before executing it.
//!
//! Robustness: per-request deadlines (checked
//! at dequeue and again after execution), bounded retries with
//! exponential backoff for transient failures, drop-head load shedding
//! beyond the configured watermark, and panic isolation — a panicking
//! job fails its own ticket and never takes down the shard. The shard
//! thread alone resolves tickets, in batch FIFO order, stamping a global
//! resolution sequence number and the submission→resolution latency
//! (p50/p95/p99 in [`StatsSnapshot`]); the conservation counters account
//! for every accepted request exactly once, per tenant and in total.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use me_linalg::{BOperand, GemmPlan, Mat, PackedB, Workers};
use me_ozaki::ozaki_gemm;

use crate::cache::{CacheStats, WeightCache};
use crate::fault::{Fault, FaultPlan, FaultStage, INJECTED_PANIC};
use crate::request::{
    BucketKey, Completion, Job, JobKind, Outcome, SubmitError, Ticket, TicketState,
};
use crate::stats::{ServeStats, StatsSnapshot, TenantSnapshot};

/// Ceiling on the retry-backoff exponent (backoff = base · 2^min(attempt, CAP)).
const BACKOFF_EXP_CAP: u32 = 10;
// The backoff multiplier is `1u32 << exp`: a cap at or beyond the u32
// width would make the shift overflow (or, pre-hardening, wrap to a
// silent zero backoff). Fail the build, not the retry path.
const _: () = assert!(BACKOFF_EXP_CAP < 32, "backoff exponent cap must fit a u32 shift");

/// Scheduler configuration. `Default` is a production-shaped setup:
/// auto shards/threads, a 1024-deep queue per shard, batches of up to
/// 64, two retries with 1 ms base backoff, shedding disabled (watermark
/// = capacity), single-tenant, no fault injection.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard count; `0` = auto ([`crate::resolve_shards`]: `ME_SHARDS`,
    /// else min(4, available parallelism)). Read once at
    /// [`Scheduler::new`] — see DESIGN.md §10 for the startup-read
    /// contract.
    pub shards: usize,
    /// Worker-pool width per shard; `0` = auto
    /// ([`me_par::resolve_threads`]: `ME_THREADS`, else the OS).
    pub shard_threads: usize,
    /// Bounded per-shard queue capacity (ready + delayed); a full queue
    /// rejects new submissions with [`SubmitError::QueueFull`]. Retries
    /// re-enter above this bound so an admitted request is never lost.
    pub queue_capacity: usize,
    /// Drop-head shedding watermark: when a shard starts a cycle with
    /// more than this many ready requests, the oldest excess resolves
    /// [`Outcome::Shed`]. `0` means "= capacity" (shedding only via
    /// backpressure).
    pub shed_watermark: usize,
    /// Maximum requests coalesced into one batched execution.
    pub batch_max: usize,
    /// Retries allowed after a transient failure before the request
    /// resolves [`Outcome::Failed`].
    pub max_retries: u32,
    /// Base of the exponential retry backoff.
    pub backoff_base: Duration,
    /// Deterministic fault plan (tests/benches only; `None` in
    /// production).
    pub fault_plan: Option<FaultPlan>,
    /// Prepacked-B weight cache bound in bytes of packed payload.
    /// `usize::MAX` = auto ([`crate::resolve_weight_cache`]:
    /// `ME_WEIGHT_CACHE`, else 64 MiB); `0` disables the cache entirely
    /// (every batch re-packs, the pre-cache behavior). Resolved once at
    /// [`Scheduler::new`] under the §10 startup-read contract.
    pub weight_cache_bytes: usize,
    /// Per-tenant weights for deficit-weighted fair selection; empty =
    /// auto ([`crate::resolve_tenant_weights`]: `ME_TENANT_WEIGHTS`
    /// comma list, else single-tenant FIFO). Tenant ids map onto slots
    /// modulo the weight count; zero weights clamp to 1.
    pub tenant_weights: Vec<u64>,
    /// Startup blocking-autotune policy; `None` = auto
    /// ([`crate::resolve_autotune`]: `ME_AUTOTUNE` `startup`/`off`, else
    /// off). With [`AutotunePolicy::Startup`] resolved, `Scheduler::new`
    /// runs the quick GEMMbench sweep once — loading the persisted
    /// artifact instead when one exists — and installs the winners
    /// before any shard worker starts. Read once under the §10
    /// startup-read contract.
    pub autotune: Option<crate::AutotunePolicy>,
    /// Autotune artifact location; `None` = `artifacts/autotune.json`
    /// (the path the benches share). Only consulted when the resolved
    /// policy is [`AutotunePolicy::Startup`].
    pub autotune_path: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 0,
            shard_threads: 0,
            queue_capacity: 1024,
            shed_watermark: 0,
            batch_max: 64,
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            fault_plan: None,
            weight_cache_bytes: usize::MAX,
            tenant_weights: Vec::new(),
            autotune: None,
            autotune_path: None,
        }
    }
}

/// One admitted request, as it lives in a shard queue.
struct Pending {
    id: u64,
    key: BucketKey,
    job: JobKind,
    deadline: Option<Instant>,
    attempt: u32,
    /// Tenant slot (already reduced modulo the configured slot count).
    tenant: u32,
    /// Submission instant, for the latency histogram.
    submitted: Instant,
    ticket: Arc<TicketState>,
}

/// A retried request waiting out its backoff.
struct Delayed {
    ready_at: Instant,
    seq: u64,
    pending: Pending,
}

/// What producers and the shard thread share, under the shard's lock.
struct Inbox {
    /// Admitted requests the shard thread has not taken yet.
    items: VecDeque<Pending>,
    /// Logical queue depth: `items` plus the shard thread's local ready
    /// and delayed queues. Admission checks capacity against this, so a
    /// request counts from its admission until it leaves the queue into
    /// a batch, the shed set or the dead set.
    depth: usize,
    /// Shutdown has begun: admissions reject, the shard thread drains.
    closed: bool,
    /// The shard thread is waiting on the condvar; producers notify
    /// only while this is set.
    waiting: bool,
}

/// One shard's bounded queue.
struct ShardQueue {
    inbox: Mutex<Inbox>,
    cv: Condvar,
    capacity: usize,
}

impl ShardQueue {
    fn lock(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Everything a shard thread needs, cloneable into the thread.
#[derive(Clone)]
struct ShardCtx {
    stats: Arc<ServeStats>,
    order: Arc<AtomicU64>,
    plan: Option<FaultPlan>,
    width: usize,
    batch_max: usize,
    shed_watermark: usize,
    max_retries: u32,
    backoff_base: Duration,
    /// Resolved per-tenant weights (len ≥ 1, all ≥ 1).
    tenant_weights: Arc<[u64]>,
    /// Shared prepacked-B weight cache; `None` = caching disabled.
    cache: Option<Arc<WeightCache>>,
}

/// The batched, sharded GEMM request scheduler. See the module docs for
/// the data path; see [`ServeConfig`] for the knobs.
///
/// Dropping the scheduler (or calling [`Scheduler::shutdown`]) drains
/// gracefully: no new submissions are accepted, every already-admitted
/// request — including in-flight retries — resolves, and the shard
/// threads are joined.
pub struct Scheduler {
    queues: Vec<Arc<ShardQueue>>,
    threads: Vec<Option<JoinHandle<()>>>,
    stats: Arc<ServeStats>,
    order: Arc<AtomicU64>,
    next_id: AtomicU64,
    accepting: AtomicBool,
    plan: Option<FaultPlan>,
    pool_width: usize,
    tenant_weights: Arc<[u64]>,
    cache: Option<Arc<WeightCache>>,
}

impl Scheduler {
    /// Build and start a scheduler. Shard count, pool width, tenant
    /// weights, and cache size resolve through
    /// [`crate::resolve_shards`] / [`me_par::resolve_threads`] /
    /// [`crate::resolve_tenant_weights`] /
    /// [`crate::resolve_weight_cache`] **here, once** — environment
    /// changes after construction do not retarget a live scheduler.
    pub fn new(config: ServeConfig) -> Scheduler {
        if crate::resolve_autotune(config.autotune) == crate::AutotunePolicy::Startup {
            let path = config
                .autotune_path
                .clone()
                .unwrap_or_else(|| std::path::PathBuf::from("artifacts/autotune.json"));
            let sweep = me_linalg::blas3::autotune::SweepConfig::QUICK;
            match me_linalg::blas3::autotune::ensure_autotuned(&path, sweep) {
                Ok(_) => me_trace::counter_add("serve.autotune_startup", 1),
                // A failed sweep must not take the serving layer down:
                // the compiled blocking defaults are always valid.
                Err(e) => eprintln!(
                    "me-serve: startup autotune failed ({e}); keeping compiled blocking defaults"
                ),
            }
        }
        let nshards = crate::resolve_shards(config.shards);
        let width = me_par::resolve_threads(config.shard_threads);
        let capacity = config.queue_capacity.max(1);
        let watermark = if config.shed_watermark == 0 {
            capacity
        } else {
            config.shed_watermark.clamp(1, capacity)
        };
        let tenant_weights: Arc<[u64]> =
            crate::resolve_tenant_weights(&config.tenant_weights).into();
        let stats = Arc::new(ServeStats::new(tenant_weights.len()));
        let order = Arc::new(AtomicU64::new(0));
        let cache_bytes = crate::resolve_weight_cache(config.weight_cache_bytes);
        let cache = if cache_bytes == 0 {
            None
        } else {
            Some(Arc::new(WeightCache::new(cache_bytes)))
        };
        let mut queues = Vec::with_capacity(nshards);
        let mut threads = Vec::with_capacity(nshards);
        for i in 0..nshards {
            let queue = Arc::new(ShardQueue {
                inbox: Mutex::new(Inbox {
                    items: VecDeque::new(),
                    depth: 0,
                    closed: false,
                    waiting: false,
                }),
                cv: Condvar::new(),
                capacity,
            });
            let ctx = ShardCtx {
                stats: Arc::clone(&stats),
                order: Arc::clone(&order),
                plan: config.fault_plan,
                width,
                batch_max: config.batch_max.max(1),
                shed_watermark: watermark,
                max_retries: config.max_retries,
                backoff_base: config.backoff_base,
                tenant_weights: Arc::clone(&tenant_weights),
                cache: cache.clone(),
            };
            let builder = std::thread::Builder::new().name(format!("me-serve-shard-{i}"));
            // If the OS refuses the spawn, the shard runs in synchronous
            // fallback mode: submissions targeting it execute inline on
            // the caller's thread (see `submit`). Nothing is lost, only
            // the asynchrony.
            let thread_queue = Arc::clone(&queue);
            let handle = builder.spawn(move || shard_loop(ctx, &thread_queue)).ok();
            queues.push(queue);
            threads.push(handle);
        }
        Scheduler {
            queues,
            threads,
            stats,
            order,
            next_id: AtomicU64::new(0),
            accepting: AtomicBool::new(true),
            plan: config.fault_plan,
            pool_width: width,
            tenant_weights,
            cache,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Worker-pool width each shard executes with.
    pub fn pool_width(&self) -> usize {
        self.pool_width
    }

    /// The resolved per-tenant weights (len ≥ 1, every weight ≥ 1).
    pub fn tenant_weights(&self) -> &[u64] {
        &self.tenant_weights
    }

    /// Snapshot the conservation counters, with the weight-cache
    /// counters folded in when caching is enabled.
    pub fn stats(&self) -> StatsSnapshot {
        self.snapshot_with_cache()
    }

    /// Per-tenant conservation snapshots, one per configured weight
    /// slot.
    pub fn tenant_stats(&self) -> Vec<TenantSnapshot> {
        self.stats.tenant_snapshots()
    }

    /// The full submission→resolution latency histogram (log2 buckets,
    /// nanoseconds) — the source of the snapshot's p50/p95/p99 fields,
    /// exposed for SLO calibration and exporters.
    pub fn latency_histogram(&self) -> me_trace::Histogram {
        self.stats.latency_histogram()
    }

    /// Snapshot the prepacked-B weight cache counters; `None` when the
    /// cache is disabled (`weight_cache_bytes == 0` or
    /// `ME_WEIGHT_CACHE=0`).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    fn snapshot_with_cache(&self) -> StatsSnapshot {
        let mut snap = self.stats.snapshot();
        if let Some(cs) = self.cache_stats() {
            snap.cache_hits = cs.hits;
            snap.cache_misses = cs.misses;
            snap.cache_evictions = cs.evictions;
            snap.cache_pack_bytes_saved = cs.pack_bytes_saved;
        }
        snap
    }

    /// Submit a request. On success the returned [`Ticket`] resolves
    /// exactly once; on failure no ticket exists and the request is not
    /// part of the conservation accounting.
    pub fn submit(&self, job: Job) -> Result<Ticket, SubmitError> {
        let _s = me_trace::span("serve.enqueue", "serve");
        if !job.shape_ok() {
            return Err(SubmitError::BadShape);
        }
        if !self.accepting.load(Ordering::Acquire) {
            ServeStats::bump(&self.stats.rejected_shutdown);
            return Err(SubmitError::ShuttingDown);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let deadline = job.timeout.map(|t| now + t);
        if let Some(plan) = &self.plan {
            FaultPlan::apply_delay(plan.decide(FaultStage::Enqueue, id, 0));
        }
        let key = BucketKey::of(&job);
        let shard = (key.shard_hash() % self.queues.len() as u64) as usize;
        let tenant = job.tenant.0 % self.tenant_weights.len() as u32;
        let ticket_state = TicketState::new();
        let pending = Pending {
            id,
            key,
            job: job.kind,
            deadline,
            attempt: 0,
            tenant,
            submitted: now,
            ticket: Arc::clone(&ticket_state),
        };
        let inline = self.admit(&self.queues[shard], pending, self.threads[shard].is_some())?;
        me_trace::counter_add("serve.enqueued", 1);
        if let Some(pending) = inline {
            self.execute_inline(pending);
        }
        Ok(Ticket { state: ticket_state, id })
    }

    /// Admit one request to a shard's inbox. The `enqueued` counters are
    /// bumped **under the lock, before the push** — the shard thread can
    /// only take the request after the unlock, so any snapshot that sees
    /// a resolution also sees its admission (stats.rs ordering contract).
    /// Returns the request back when the shard has no thread (its spawn
    /// failed at startup) and the caller must run it inline.
    // me-verify: hot
    fn admit(
        &self,
        queue: &ShardQueue,
        pending: Pending,
        has_thread: bool,
    ) -> Result<Option<Pending>, SubmitError> {
        let mut inbox = queue.lock();
        if inbox.closed {
            ServeStats::bump(&self.stats.rejected_shutdown);
            return Err(SubmitError::ShuttingDown);
        }
        if inbox.depth >= queue.capacity {
            ServeStats::bump(&self.stats.rejected_full);
            me_trace::counter_add("serve.rejected", 1);
            return Err(SubmitError::QueueFull);
        }
        ServeStats::bump(&self.stats.enqueued);
        ServeStats::bump(&self.stats.tenant_slot(pending.tenant).enqueued);
        if !has_thread {
            return Ok(Some(pending));
        }
        inbox.depth += 1;
        let depth = inbox.depth as u64;
        inbox.items.push_back(pending);
        let wake = inbox.waiting;
        drop(inbox);
        // A waiting shard thread re-takes the lock on wakeup, so the
        // notify need not hold it.
        if wake {
            queue.cv.notify_one();
        }
        ServeStats::record_max(&self.stats.queue_high_water, depth);
        me_trace::hist_record("serve.queue_depth", depth);
        Ok(None)
    }

    /// Execute a request synchronously on the caller's thread (spawn
    /// failed at startup). `max_retries` pins to 0, so `execute_batch`
    /// can never hand back a retry here.
    fn execute_inline(&self, pending: Pending) {
        let ctx = ShardCtx {
            stats: Arc::clone(&self.stats),
            order: Arc::clone(&self.order),
            plan: self.plan,
            width: 1,
            batch_max: 1,
            shed_watermark: usize::MAX,
            max_retries: 0,
            backoff_base: Duration::ZERO,
            tenant_weights: Arc::clone(&self.tenant_weights),
            cache: self.cache.clone(),
        };
        let pool = me_par::WorkerPool::new(1);
        let retries = execute_batch(&ctx, &pool, vec![pending]);
        for p in retries {
            // Defensive: impossible with max_retries = 0, but a dropped
            // Pending would leak an unresolved ticket.
            resolve(&ctx, p, Outcome::Failed("internal: retry on fallback shard".to_string()));
        }
    }

    /// Stop accepting, drain every queue (including pending retries),
    /// resolve everything, and join the shard threads. Returns the final
    /// counter snapshot, on which
    /// [`StatsSnapshot::is_conserved`] must hold.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.begin_shutdown();
        for handle in self.threads.iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
        self.snapshot_with_cache()
    }

    fn begin_shutdown(&self) {
        self.accepting.store(false, Ordering::Release);
        for queue in &self.queues {
            queue.lock().closed = true;
            queue.cv.notify_all();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.threads.iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("shards", &self.queues.len())
            .field("pool_width", &self.pool_width)
            .field("tenants", &self.tenant_weights.len())
            .finish()
    }
}

/// Move every due delayed entry into the ready queue, oldest first.
///
/// Entries whose **deadline** has already expired are drained into
/// `dead` instead of being dispatched — the caller resolves them
/// `TimedOut`. Before this check, a retried request whose deadline
/// passed mid-backoff would still be promoted and executed dead.
fn promote_due(
    delayed: &mut Vec<Delayed>,
    ready: &mut VecDeque<Pending>,
    now: Instant,
    stats: &ServeStats,
    dead: &mut Vec<Pending>,
) {
    if delayed.is_empty() {
        return;
    }
    let mut i = 0;
    while i < delayed.len() {
        if delayed[i].pending.deadline.is_some_and(|d| d <= now) {
            let d = delayed.swap_remove(i);
            dead.push(d.pending);
        } else {
            i += 1;
        }
    }
    delayed.sort_by_key(|d| (d.ready_at, d.seq));
    while delayed.first().is_some_and(|d| d.ready_at <= now) {
        let d = delayed.remove(0);
        ready.push_back(d.pending);
        ServeStats::record_max(&stats.queue_high_water, ready.len() as u64);
    }
}

/// Deficit-weighted round-robin tenant selection.
///
/// Classic DRR with a per-request cost of 1: each round-robin visit
/// grants a tenant its weight in credit; the first backlogged tenant
/// with positive credit is served, and every admitted request charges
/// one credit to *its own* tenant. Over a saturated window the served
/// ratio converges to the weight ratio regardless of batch size (a
/// tenant that got a big batch goes correspondingly deep into deficit
/// and waits proportionally longer). Banked credit is capped at one
/// weight quantum so an idle tenant cannot burst past its share later,
/// and a sole-backlogged tenant resets all credit (fairness is about
/// contention; there is nothing to arbitrate).
struct FairState {
    weights: Arc<[u64]>,
    deficit: Vec<i64>,
    /// Scratch: which tenants have backlogged work this cycle.
    active: Vec<bool>,
    cursor: usize,
}

impl FairState {
    fn new(weights: Arc<[u64]>) -> FairState {
        let n = weights.len();
        FairState { weights, deficit: vec![0; n], active: vec![false; n], cursor: 0 }
    }

    /// Pick the queue index of the request to serve next, or `None` on
    /// an empty queue. Single-tenant configurations always pick the
    /// head — exactly the legacy FIFO.
    fn select(&mut self, ready: &VecDeque<Pending>) -> Option<usize> {
        if ready.is_empty() {
            return None;
        }
        let t = self.weights.len();
        if t <= 1 {
            return Some(0);
        }
        for a in self.active.iter_mut() {
            *a = false;
        }
        let mut nactive = 0usize;
        for p in ready {
            let s = p.tenant as usize;
            if !self.active[s] {
                self.active[s] = true;
                nactive += 1;
            }
        }
        if nactive == 1 {
            // No contention: serve FIFO and clear banked credit so the
            // idle period does not distort the next contended window.
            for d in self.deficit.iter_mut() {
                *d = 0;
            }
            return Some(0);
        }
        // Deficit round-robin: a tenant keeps the turn while it has both
        // work and unspent credit; the quantum (its weight, in requests)
        // is granted only when the rotation *arrives* at a tenant — so a
        // weight-w tenant is served w requests per cycle, not one.
        loop {
            let i = self.cursor;
            if self.active[i] && self.deficit[i] > 0 {
                return ready.iter().position(|p| p.tenant as usize == i);
            }
            self.cursor = (self.cursor + 1) % t;
            let j = self.cursor;
            if !self.active[j] {
                // An idle tenant's banked credit would distort the next
                // contended window; clear it as the rotation passes.
                self.deficit[j] = 0;
                continue;
            }
            // Cap the bank at one quantum so credit cannot accumulate
            // across cycles the tenant spent unserved.
            self.deficit[j] = (self.deficit[j] + self.weights[j] as i64)
                .min(self.weights[j] as i64);
            if self.deficit[j] > 0 {
                return ready.iter().position(|p| p.tenant as usize == j);
            }
        }
    }

    /// Charge one served request to its tenant.
    fn charge(&mut self, tenant: u32) {
        if self.weights.len() > 1 {
            self.deficit[tenant as usize] -= 1;
        }
    }
}

/// Coalesce a batch out of the local ready queue: fair-select the next
/// request to serve, then collect up to `batch_max` members of its
/// bucket **in full queue order** (requests earlier in the queue that
/// share the bucket ride along, so FIFO-per-bucket holds), charging each
/// admitted request to its own tenant.
fn coalesce_fair(
    fair: &mut FairState,
    ready: &mut VecDeque<Pending>,
    batch_max: usize,
) -> Vec<Pending> {
    let Some(idx) = fair.select(ready) else {
        return Vec::new();
    };
    let key = ready[idx].key;
    let mut batch = Vec::new();
    let mut rest = VecDeque::with_capacity(ready.len());
    for p in ready.drain(..) {
        if batch.len() < batch_max && p.key == key {
            fair.charge(p.tenant);
            batch.push(p);
        } else {
            rest.push_back(p);
        }
    }
    *ready = rest;
    batch
}

/// The shard loop. The shard thread is the inbox's only consumer: it
/// takes every admission in one `append` onto its local ready queue,
/// waits on the condvar only when it has nothing ready and no retry is
/// due, and does all queue work — promoting due retries, shedding, fair
/// selection and coalescing — off the lock.
///
/// Exit condition: the inbox is closed and empty and the local ready and
/// delayed queues are empty. Admission happens under the lock and checks
/// `closed` first, so no request can arrive after the loop has seen the
/// closed, empty inbox.
fn shard_loop(ctx: ShardCtx, queue: &ShardQueue) {
    me_trace::register_current_thread();
    let pool = me_par::WorkerPool::new(ctx.width);
    let mut ready: VecDeque<Pending> = VecDeque::new();
    let mut delayed: Vec<Delayed> = Vec::new();
    let mut delay_seq: u64 = 0;
    let mut fair = FairState::new(Arc::clone(&ctx.tenant_weights));
    loop {
        {
            let mut inbox = queue.lock();
            loop {
                ready.append(&mut inbox.items);
                let now = Instant::now();
                let next_due = delayed.iter().map(|d| d.ready_at).min();
                if !ready.is_empty() || next_due.is_some_and(|t| t <= now) {
                    break;
                }
                if inbox.closed && next_due.is_none() {
                    return;
                }
                inbox.waiting = true;
                inbox = match next_due {
                    Some(t) => {
                        let wait = t
                            .saturating_duration_since(now)
                            .max(Duration::from_micros(50));
                        queue.cv.wait_timeout(inbox, wait).unwrap_or_else(|e| e.into_inner()).0
                    }
                    None => queue.cv.wait(inbox).unwrap_or_else(|e| e.into_inner()),
                };
                inbox.waiting = false;
            }
        }
        let mut dead: Vec<Pending> = Vec::new();
        promote_due(&mut delayed, &mut ready, Instant::now(), &ctx.stats, &mut dead);
        // Drop-head load shedding: beyond the watermark, the oldest
        // requests resolve Shed so queue latency stays bounded.
        let excess = ready.len().saturating_sub(ctx.shed_watermark);
        let shed: Vec<Pending> = ready.drain(..excess).collect();
        let batch = coalesce_fair(&mut fair, &mut ready, ctx.batch_max);
        // Everything resolved or handed to execution has left the
        // logical queue; free its depth in one step.
        let leaving = dead.len() + shed.len() + batch.len();
        if leaving > 0 {
            queue.lock().depth -= leaving;
        }
        for p in dead {
            ServeStats::bump(&ctx.stats.retries_timed_out);
            me_trace::counter_add("serve.retry_timeout", 1);
            resolve(&ctx, p, Outcome::TimedOut);
        }
        for p in shed {
            resolve(&ctx, p, Outcome::Shed);
        }
        if !batch.is_empty() {
            let retries = execute_batch(&ctx, &pool, batch);
            requeue(&ctx, queue, &mut delayed, &mut delay_seq, retries);
        }
        me_trace::flush_thread();
    }
}

/// Compute a retry's wakeup instant; `None` when the deadline expires
/// within (or before) the backoff window — the caller resolves it
/// `TimedOut` instead of waiting out a pointless backoff.
fn retry_schedule(ctx: &ShardCtx, pending: &Pending, now: Instant) -> Option<Instant> {
    let exp = (pending.attempt.saturating_sub(1)).min(BACKOFF_EXP_CAP);
    // `checked_shl` + the compile-time cap assert: a future
    // BACKOFF_EXP_CAP bump can never wrap the multiplier to a silent
    // zero backoff; saturate to the 1 s ceiling instead.
    let backoff = 1u32
        .checked_shl(exp)
        .and_then(|mult| ctx.backoff_base.checked_mul(mult))
        .unwrap_or(Duration::from_secs(1));
    let ready_at = now + backoff;
    if pending.deadline.is_some_and(|d| ready_at >= d) {
        None
    } else {
        Some(ready_at)
    }
}

/// Requeue retries on the shard thread's local delayed queue. Each
/// re-entering request re-claims logical depth under one short lock,
/// above the capacity bound, so an admitted request is never lost to its
/// own retry.
fn requeue(
    ctx: &ShardCtx,
    queue: &ShardQueue,
    delayed: &mut Vec<Delayed>,
    delay_seq: &mut u64,
    retries: Vec<Pending>,
) {
    let now = Instant::now();
    let before = delayed.len();
    for pending in retries {
        match retry_schedule(ctx, &pending, now) {
            None => {
                ServeStats::bump(&ctx.stats.retries_timed_out);
                me_trace::counter_add("serve.retry_timeout", 1);
                resolve(ctx, pending, Outcome::TimedOut);
            }
            Some(ready_at) => {
                ServeStats::bump(&ctx.stats.retries);
                me_trace::counter_add("serve.retry", 1);
                delayed.push(Delayed { ready_at, seq: *delay_seq, pending });
                *delay_seq += 1;
            }
        }
    }
    let reentered = delayed.len() - before;
    if reentered > 0 {
        queue.lock().depth += reentered;
    }
}

/// Result of one execution attempt.
enum ExecResult {
    Done(Mat<f64>),
    Transient,
    Panicked(String),
}

/// One batch member during execution.
struct Slot {
    pending: Pending,
    /// `None` while runnable; `Some` once a terminal outcome is known
    /// before/without execution (forced timeout, expired deadline).
    pre: Option<Outcome>,
    result: Option<ExecResult>,
}

fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("job panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("job panicked: {s}")
    } else {
        "job panicked".to_string()
    }
}

/// Execute one coalesced batch and resolve every member in FIFO order.
/// Members that failed transiently and still have retry budget are
/// returned to the caller for requeueing (their `attempt`
/// already incremented).
fn execute_batch(ctx: &ShardCtx, pool: &me_par::WorkerPool, batch: Vec<Pending>) -> Vec<Pending> {
    let _b = me_trace::span("serve.batch", "serve");
    ServeStats::bump(&ctx.stats.batches);
    ctx.stats
        .batched_requests
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    ServeStats::record_max(&ctx.stats.max_batch, batch.len() as u64);
    me_trace::hist_record("serve.batch_size", batch.len() as u64);

    // Dequeue stage: forced timeouts, injected delays, expired deadlines.
    let now = Instant::now();
    let mut slots: Vec<Slot> = batch
        .into_iter()
        .map(|pending| {
            let mut pre = None;
            if let Some(plan) = &ctx.plan {
                match plan.decide(FaultStage::Dequeue, pending.id, pending.attempt) {
                    Fault::ForceTimeout => pre = Some(Outcome::TimedOut),
                    fault => FaultPlan::apply_delay(fault),
                }
            }
            if pre.is_none() && pending.deadline.is_some_and(|d| d <= now) {
                pre = Some(Outcome::TimedOut);
            }
            Slot { pending, pre, result: None }
        })
        .collect();

    let stackable = matches!(slots.first().map(|s| &s.pending.key), Some(BucketKey::Gemm { .. }));
    let runnable = slots.iter().filter(|s| s.pre.is_none()).count();
    if runnable > 0 {
        if stackable && runnable > 1 {
            execute_stacked_gemm(ctx, pool, &mut slots);
        } else {
            execute_fan_out(ctx, pool, &mut slots);
        }
    }

    // Resolution, FIFO within the batch; transient failures with budget
    // left go back to the caller for requeueing.
    let mut retries: Vec<Pending> = Vec::new();
    let now = Instant::now();
    for slot in slots {
        let Slot { mut pending, pre, result } = slot;
        let outcome = if let Some(outcome) = pre {
            outcome
        } else {
            match result {
                Some(ExecResult::Done(c)) => {
                    pending.attempt += 1;
                    if pending.deadline.is_some_and(|d| d <= now) {
                        Outcome::TimedOut
                    } else {
                        Outcome::Ok(c)
                    }
                }
                Some(ExecResult::Transient) => {
                    pending.attempt += 1;
                    if pending.attempt <= ctx.max_retries {
                        retries.push(pending);
                        continue;
                    }
                    Outcome::Failed(format!(
                        "transient failure persisted through {} attempts",
                        pending.attempt
                    ))
                }
                Some(ExecResult::Panicked(msg)) => {
                    pending.attempt += 1;
                    Outcome::Failed(msg)
                }
                // Defensive: a runnable slot the executor skipped would
                // be a scheduler bug; fail it loudly rather than lose it.
                None => Outcome::Failed("internal: request was never executed".to_string()),
            }
        };
        resolve(ctx, pending, outcome);
    }
    retries
}

/// Decide the execute-stage fault for a slot.
fn execute_fault(ctx: &ShardCtx, pending: &Pending) -> Fault {
    match &ctx.plan {
        Some(plan) => plan.decide(FaultStage::Execute, pending.id, pending.attempt),
        None => Fault::None,
    }
}

/// Row-stacked execution of a shared-B GEMM bucket: one big GEMM on the
/// pool, then per-request row extraction. Injected panics/failures are
/// screened per request *before* stacking so they fail only their own
/// handle; a genuine panic inside the stacked GEMM fails every stacked
/// member (never the shard).
fn execute_stacked_gemm(ctx: &ShardCtx, pool: &me_par::WorkerPool, slots: &mut [Slot]) {
    let _s = me_trace::span("serve.exec_stacked", "serve");
    let mut members: Vec<usize> = Vec::with_capacity(slots.len());
    for (i, slot) in slots.iter_mut().enumerate() {
        if slot.pre.is_some() {
            continue;
        }
        match execute_fault(ctx, &slot.pending) {
            Fault::Panic => slot.result = Some(ExecResult::Panicked(INJECTED_PANIC.to_string())),
            Fault::Transient => slot.result = Some(ExecResult::Transient),
            fault => {
                FaultPlan::apply_delay(fault);
                members.push(i);
            }
        }
    }
    if members.is_empty() {
        return;
    }
    // All members share (B, k, n, alpha, variant) by bucket construction.
    let JobKind::Gemm(first) = &slots[members[0]].pending.job else {
        // A non-GEMM job can never carry a Gemm bucket key; treat it as a
        // failed member rather than poisoning the batch.
        slots[members[0]].result =
            Some(ExecResult::Panicked("internal: non-GEMM job in GEMM bucket".to_string()));
        return;
    };
    let variant = first.variant;
    let alpha = first.alpha;
    let b = Arc::clone(&first.b);
    let key = slots[members[0]].pending.key;
    let (k, n) = (b.rows(), b.cols());
    let total_m: usize = members
        .iter()
        .map(|&i| match &slots[i].pending.job {
            JobKind::Gemm(g) => g.a.rows(),
            JobKind::Ozaki(_) => 0,
        })
        .sum();
    ctx.stats.stacked_rows.fetch_add(total_m as u64, Ordering::Relaxed);
    let mut a_stack = Mat::<f64>::zeros(total_m, k);
    let mut r0 = 0usize;
    let mut offsets: Vec<(usize, usize)> = Vec::with_capacity(members.len());
    for &i in &members {
        if let JobKind::Gemm(g) = &slots[i].pending.job {
            let m = g.a.rows();
            for r in 0..m {
                a_stack.row_mut(r0 + r).copy_from_slice(g.a.row(r));
            }
            offsets.push((r0, m));
            r0 += m;
        }
    }
    let mut c_stack = Mat::<f64>::zeros(total_m, n);
    // Weight-cache fast path: fetch (or pack exactly once) the prepacked
    // B panels for this bucket. Bitwise-identical to the fresh-pack call
    // below — same pack routine, same kc grid (validated on lookup).
    let packed: Option<Arc<PackedB<f64>>> =
        ctx.cache.as_ref().map(|wc| wc.get_or_pack(key, &b, variant));
    let b_op = packed.as_deref().map_or(BOperand::Fresh(&*b), BOperand::Packed);
    let plan = GemmPlan::new(variant).with_workers(Workers::Pool(pool));
    let run = catch_unwind(AssertUnwindSafe(|| plan.run(alpha, &a_stack, b_op, 0.0, &mut c_stack)));
    match run {
        Ok(()) => {
            for (&i, &(r0, m)) in members.iter().zip(&offsets) {
                let data = c_stack.as_slice()[r0 * n..(r0 + m) * n].to_vec();
                slots[i].result = Some(ExecResult::Done(Mat::from_vec(m, n, data)));
            }
        }
        Err(payload) => {
            let msg = describe_panic(payload.as_ref());
            for &i in &members {
                slots[i].result = Some(ExecResult::Panicked(msg.clone()));
            }
        }
    }
}

/// Run one slot's attempt with its decided fault, isolated by
/// `catch_unwind` so a panic — injected or genuine — fails only this
/// slot.
// me-verify: hot
fn attempt_one(
    job: &JobKind,
    key: BucketKey,
    cache: Option<&WeightCache>,
    fault: Fault,
    pool: &me_par::WorkerPool,
    use_pool: bool,
) -> ExecResult {
    let run = catch_unwind(AssertUnwindSafe(|| {
        if fault == Fault::Panic {
            std::panic::panic_any(INJECTED_PANIC);
        }
        FaultPlan::apply_delay(fault);
        if fault == Fault::Transient {
            return None;
        }
        Some(run_one(job, key, cache, pool, use_pool))
    }));
    match run {
        Ok(Some(c)) => ExecResult::Done(c),
        Ok(None) => ExecResult::Transient,
        Err(payload) => ExecResult::Panicked(describe_panic(payload.as_ref())),
    }
}

/// Per-request execution fanned over the shard's pool (Ozaki buckets and
/// singleton GEMM batches). A batch with exactly one runnable member runs
/// it on the shard thread with the whole pool at its disposal; larger
/// fan-outs run one serial request per pool lane.
fn execute_fan_out(ctx: &ShardCtx, pool: &me_par::WorkerPool, slots: &mut [Slot]) {
    let runnable: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.pre.is_none())
        .map(|(i, _)| i)
        .collect();
    let cache = ctx.cache.as_deref();
    if let [only] = runnable[..] {
        let fault = execute_fault(ctx, &slots[only].pending);
        let key = slots[only].pending.key;
        slots[only].result = Some(attempt_one(&slots[only].pending.job, key, cache, fault, pool, true));
        return;
    }
    let mut work: Vec<(&Pending, &mut Option<ExecResult>, Fault)> = Vec::new();
    for slot in slots.iter_mut() {
        if slot.pre.is_some() {
            continue;
        }
        let fault = execute_fault(ctx, &slot.pending);
        work.push((&slot.pending, &mut slot.result, fault));
    }
    pool.for_each_mut_tagged("serve.exec", &mut work, |_, item| {
        let (pending, result, fault) = item;
        **result = Some(attempt_one(&pending.job, pending.key, cache, *fault, pool, false));
    });
}

/// Compute one request. A batch with a single runnable member may use the
/// whole pool for it (`use_pool` — the fan-out is trivially this one job,
/// run inline by `for_each_mut`, so the pool is free); members of a
/// multi-request fan-out run serial, one request per pool lane.
// me-verify: hot
fn run_one(
    job: &JobKind,
    key: BucketKey,
    cache: Option<&WeightCache>,
    pool: &me_par::WorkerPool,
    use_pool: bool,
) -> Mat<f64> {
    match job {
        JobKind::Gemm(g) => {
            let mut c = Mat::zeros(g.a.rows(), g.b.cols());
            let packed = cache.map(|wc| wc.get_or_pack(key, &g.b, g.variant));
            let b = packed.as_deref().map_or(BOperand::Fresh(&*g.b), BOperand::Packed);
            let workers = if use_pool { Workers::Pool(pool) } else { Workers::Threads(1) };
            GemmPlan::new(g.variant).with_workers(workers).run(g.alpha, &*g.a, b, 0.0, &mut c);
            c
        }
        JobKind::Ozaki(o) => ozaki_gemm(&o.a, &o.b, &o.cfg).c,
    }
}

/// Resolve one ticket with its terminal outcome, stamping the global
/// resolution order and the submission→resolution latency. Double
/// resolutions are counted, never overwritten. Outcome counters bump
/// `Release` (total and per-tenant) so snapshots stay coherent — see the
/// stats.rs ordering contract.
// me-verify: hot
fn resolve(ctx: &ShardCtx, pending: Pending, outcome: Outcome) {
    let tenant = ctx.stats.tenant_slot(pending.tenant);
    let (stat, tstat, counter): (&AtomicU64, &AtomicU64, &'static str) = match &outcome {
        Outcome::Ok(_) => (&ctx.stats.completed_ok, &tenant.completed_ok, "serve.completed"),
        Outcome::TimedOut => (&ctx.stats.timed_out, &tenant.timed_out, "serve.timeout"),
        Outcome::Shed => (&ctx.stats.shed, &tenant.shed, "serve.shed"),
        Outcome::Failed(_) => (&ctx.stats.failed, &tenant.failed, "serve.failed"),
    };
    let latency_ns = pending.submitted.elapsed().as_nanos() as u64;
    ctx.stats.latency.record(latency_ns);
    me_trace::hist_record("serve.latency_ns", latency_ns);
    ServeStats::bump_outcome(tstat);
    ServeStats::bump_outcome(stat);
    me_trace::counter_add(counter, 1);
    let order = ctx.order.fetch_add(1, Ordering::Relaxed);
    let completion = Completion { outcome, order, attempts: pending.attempt };
    if !pending.ticket.resolve(completion) {
        ServeStats::bump(&ctx.stats.double_resolves);
        me_trace::counter_add("serve.double_resolve", 1);
    }
}
