//! The `serve` phase: open-loop, decode-shaped, multi-tenant GEMM traffic
//! through one `Scheduler`.
//!
//! Five model tenants replay the attention (fused QKV) and MLP
//! up-projection GEMMs of Qwen3 and Llama3 at tensor parallelism 8, every
//! feature dimension scaled 1/64, with m ∈ {1, 2, 4, 8}. Each tenant's two
//! weight matrices are shared by all its requests, so those hit the weight
//! cache. A cold share of requests carries a B of its own, drawn in turn
//! from a pool larger than the cache bound: those miss, pack on every
//! batch and keep the cache evicting.
//!
//! Arrivals are Poisson from the seed. One paced submitter (this thread)
//! and one collector thread generate the load; each request's latency
//! runs from when it was due (or from when it was sent, if the pacer sent
//! it a little early) to when the collector saw it resolve.

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use me_linalg::{
    blocking_for, gemm, gemm_tiled_prepacked_with, pack_b_matrix, selected_kernel, GemmAlgo, Mat,
    PackedB,
};
use me_serve::{
    Job, Outcome, Scheduler, ServeConfig, StatsSnapshot, TenantId, Ticket,
    DEFAULT_WEIGHT_CACHE_BYTES,
};

use crate::inputs::{InputHash, Rng};
use crate::spans::{span, span_id};
use crate::stats::{bitwise_eq, median, step_passes, windowed_tail, Checks, Ladder};

/// Offered rate of the latency figures: about half the goodput a 2-core
/// AVX-512 Xeon virtual machine reaches while other tenants load its host.
pub const NOMINAL_RPS: f64 = 8_000.0;
/// The goodput ladder: fixed rates from 8k to 40k req/s, 2.5 % apart
/// (well below the bound on `serve_goodput_rps`).
pub fn ladder_rates() -> Vec<f64> {
    (0..66).map(|i| 8_000.0 * 1.025f64.powi(i)).collect()
}
/// The latency limit a ladder step's tail must meet.
pub const LIMIT_MS: f64 = 50.0;
/// The tail percentile the limit applies to.
pub const TAIL: f64 = 0.99;

/// One request in 16 carries its own B.
const COLD_ONE_IN: usize = 16;
/// Distinct A operands per (tenant, family, m).
const A_VARIANTS: usize = 4;
/// Ok outputs compared with a solo GEMM: one request in this many.
const SAMPLE_ONE_IN: usize = 64;

const SKINNY_M: [usize; 4] = [1, 2, 4, 8];

/// (name, attention heads, kv heads, head dim, intermediate size, weight).
const MODELS: [(&str, usize, usize, usize, usize, u64); 5] = [
    ("Qwen3-32B", 64, 8, 80, 25600, 4),
    ("Qwen3-30B", 16, 16, 128, 6144, 3),
    ("Qwen3-235B", 32, 32, 128, 12288, 2),
    ("Llama3-70B", 64, 8, 128, 28672, 2),
    ("Llama3-405B", 128, 8, 128, 53248, 1),
];
const SCALE: usize = 64;
const TP: usize = 8;

/// (k, n) of a tenant's QKV projection and MLP up-projection at TP = 8,
/// scaled 1/64.
fn shapes(t: usize) -> [(usize, usize); 2] {
    let (_, heads, kv, hd, inter, _) = MODELS[t];
    let k = (heads * hd / SCALE).max(8);
    let n_attn = ((heads + 2 * kv) * hd / TP / (SCALE / TP)).max(8);
    let n_mlp = (inter / TP / (SCALE / TP)).max(8);
    [(k, n_attn), (k, n_mlp)]
}

pub fn config() -> ServeConfig {
    let nproc = crate::host::nproc();
    ServeConfig {
        shards: 1,
        shard_threads: nproc,
        queue_capacity: 1 << 16,
        batch_max: 64,
        tenant_weights: MODELS.iter().map(|m| m.5).collect(),
        ..ServeConfig::default()
    }
}

pub struct Inputs {
    /// Shared weights, index `tenant * 2 + family`.
    shared: Vec<Arc<Mat<f64>>>,
    /// Cold weights with their (tenant, family), used in turn.
    cold: Vec<(usize, usize, Arc<Mat<f64>>)>,
    /// A operands, index `((tenant * 2 + family) * 4 + m_index) * A_VARIANTS + v`.
    a: Vec<Arc<Mat<f64>>>,
    seed: u64,
}

pub fn inputs(seed: u64, hash: &mut InputHash) -> Inputs {
    let mut rng = Rng::stream(seed, 3);
    let mut shared = Vec::new();
    let mut a = Vec::new();
    for t in 0..MODELS.len() {
        for (k, n) in shapes(t) {
            shared.push(Arc::new(rng.matrix(k, n)));
            for m in SKINNY_M {
                for _ in 0..A_VARIANTS {
                    a.push(Arc::new(rng.matrix(m, k)));
                }
            }
        }
    }
    // Enough distinct cold weights that, used in turn, they overflow the
    // cache bound by a quarter: every cold lookup misses and evicts.
    let mut cold = Vec::new();
    let mut bytes = 0usize;
    while bytes < DEFAULT_WEIGHT_CACHE_BYTES + DEFAULT_WEIGHT_CACHE_BYTES / 4 {
        let (t, f) = (cold.len() % MODELS.len(), cold.len() / MODELS.len() % 2);
        let (k, n) = shapes(t)[f];
        bytes += k * n * 8;
        cold.push((t, f, Arc::new(rng.matrix(k, n))));
    }
    for m in shared.iter().chain(&a).chain(cold.iter().map(|c| &c.2)) {
        hash.mat(m);
    }
    hash.u64(seed);
    Inputs {
        shared,
        cold,
        a,
        seed,
    }
}

/// One generated request.
#[derive(Clone, Copy)]
struct Req {
    /// Due time after the step's start.
    due: Duration,
    tenant: usize,
    family: usize,
    a: usize,
    /// Index into the cold pool, or `None` for the tenant's shared B.
    cold: Option<usize>,
}

impl Req {
    fn operands<'a>(&self, inp: &'a Inputs) -> (&'a Arc<Mat<f64>>, &'a Arc<Mat<f64>>) {
        let b = match self.cold {
            Some(c) => &inp.cold[c].2,
            None => &inp.shared[self.tenant * 2 + self.family],
        };
        (&inp.a[self.a], b)
    }
}

/// Poisson arrivals at `rate` for `secs`, drawn from the seed and the
/// step number. Cold requests take the next cold weight in turn.
fn schedule(inp: &Inputs, step: u64, rate: f64, secs: f64, cold_cursor: &mut usize) -> Vec<Req> {
    let mut rng = Rng::stream(inp.seed, 0x5e_0000 + step);
    let mut reqs = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exp(1.0 / rate);
        if t >= secs {
            return reqs;
        }
        let mi = rng.below(SKINNY_M.len());
        let v = rng.below(A_VARIANTS);
        let (tenant, family, cold) = if rng.below(COLD_ONE_IN) == 0 {
            let c = *cold_cursor % inp.cold.len();
            *cold_cursor += 1;
            (inp.cold[c].0, inp.cold[c].1, Some(c))
        } else {
            (rng.below(MODELS.len()), rng.below(2), None)
        };
        let a = ((tenant * 2 + family) * SKINNY_M.len() + mi) * A_VARIANTS + v;
        reqs.push(Req {
            due: Duration::from_secs_f64(t),
            tenant,
            family,
            a,
            cold,
        });
    }
}

fn job(r: &Req, inp: &Inputs) -> Job {
    let (a, b) = r.operands(inp);
    Job::gemm(
        selected_kernel().resolve_supported(),
        1.0,
        Arc::clone(a),
        Arc::clone(b),
    )
    .with_tenant(TenantId(r.tenant as u32))
}

/// Submit every shared and cold weight once and wait, so pack scratch is
/// allocated and the cache holds its steady-state contents.
pub fn warm_up(sched: &Scheduler, inp: &Inputs, traffic: &mut Traffic) {
    let shared =
        (0..MODELS.len() * 2).flat_map(|tf| (0..SKINNY_M.len()).map(move |mi| (tf, mi, None)));
    let cold = inp
        .cold
        .iter()
        .enumerate()
        .map(|(c, &(t, f, _))| (t * 2 + f, 0, Some(c)));
    let reqs: Vec<Req> = shared
        .chain(cold)
        .map(|(tf, mi, cold)| Req {
            due: Duration::ZERO,
            tenant: tf / 2,
            family: tf % 2,
            a: (tf * SKINNY_M.len() + mi) * A_VARIANTS,
            cold,
        })
        .collect();
    let tickets: Vec<_> = reqs
        .iter()
        .map(|r| (r.tenant, sched.submit(job(r, inp))))
        .collect();
    for (t, ticket) in tickets {
        let ok = match ticket {
            Ok(ticket) => {
                traffic.admitted[t] += 1;
                matches!(ticket.wait().outcome, Outcome::Ok(_))
            }
            Err(_) => false,
        };
        traffic.ok += u64::from(ok);
        traffic.warm_up_failed += u64::from(!ok);
    }
}

/// Load-generator state that lives as long as the scheduler: requests
/// admitted per tenant and resolved `Ok` (for the conservation check),
/// warm-up requests refused or failed, the next cold weight, and the step
/// counter that seeds each schedule.
#[derive(Debug, Default)]
pub struct Traffic {
    admitted: [u64; MODELS.len()],
    ok: u64,
    warm_up_failed: u64,
    cold_cursor: usize,
    steps: u64,
}

/// Scheduler counters summed over the steps of one [`Step`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub batches: u64,
    pub batched_requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub rejected_full: u64,
    pub shed: u64,
    pub timed_out: u64,
}

impl Counts {
    fn between(b: &StatsSnapshot, a: &StatsSnapshot) -> Counts {
        Counts {
            batches: a.batches - b.batches,
            batched_requests: a.batched_requests - b.batched_requests,
            cache_hits: a.cache_hits - b.cache_hits,
            cache_misses: a.cache_misses - b.cache_misses,
            cache_evictions: a.cache_evictions - b.cache_evictions,
            rejected_full: a.rejected_full - b.rejected_full,
            shed: a.shed - b.shed,
            timed_out: a.timed_out - b.timed_out,
        }
    }

    fn add(&mut self, o: &Counts) {
        self.batches += o.batches;
        self.batched_requests += o.batched_requests;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.cache_evictions += o.cache_evictions;
        self.rejected_full += o.rejected_full;
        self.shed += o.shed;
        self.timed_out += o.timed_out;
    }
}

/// What one or more open-loop steps at one rate measured.
#[derive(Debug, Default)]
pub struct Step {
    pub rate: f64,
    pub offered: usize,
    pub cold: usize,
    /// Latency of every `Ok` request, ms, in submission order.
    pub lat_ms: Vec<f64>,
    /// How late the pacer sent each request, ms.
    pub late_ms: Vec<f64>,
    /// Duration of each `submit` call, µs.
    pub submit_us: Vec<f64>,
    /// Requests refused (`QueueFull`) or resolved other than `Ok`.
    pub failed: u64,
    /// `Ok` completions over the span from the first due time to the last
    /// completion (of the last step absorbed).
    pub achieved_rps: f64,
    pub counts: Counts,
    /// Solo kernel time of the sampled requests, µs.
    pub floor_us: Vec<f64>,
}

impl Step {
    pub fn p50_ms(&self) -> f64 {
        median(&self.lat_ms)
    }

    /// (percentile used, value, windows) of the tail, see [`windowed_tail`].
    pub fn tail_ms(&self) -> (f64, f64, usize) {
        windowed_tail(&self.lat_ms, TAIL).unwrap_or((1.0, f64::INFINITY, 0))
    }

    pub fn passes(&self) -> bool {
        step_passes(
            self.tail_ms().1,
            LIMIT_MS,
            self.failed,
            self.achieved_rps,
            self.rate,
        )
    }

    /// Append another step's samples and counters.
    pub fn absorb(&mut self, o: Step) {
        self.rate = o.rate;
        self.offered += o.offered;
        self.cold += o.cold;
        self.lat_ms.extend(o.lat_ms);
        self.late_ms.extend(o.late_ms);
        self.submit_us.extend(o.submit_us);
        self.failed += o.failed;
        self.achieved_rps = o.achieved_rps;
        self.counts.add(&o.counts);
        self.floor_us.extend(o.floor_us);
    }
}

/// One open-loop step at `rate` for `secs`, drained before it returns.
/// Sampled `Ok` outputs are checked against a solo GEMM; with `floor`
/// the sampled requests' kernels are also timed alone.
pub fn run_step(
    sched: &Scheduler,
    inp: &Inputs,
    traffic: &mut Traffic,
    rate: f64,
    secs: f64,
    floor: bool,
    checks: &mut Checks,
) -> Step {
    let step = traffic.steps;
    traffic.steps += 1;
    let reqs = schedule(inp, step, rate, secs, &mut traffic.cold_cursor);
    let before = sched.stats();
    let mut st = Step {
        rate,
        offered: reqs.len(),
        cold: reqs.iter().filter(|r| r.cold.is_some()).count(),
        ..Step::default()
    };
    let id0 = step << 32;
    let (tx, rx) = mpsc::channel::<(usize, Instant, Ticket)>();
    let mut sampled: Vec<(usize, Mat<f64>)> = Vec::new();
    let mut last_done = None;
    let start = Instant::now() + Duration::from_millis(1);
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let root = span("serve.collect");
            let (mut lat, mut bad, mut kept, mut last) = (Vec::new(), 0u64, Vec::new(), None);
            // Poll, yielding, instead of blocking: a blocked collector sleeps
            // its core, and waking a sleeping core of a virtual machine
            // can take milliseconds when the host is busy. That delay would
            // land in every latency the collector timestamps.
            loop {
                let (i, from, ticket) = match rx.try_recv() {
                    Ok(next) => next,
                    Err(mpsc::TryRecvError::Empty) => {
                        std::thread::yield_now();
                        continue;
                    }
                    Err(mpsc::TryRecvError::Disconnected) => break,
                };
                let completion = {
                    let _g = span_id("serve.wait", id0 + i as u64);
                    while !ticket.is_resolved() {
                        std::thread::yield_now();
                    }
                    ticket.wait()
                };
                let done = Instant::now();
                last = Some(done);
                match completion.outcome {
                    Outcome::Ok(c) => {
                        lat.push(done.duration_since(from).as_secs_f64() * 1e3);
                        if i % SAMPLE_ONE_IN == 0 {
                            kept.push((i, c));
                        }
                    }
                    other => {
                        bad += 1;
                        eprintln!("serve: request {i} resolved {}", other.label());
                    }
                }
            }
            drop(root);
            me_trace::flush_thread();
            (lat, bad, kept, last)
        });
        for (i, r) in reqs.iter().enumerate() {
            let due = start + r.due;
            // Pace by yielding, not sleeping, for the same reason.
            while Instant::now() < due {
                std::thread::yield_now();
            }
            let job = job(r, inp);
            let sent = Instant::now();
            let res = {
                let _g = span_id("serve.submit", id0 + i as u64);
                sched.submit(job)
            };
            st.submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
            st.late_ms
                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
            match res {
                Ok(ticket) => {
                    traffic.admitted[r.tenant] += 1;
                    tx.send((i, due.min(sent), ticket))
                        .expect("collector alive");
                }
                Err(e) => {
                    st.failed += 1;
                    eprintln!("serve: request {i} refused: {e:?}");
                }
            }
        }
        drop(tx);
        let (lat, bad, kept, last) = collector.join().expect("collector panicked");
        st.lat_ms = lat;
        st.failed += bad;
        sampled = kept;
        last_done = last;
    });
    st.counts = Counts::between(&before, &sched.stats());
    traffic.ok += st.lat_ms.len() as u64;
    checks.fail_many(st.failed, "serve: refused or non-Ok request");
    checks.attempted += st.lat_ms.len() as u64;
    if let Some(last) = last_done {
        st.achieved_rps = st.lat_ms.len() as f64 / last.duration_since(start).as_secs_f64();
    }
    check_and_floor(inp, &reqs, &sampled, floor, &mut st, checks, id0);
    st
}

/// Compare sampled outputs bitwise with a solo GEMM (`GemmAlgo::Tiled`, the
/// dispatched kernel the jobs name), and with
/// `floor` time each sampled request's kernel alone on its packed B.
fn check_and_floor(
    inp: &Inputs,
    reqs: &[Req],
    sampled: &[(usize, Mat<f64>)],
    floor: bool,
    st: &mut Step,
    checks: &mut Checks,
    id0: u64,
) {
    let variant = selected_kernel().resolve_supported();
    let mut packed: HashMap<*const Mat<f64>, PackedB<f64>> = HashMap::new();
    for (i, got) in sampled {
        let (a, b) = reqs[*i].operands(inp);
        let mut solo = Mat::zeros(a.rows(), b.cols());
        {
            let _g = span("check");
            gemm(GemmAlgo::Tiled, 1.0, a, b, 0.0, &mut solo);
            checks.check(
                bitwise_eq(got.as_slice(), solo.as_slice()),
                &format!("serve: request {i} output differs from a solo GEMM"),
            );
        }
        if floor {
            let pb = packed
                .entry(Arc::as_ptr(b))
                .or_insert_with(|| pack_b_matrix(b, blocking_for(variant)));
            let t = Instant::now();
            {
                let _g = span_id("serve.kernel_floor", id0 + *i as u64);
                gemm_tiled_prepacked_with(variant, 1.0, a, pb, 0.0, &mut solo);
            }
            st.floor_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
}

/// Share of a serve slice spent at the nominal rate when the ladder also
/// runs.
const NOMINAL_SHARE: f64 = 0.5;
/// Shortest ladder probe; a slice runs as many probes as fit.
const PROBE_MIN_S: f64 = 0.25;

/// One slice of the serve phase: a nominal-rate step added to `nominal`,
/// then, with a ladder, as many goodput probes as fit in the rest.
/// Without a ladder the whole slice runs at the nominal rate.
#[allow(clippy::too_many_arguments)]
pub fn slice(
    sched: &Scheduler,
    inp: &Inputs,
    traffic: &mut Traffic,
    secs: f64,
    floor: bool,
    nominal: &mut Step,
    ladder: Option<&mut Ladder>,
    checks: &mut Checks,
) {
    let _phase = span("serve");
    let nominal_secs = if ladder.is_some() {
        secs * NOMINAL_SHARE
    } else {
        secs
    };
    nominal.absorb(run_step(
        sched,
        inp,
        traffic,
        NOMINAL_RPS,
        nominal_secs,
        floor,
        checks,
    ));
    let Some(ladder) = ladder else { return };
    let rates = ladder_rates();
    let rest = secs - nominal_secs;
    let probes = (rest / PROBE_MIN_S).floor().max(1.0);
    for _ in 0..probes as usize {
        let i = ladder.next();
        let st = run_step(sched, inp, traffic, rates[i], rest / probes, false, checks);
        let pass = st.passes();
        eprintln!(
            "serve ladder: {:.0} req/s offered, {:.0} achieved, p{:.2} {:.3} ms, failed {} -> {}",
            rates[i],
            st.achieved_rps,
            st.tail_ms().0 * 100.0,
            st.tail_ms().1,
            st.failed,
            if pass { "pass" } else { "fail" }
        );
        ladder.record(i, pass, st.achieved_rps);
    }
}

/// Shut the scheduler down and check conservation exactly: every admitted
/// request resolved once, globally and per tenant, and every `Ok` the
/// collector saw is one the scheduler counted.
pub fn finish(sched: Scheduler, traffic: &Traffic, checks: &mut Checks) {
    checks.fail_many(
        traffic.warm_up_failed,
        "serve: warm-up request refused or not Ok",
    );
    let tenants = sched.tenant_stats();
    let stats = sched.shutdown();
    let admitted: u64 = traffic.admitted.iter().sum();
    checks.check(
        stats.is_conserved() && stats.enqueued == admitted && stats.completed_ok == traffic.ok,
        &format!(
            "serve: conservation broken: admitted {admitted}, ok {}: {stats:?}",
            traffic.ok
        ),
    );
    for (t, snap) in tenants.iter().enumerate() {
        let want = traffic.admitted.get(t).copied().unwrap_or(0);
        checks.check(
            snap.is_conserved() && snap.enqueued == want,
            &format!("serve: tenant {t} conservation broken: admitted {want}: {snap:?}"),
        );
    }
}
