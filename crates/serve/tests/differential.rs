//! Differential replay against a serial oracle.
//!
//! Every seeded trace runs through the scheduler under a configuration
//! whose outcomes are *schedule-independent* (no wall-clock deadlines,
//! no shedding, faults drawn purely from `(stage, request id, attempt)`),
//! and each request is checked on its own against what it must produce:
//!
//! - every `Ok` payload **bit-equals** the request run alone — a fresh
//!   `GemmPlan` on the unpacked `B`, or `ozaki_gemm` — so coalescing,
//!   the weight cache, pool fan-out and retries are pure scheduling;
//! - every outcome label (Ok / Failed) equals the label the fault plan
//!   implies for that request id over its attempts, up to `max_retries`;
//! - the conservation books balance (`enqueued == ok + failed`, zero
//!   double-resolves).

use std::sync::Arc;
use std::time::Duration;

use me_linalg::{GemmPlan, KernelVariant, Mat};
use me_numerics::Rng64;
use me_ozaki::{ozaki_gemm, OzakiConfig};
use me_serve::{
    Fault, FaultConfig, FaultPlan, FaultStage, Job, JobKind, Outcome, Scheduler, ServeConfig,
    TenantId,
};

const MAX_RETRIES: u32 = 2;

fn mat(m: usize, n: usize, seed: u64) -> Arc<Mat<f64>> {
    let mut rng = Rng64::seed_from_u64(seed);
    Arc::new(Mat::from_fn(m, n, |_, _| rng.range_f64(-1.0, 1.0)))
}

/// The outcome label of one completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Label {
    Ok,
    Failed,
}

/// Build the seeded job list for one trace: a mix of shared-B GEMM
/// buckets (coalescable), unique-B GEMMs, and Ozaki jobs, spread over 3
/// tenants. Job construction is a pure function of `seed`.
fn trace_jobs(seed: u64) -> Vec<Job> {
    let mut rng = Rng64::seed_from_u64(seed);
    let b_shared_a = mat(4, 3, seed ^ 0xaaaa);
    let b_shared_b = mat(3, 5, seed ^ 0xbbbb);
    let mut jobs = Vec::new();
    for i in 0..24u64 {
        let tenant = TenantId((i % 3) as u32);
        let job = match rng.next_u64() % 4 {
            0 => Job::gemm(
                KernelVariant::Scalar,
                1.0,
                mat(1 + (i as usize % 4), 4, seed.wrapping_add(i)),
                Arc::clone(&b_shared_a),
            ),
            1 => Job::gemm(
                KernelVariant::Scalar,
                0.5,
                mat(2, 3, seed.wrapping_add(1000 + i)),
                Arc::clone(&b_shared_b),
            ),
            2 => Job::gemm(
                KernelVariant::Scalar,
                1.0,
                mat(3, 4, seed.wrapping_add(2000 + i)),
                mat(4, 2, seed.wrapping_add(3000 + i)),
            ),
            _ => Job::ozaki(
                OzakiConfig::dgemm_tc(),
                mat(2, 4, seed.wrapping_add(4000 + i)),
                mat(4, 3, seed.wrapping_add(5000 + i)),
            ),
        };
        jobs.push(job.with_tenant(tenant));
    }
    jobs
}

/// The request run alone, serially, on a fresh (unpacked) `B`.
fn oracle_payload(job: &Job) -> Mat<f64> {
    match &job.kind {
        JobKind::Gemm(g) => {
            let mut c = Mat::zeros(g.a.rows(), g.b.cols());
            GemmPlan::new(g.variant).run(g.alpha, &*g.a, &*g.b, 0.0, &mut c);
            c
        }
        JobKind::Ozaki(o) => ozaki_gemm(&o.a, &o.b, &o.cfg).c,
    }
}

/// The label the fault plan implies for request `id`: attempts run in
/// order; an injected panic fails the request, a transient failure
/// retries while budget remains, and a clean attempt succeeds.
fn oracle_label(plan: Option<&FaultPlan>, id: u64) -> Label {
    let Some(plan) = plan else { return Label::Ok };
    for attempt in 0..=MAX_RETRIES {
        assert_eq!(plan.decide(FaultStage::Dequeue, id, attempt), Fault::None);
        match plan.decide(FaultStage::Execute, id, attempt) {
            Fault::Panic => return Label::Failed,
            Fault::Transient => continue,
            Fault::None => return Label::Ok,
            other => panic!("fault {other:?} is outside the schedule-independent mix"),
        }
    }
    Label::Failed
}

/// Replay one seeded trace and check every request against the oracle.
/// Request ids are assigned in submit order from 0, which is what the
/// fault plan is keyed by. Returns the labels seen.
fn replay_against_oracle(
    seed: u64,
    width: usize,
    shards: usize,
    plan: Option<FaultPlan>,
) -> Vec<Label> {
    let sched = Scheduler::new(ServeConfig {
        shards,
        shard_threads: width,
        queue_capacity: 64,
        batch_max: 8,
        max_retries: MAX_RETRIES,
        backoff_base: Duration::from_micros(50),
        fault_plan: plan,
        tenant_weights: vec![1, 2, 3],
        ..Default::default()
    });
    let jobs = trace_jobs(seed);
    let tickets: Vec<_> = jobs
        .iter()
        .map(|job| sched.submit(job.clone()).expect("trace fits a 64-deep queue"))
        .collect();
    let stats = sched.shutdown();
    assert!(stats.is_conserved(), "seed {seed}: {stats:?}");
    assert_eq!(stats.enqueued, jobs.len() as u64, "seed {seed}");
    assert_eq!(stats.double_resolves, 0, "seed {seed}");
    assert_eq!(stats.shed, 0, "seed {seed}: shedding must be off");
    assert_eq!(stats.timed_out, 0, "seed {seed}: no deadline may fire");
    let mut labels = Vec::with_capacity(jobs.len());
    for (id, (job, ticket)) in jobs.iter().zip(tickets).enumerate() {
        assert_eq!(ticket.id(), id as u64, "ids follow submit order");
        let want = oracle_label(plan.as_ref(), id as u64);
        let got = match ticket.wait().outcome {
            Outcome::Ok(c) => {
                let reference = oracle_payload(job);
                let bits = |m: &Mat<f64>| -> Vec<u64> {
                    m.as_slice().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(c.shape(), reference.shape(), "seed {seed}: request #{id} shape");
                assert_eq!(
                    bits(&c),
                    bits(&reference),
                    "seed {seed} width {width}: request #{id} is not bitwise its solo run"
                );
                Label::Ok
            }
            Outcome::Failed(_) => Label::Failed,
            other => panic!("seed {seed} width {width}: schedule-dependent outcome {other:?}"),
        };
        assert_eq!(got, want, "seed {seed} width {width}: request #{id} label");
        labels.push(got);
    }
    labels
}

/// The headline differential gate: seeded fault storms × widths
/// {1, 2, 8}, every request's label and payload match the serial oracle.
#[test]
fn every_request_matches_the_serial_oracle() {
    let mut ok_seen = 0u64;
    let mut failed_seen = 0u64;
    for (w, width) in [1usize, 2, 8].into_iter().enumerate() {
        for i in 0..12u64 {
            let seed = 7_000 * (w as u64 + 1) + i;
            // Panics and transients only: no deadlines, no shedding, no
            // forced timeouts — those depend on wall-clock scheduling.
            let plan = FaultPlan::new(
                seed,
                FaultConfig {
                    p_panic: 0.10,
                    p_transient: 0.20,
                    p_force_timeout: 0.0,
                    p_delay: 0.0,
                    max_delay: Duration::ZERO,
                },
            );
            for label in replay_against_oracle(seed, width, 2, Some(plan)) {
                match label {
                    Label::Ok => ok_seen += 1,
                    Label::Failed => failed_seen += 1,
                }
            }
        }
    }
    // The chaos mix must actually exercise both terminal labels, or the
    // assertions above prove less than they claim.
    assert!(ok_seen > 0, "no trace ever produced an Ok to compare");
    assert!(failed_seen > 0, "no trace ever produced a Failed to compare");
}

/// Fault-free determinism: without injected faults every request
/// succeeds and every payload is bitwise its solo run — the coalescing
/// path itself (the hot one) is pure batching.
#[test]
fn fault_free_traces_are_bitwise_identical() {
    for width in [1usize, 2, 8] {
        let seed = 0x5eed ^ width as u64;
        let labels = replay_against_oracle(seed, width, 1, None);
        assert!(labels.iter().all(|&l| l == Label::Ok), "width {width}: {labels:?}");
    }
}
