//! The repository benchmark. See README.md in this directory for the
//! workloads, the metrics and the layer each metric belongs to.
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path mebench/Cargo.toml -- \
//!     --workload dgemm|ozaki --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run executes all three phases (dgemm, ozaki, serve), so every
//! run reports every metric; the workload picks the phase that gets most
//! of the measuring time. The serve phase has no end-to-end metric of its
//! own (see README.md) and gets a small fixed share of every run. The last
//! line of standard output is the result object; lines starting with `#`
//! before it describe the host and the run.

mod dgemm;
mod host;
mod inputs;
mod ozaki;
mod serve;
mod spans;
mod stats;

use std::time::Instant;

use me_linalg::selected_kernel;
use me_serve::Scheduler;

use stats::{median, Checks, Ladder, Metric};

/// Times the whole set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 5;
/// The run interleaves the phases in this many cycles, so each phase's
/// samples spread over the whole run instead of one stretch of it: the
/// host's throughput drifts over seconds, and a median over samples taken
/// throughout drifts less.
const CYCLES: usize = 16;
/// Share of each cycle the workload's own phase gets.
const FOCUS_SHARE: f64 = 0.5;
/// Share of each cycle the serve phase gets; the other of dgemm and ozaki
/// gets the rest.
const SERVE_SHARE: f64 = 0.1;
/// Largest tolerated |Σ layer self time − wall| / wall in the traced run.
const RECONCILE_TOL: f64 = 1e-3;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Dgemm,
    Ozaki,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Dgemm => "dgemm",
            Workload::Ozaki => "ozaki",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "dgemm" => Workload::Dgemm,
                    "ozaki" => Workload::Ozaki,
                    other => return Err(format!("unknown workload {other:?}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Everything built before measuring: seeded inputs, the scheduler, and
/// warm caches.
struct Setup {
    dgemm: dgemm::Inputs,
    ozaki: ozaki::Inputs,
    serve: serve::Inputs,
    sched: Scheduler,
    traffic: serve::Traffic,
    hash: u64,
}

fn setup(seed: u64) -> Setup {
    let mut hash = inputs::InputHash::default();
    let dgemm = dgemm::inputs(seed, dgemm::N, &mut hash);
    dgemm::warm_up(&dgemm);
    let ozaki = ozaki::inputs(seed, ozaki::N, &mut hash);
    let serve = serve::inputs(seed, &mut hash);
    let sched = Scheduler::new(serve::config());
    let mut traffic = serve::Traffic::default();
    serve::warm_up(&sched, &serve, &mut traffic);
    Setup {
        dgemm,
        ozaki,
        serve,
        sched,
        traffic,
        hash: hash.value(),
    }
}

/// Measuring seconds per phase and cycle (dgemm, ozaki, serve).
fn slices(args: &Args) -> [f64; 3] {
    let cycle = args.seconds / CYCLES as f64;
    let mut b = [cycle * (1.0 - FOCUS_SHARE - SERVE_SHARE); 3];
    b[args.workload as usize] = cycle * FOCUS_SHARE;
    b[2] = cycle * SERVE_SHARE;
    b
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Everything one set of cycles measured.
#[derive(Default)]
struct Measured {
    dgemm: dgemm::Samples,
    ozaki: ozaki::Samples,
    nominal: serve::Step,
}

/// One cycle: a slice of each phase, in a fixed order.
fn cycle(
    su: &mut Setup,
    slice: [f64; 3],
    probe: &host::Probe,
    traced: bool,
    m: &mut Measured,
    ladder: Option<&mut Ladder>,
    checks: &mut Checks,
) {
    dgemm::run(&su.dgemm, slice[0], probe, checks, &mut m.dgemm);
    ozaki::run(&su.ozaki, slice[1], probe, traced, checks, &mut m.ozaki);
    serve::slice(
        &su.sched,
        &su.serve,
        &mut su.traffic,
        slice[2],
        traced,
        &mut m.nominal,
        ladder,
        checks,
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload dgemm|ozaki --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let vars = host::me_env_vars();
    if !vars.is_empty() {
        eprintln!("error: ME_* variables change what the library runs; unset them first: {vars:?}");
        std::process::exit(2);
    }
    me_trace::set_enabled(false);

    let mut setup_s = Vec::new();
    let mut su: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(old) = su.take() {
            old.sched.shutdown();
        }
        let t = Instant::now();
        su = Some(setup(args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut su = su.expect("at least one set-up");
    println!(
        "# env {}",
        host::env_block(args.workload.name(), args.seed, args.trace, su.hash)
    );

    let probes = host::probes();
    let probe = host::probe_for(selected_kernel().resolve_supported(), &probes);
    for p in &probes {
        println!(
            "# fma probe {}: {:.2} GFLOP/s (one thread)",
            p.isa,
            p.gflops()
        );
    }
    let slice = slices(&args);
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced_run(&args, &mut su, probe, slice, &mut checks)
    } else {
        let mut m = Measured::default();
        let mut ladder = Ladder::new(serve::ladder_rates().len());
        for _ in 0..CYCLES {
            cycle(
                &mut su,
                slice,
                probe,
                false,
                &mut m,
                Some(&mut ladder),
                &mut checks,
            );
        }
        report(&m, &ladder);
        let (d, o) = (&m.dgemm, &m.ozaki);
        vec![
            metric("setup_s", median(&setup_s), "s"),
            metric("gemm_1t_peak_frac", median(&d.peak_fracs_1t(dgemm::N)), "1"),
            metric("skinny_peak_frac", median(&d.skinny_peak_fracs()), "1"),
            metric(
                "ozaki_f16_peak_frac",
                median(&o.peak_fracs(0, ozaki::N)),
                "1",
            ),
            metric(
                "ozaki_int8_peak_frac",
                median(&o.peak_fracs(1, ozaki::N)),
                "1",
            ),
            metric("ozaki_rel_err", o.rel_err[0].max(o.rel_err[1]), "1"),
        ]
    };
    serve::finish(su.sched, &su.traffic, &mut checks);
    println!(
        "# checks: {} attempted, {} failed (failed_frac {})",
        checks.attempted,
        checks.failed,
        checks.failed_frac()
    );
    let correct = checks.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!("{}", stats::render_result(correct, &checks, &metrics));
}

/// The `#` lines of an untraced run: sample counts and within-run spread.
fn report(m: &Measured, ladder: &Ladder) {
    let spread = |xs: &[f64]| {
        let (q1, q3) = stats::quartiles(xs).unwrap_or((f64::NAN, f64::NAN));
        let m = median(xs);
        format!(
            "n={} median {m:.6} q1 {q1:.6} q3 {q3:.6} ((q3 - q1) / median {:.3})",
            xs.len(),
            (q3 - q1) / m
        )
    };
    let rate = |ts: &[f64], flop: f64| ts.iter().map(|t| flop / t / 1e9).collect::<Vec<f64>>();
    let d = &m.dgemm;
    let sq = dgemm::square_flop(dgemm::N);
    println!(
        "# dgemm gemm_1t GFLOP/s per call: {}",
        spread(&rate(&d.t_1t, sq))
    );
    println!(
        "# dgemm gemm_nt GFLOP/s per round: {}",
        spread(&rate(&d.t_nt, sq))
    );
    println!("# dgemm fma peak GFLOP/s per round: {}", spread(&d.peak));
    println!(
        "# dgemm skinny GFLOP/s per round: {}",
        spread(&d.skinny_gflops)
    );
    println!(
        "# dgemm gemm_1t peak fraction per call: {}",
        spread(&d.peak_fracs_1t(dgemm::N))
    );
    println!(
        "# dgemm skinny peak fraction per round: {}",
        spread(&d.skinny_peak_fracs())
    );
    let oz = dgemm::square_flop(ozaki::N);
    println!(
        "# ozaki f16 GFLOP/s per call: {}",
        spread(&rate(&m.ozaki.call_s[0], oz))
    );
    println!(
        "# ozaki int8 GFLOP/s per call: {}",
        spread(&rate(&m.ozaki.call_s[1], oz))
    );
    for (i, b) in ["f16", "int8"].into_iter().enumerate() {
        println!(
            "# ozaki {b} peak fraction per call: {}",
            spread(&m.ozaki.peak_fracs(i, ozaki::N))
        );
    }
    let (q, tail, windows) = m.nominal.tail_ms();
    println!(
        "# serve nominal: {:.0} req/s offered, {} requests, p50 {:.4} ms, p{:.2} {:.4} ms \
         (median of {windows} windows over {} samples)",
        serve::NOMINAL_RPS,
        m.nominal.offered,
        m.nominal.p50_ms(),
        q * 100.0,
        tail,
        m.nominal.lat_ms.len()
    );
    println!(
        "# serve goodput: {:.0} req/s, median of {} staircase probes (p{:.0} limit {} ms)",
        ladder.result(),
        ladder.samples(),
        serve::TAIL * 100.0,
        serve::LIMIT_MS
    );
}

/// The traced run: cycles alternate untraced and traced. Per-layer
/// metrics come from the traced cycles' spans; the untraced cycles are the
/// reference for the tracing overhead and, with the goodput ladder, give
/// the serve latency and goodput figures. Traced serve slices run at the
/// nominal rate only.
fn traced_run(
    args: &Args,
    su: &mut Setup,
    probe: &host::Probe,
    slice: [f64; 3],
    checks: &mut Checks,
) -> Vec<Metric> {
    let (mut plain, mut traced) = (Measured::default(), Measured::default());
    let mut ladder = Ladder::new(serve::ladder_rates().len());
    for c in 0..CYCLES {
        let on = c % 2 == 1;
        me_trace::set_enabled(on);
        if on {
            cycle(su, slice, probe, true, &mut traced, None, checks);
        } else {
            cycle(
                su,
                slice,
                probe,
                false,
                &mut plain,
                Some(&mut ladder),
                checks,
            );
        }
        me_trace::set_enabled(false);
    }
    let trace = me_trace::take_snapshot();
    let (d, o, s) = (&traced.dgemm, &traced.ozaki, &traced.nominal);

    let layers = spans::self_times(&trace);
    let reconcile = spans::reconcile_err(&trace, &["dgemm", "ozaki", "serve", "serve.collect"]);
    checks.check(
        reconcile <= RECONCILE_TOL,
        &format!("trace: layer self times off the wall time by {reconcile:e}"),
    );
    export_trace(args, &trace, checks);

    let n = dgemm::N;
    let ms = |layer: &str| median(&layers.ms(layer));
    let total_ms = |layer: &str| {
        layers
            .self_ns
            .get(layer)
            .map_or((0.0, 0), |&(ns, c)| (ns as f64 / 1e6, c))
    };
    let (pack_ms, compute_ms) = (ms("linalg.pack_b"), ms("linalg.compute"));
    let (pre_ms, pre_calls) = total_ms("linalg.skinny_prepacked");
    let (fresh_ms, fresh_calls) = total_ms("linalg.skinny_fresh");
    let speedup = ms("linalg.gemm_1t") / ms("par.gemm_nt");
    let overhead = match args.workload {
        Workload::Dgemm => plain.dgemm.gemm_gflops(n) / d.gemm_gflops(n) - 1.0,
        Workload::Ozaki => plain.ozaki.gflops(0, ozaki::N) / o.gflops(0, ozaki::N) - 1.0,
    };
    let nproc = host::nproc() as f64;
    let mut m = vec![
        metric("linalg.fma_peak_gflops", median(&d.peak), "GFLOP/s"),
        metric(
            "linalg.gemm_1t_gflops",
            plain.dgemm.gemm_1t_gflops(n),
            "GFLOP/s",
        ),
        metric(
            "linalg.skinny_gflops",
            median(&plain.dgemm.skinny_gflops),
            "GFLOP/s",
        ),
        metric("linalg.pack_b_ms", pack_ms, "ms"),
        metric("linalg.compute_ms", compute_ms, "ms"),
        metric("linalg.pack_b_share", pack_ms / (pack_ms + compute_ms), "1"),
        metric(
            "linalg.skinny_gbps",
            (d.packed_bytes * pre_calls as usize) as f64 / (pre_ms / 1e3) / 1e9,
            "GB/s",
        ),
        metric(
            "linalg.skinny_pack_us",
            (fresh_ms / fresh_calls.max(1) as f64 - pre_ms / pre_calls.max(1) as f64) * 1e3,
            "us",
        ),
        metric("par.gemm_gflops", plain.dgemm.gemm_gflops(n), "GFLOP/s"),
        metric("par.speedup", speedup, "x"),
        metric("par.efficiency", speedup / nproc, "1"),
    ];
    for (i, b) in ["f16", "int8"].into_iter().enumerate() {
        let name = |part: &str| format!("ozaki.{b}.{part}");
        let (split, engine, call) = (ms(&name("split")), ms(&name("engine")), ms(&name("call")));
        let sch = o.schedule[i];
        // The library counts its own engine calls while tracing records;
        // they must match the schedule this benchmark replays.
        let counter = if i == 0 {
            "ozaki.host_f16.engine_calls"
        } else {
            "ozaki.int8.engine_calls"
        };
        let counted = trace.counters.get(counter).copied().unwrap_or(0);
        let want = (sch.engine_calls * o.call_s[i].len()) as u64;
        checks.check(
            counted == want,
            &format!("trace: {counter} = {counted}, replayed schedule implies {want}"),
        );
        m.extend([
            metric(name("gflops"), plain.ozaki.gflops(i, ozaki::N), "GFLOP/s"),
            metric(name("split_ms"), split, "ms"),
            metric(name("engine_ms"), engine, "ms"),
            metric(name("rest_ms"), call - split - engine, "ms"),
            metric(name("engine_share"), engine / call, "1"),
            metric(name("slices"), sch.slices as f64, "count"),
            metric(name("products"), sch.products as f64, "count"),
            metric(name("engine_calls"), sch.engine_calls as f64, "count"),
        ]);
    }
    let (q, submit_p99) = stats::top_percentile(&s.submit_us, 0.99).unwrap_or((1.0, f64::NAN));
    let c = &s.counts;
    let stats = su.sched.stats();
    let floor_us = median(&s.floor_us);
    println!(
        "# serve kernel floor {floor_us:.3} us vs p50 {:.1} us; submit p{:.2} {submit_p99:.3} us",
        s.p50_ms() * 1e3,
        q * 100.0
    );
    m.extend([
        metric("serve.p50_ms", plain.nominal.p50_ms(), "ms"),
        metric("serve.p99_ms", plain.nominal.tail_ms().1, "ms"),
        metric("serve.goodput_rps", ladder.result(), "req/s"),
        metric("serve.submit_us_p50", median(&s.submit_us), "us"),
        metric("serve.submit_us_p99", submit_p99, "us"),
        metric(
            "serve.mean_batch",
            c.batched_requests as f64 / c.batches.max(1) as f64,
            "requests",
        ),
        metric("serve.max_batch", stats.max_batch as f64, "requests"),
        metric(
            "serve.queue_high_water",
            stats.queue_high_water as f64,
            "requests",
        ),
        metric(
            "serve.cache_hit_rate",
            c.cache_hits as f64 / (c.cache_hits + c.cache_misses).max(1) as f64,
            "1",
        ),
        metric("serve.cache_evictions", c.cache_evictions as f64, "count"),
        metric(
            "serve.shared_b_share",
            1.0 - s.cold as f64 / s.offered.max(1) as f64,
            "1",
        ),
        metric("serve.rejected_full", c.rejected_full as f64, "count"),
        metric("serve.shed", c.shed as f64, "count"),
        metric("serve.timed_out", c.timed_out as f64, "count"),
        metric(
            "serve.gen_late_ms_p99",
            stats::top_percentile(&s.late_ms, 0.99).map_or(f64::NAN, |x| x.1),
            "ms",
        ),
        metric("serve.kernel_floor_us", floor_us, "us"),
        metric("trace.overhead_frac", overhead, "1"),
        metric("trace.reconcile_err", reconcile, "1"),
    ]);
    m
}

/// Write the traced run's spans as Chrome JSON under `.bench_out/` and
/// validate the file with me-trace's own validator.
fn export_trace(args: &Args, trace: &me_trace::Trace, checks: &mut Checks) {
    let json = trace.to_chrome_json();
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}.json", args.workload.name()));
    let written = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &json));
    checks.check(
        written.is_ok(),
        &format!("trace: cannot write {}: {written:?}", path.display()),
    );
    match me_trace::validate_chrome_trace(&json) {
        Ok(summary) => {
            let missing: Vec<&str> = [
                "dgemm",
                "linalg.gemm_1t",
                "par.gemm_nt",
                "ozaki.f16.engine",
                "serve.submit",
                "serve.wait",
            ]
            .into_iter()
            .filter(|layer| {
                !summary
                    .span_names
                    .iter()
                    .any(|n| n.split(" #").next() == Some(layer))
            })
            .collect();
            checks.check(
                missing.is_empty(),
                &format!("trace: layers missing from the Chrome JSON: {missing:?}"),
            );
            println!(
                "# trace: {} spans written to {}",
                summary.complete_events,
                path.display()
            );
        }
        Err(e) => checks.check(false, &format!("trace: Chrome JSON does not validate: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_input_hash(seed: u64) -> u64 {
        let mut hash = inputs::InputHash::default();
        dgemm::inputs(seed, 16, &mut hash);
        ozaki::inputs(seed, 16, &mut hash);
        hash.value()
    }

    #[test]
    fn input_hash_follows_the_seed() {
        assert_eq!(
            small_input_hash(7),
            small_input_hash(7),
            "same seed, same inputs"
        );
        assert_ne!(
            small_input_hash(7),
            small_input_hash(8),
            "another seed, other inputs"
        );
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a =
            parse_args(&argv("--workload ozaki --seed 3 --seconds 30 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Ozaki, 3, 30.0, true)
        );
        for bad in [
            "--workload gemm --seed 3 --seconds 30 --trace 0",
            "--workload serve --seed 3 --seconds 30 --trace 0",
            "--workload dgemm --seed -1 --seconds 30 --trace 0",
            "--workload dgemm --seed 3 --seconds 0 --trace 0",
            "--workload dgemm --seed 3 --seconds 30 --trace 2",
            "--workload dgemm --seed 3 --seconds 30",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn focus_phase_gets_half_of_every_cycle() {
        let args = Args {
            workload: Workload::Ozaki,
            seed: 0,
            seconds: 20.0 * CYCLES as f64,
            trace: false,
        };
        let [d, o, s] = slices(&args);
        let near = |x: f64, y: f64| (x - y).abs() < 1e-9;
        assert!(near(d, 8.0) && near(o, 10.0) && near(s, 2.0), "{d} {o} {s}");
    }
}
