//! The host and environment block, and the in-run FMA peak probe.
//!
//! The probe measures the single-thread f64 FMA rate each instruction set
//! on this host can reach, with twelve independent accumulator chains per
//! call (more than the FMA latency × issue width of current cores, so the
//! chains never wait on each other). The dgemm phase interleaves it with
//! its GEMM calls and reports GEMM rates as a fraction of it, which drifts
//! far less between processes than the absolute rate does.

use me_linalg::{available_variants, blocking_for, selected_kernel, KernelVariant};

/// Accumulator chains per probe call.
const CHAINS: usize = 12;
/// Inner iterations per probe call (tens of milliseconds on one core).
const PROBE_ITERS: u64 = 4_000_000;

/// One FMA probe: f64 FLOPs executed per call, and the timed call.
pub struct Probe {
    pub isa: &'static str,
    run: fn(u64) -> f64,
    flops_per_iter: f64,
}

impl Probe {
    /// Run one probe call; returns GFLOP/s.
    pub fn gflops(&self) -> f64 {
        let t = std::time::Instant::now();
        let sink = (self.run)(std::hint::black_box(PROBE_ITERS));
        let secs = t.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        self.flops_per_iter * PROBE_ITERS as f64 / secs / 1e9
    }
}

/// Probes for every ISA this host runs, widest first.
pub fn probes() -> Vec<Probe> {
    let mut out = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            out.push(Probe {
                isa: "avx512",
                run: x86::avx512,
                flops_per_iter: (CHAINS * 8 * 2) as f64,
            });
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            out.push(Probe {
                isa: "avx2",
                run: x86::avx2,
                flops_per_iter: (CHAINS * 4 * 2) as f64,
            });
        }
    }
    out.push(Probe {
        isa: "scalar",
        run: scalar,
        flops_per_iter: (CHAINS * 2) as f64,
    });
    out
}

/// The probe whose ISA the dispatched GEMM kernel uses.
pub fn probe_for(variant: KernelVariant, probes: &[Probe]) -> &Probe {
    let isa = match variant {
        KernelVariant::Avx512 => "avx512",
        KernelVariant::Avx2 => "avx2",
        _ => "scalar",
    };
    probes
        .iter()
        .find(|p| p.isa == isa)
        .unwrap_or(&probes[probes.len() - 1])
}

/// Portable probe: separate multiply and add (two FLOPs per chain step),
/// the rate a kernel without FMA instructions can reach.
fn scalar(iters: u64) -> f64 {
    let mut acc = [0.0f64; CHAINS];
    let (a, b) = (
        std::hint::black_box(0.999_999_9),
        std::hint::black_box(1e-9),
    );
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = *x * a + b;
        }
    }
    acc.iter().sum()
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::CHAINS;
    use std::arch::x86_64::*;

    pub fn avx512(iters: u64) -> f64 {
        // SAFETY: `probes()` only registers this probe after
        // `is_x86_feature_detected!("avx512f")` returned true.
        unsafe { avx512_chains(iters) }
    }

    pub fn avx2(iters: u64) -> f64 {
        // SAFETY: `probes()` only registers this probe after detecting
        // both `avx2` and `fma`.
        unsafe { avx2_chains(iters) }
    }

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn avx512_chains(iters: u64) -> f64 {
        let a = _mm512_set1_pd(0.999_999_9);
        let b = _mm512_set1_pd(1e-9);
        let mut acc = [_mm512_setzero_pd(); CHAINS];
        for _ in 0..iters {
            for x in acc.iter_mut() {
                *x = _mm512_fmadd_pd(*x, a, b);
            }
        }
        let mut s = _mm512_setzero_pd();
        for x in acc {
            s = _mm512_add_pd(s, x);
        }
        _mm512_reduce_add_pd(s)
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn avx2_chains(iters: u64) -> f64 {
        let a = _mm256_set1_pd(0.999_999_9);
        let b = _mm256_set1_pd(1e-9);
        let mut acc = [_mm256_setzero_pd(); CHAINS];
        for _ in 0..iters {
            for x in acc.iter_mut() {
                *x = _mm256_fmadd_pd(*x, a, b);
            }
        }
        let mut s = _mm256_setzero_pd();
        for x in acc {
            s = _mm256_add_pd(s, x);
        }
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), s);
        lanes.iter().sum()
    }
}

/// CPU feature flags relevant to the GEMM kernels.
fn cpu_flags() -> Vec<&'static str> {
    let mut flags = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! detect {
            ($($f:tt),*) => {$(
                if is_x86_feature_detected!($f) {
                    flags.push($f);
                }
            )*};
        }
        detect!(
            "sse4.2",
            "avx",
            "avx2",
            "fma",
            "f16c",
            "avx512f",
            "avx512bw",
            "avx512vl",
            "avx512vnni"
        );
    }
    flags
}

/// Every `ME_*` variable in the environment, sorted.
pub fn me_env_vars() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(k, v)| {
            let k = k.to_string_lossy().into_owned();
            k.starts_with("ME_")
                .then(|| (k, v.to_string_lossy().into_owned()))
        })
        .collect();
    vars.sort();
    vars
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// The environment block, one JSON object: cores, CPU flags, the resolved
/// kernel and the blocking each variant runs with, tracing state, the
/// seed, the input hash and every `ME_*` variable.
pub fn env_block(workload: &str, seed: u64, traced: bool, input_hash: u64) -> String {
    let variant = selected_kernel().resolve_supported();
    let blocking: Vec<String> = available_variants()
        .into_iter()
        .map(|v| {
            let b = blocking_for(v);
            format!(
                "\"{}\": {{\"mc\": {}, \"kc\": {}, \"nc\": {}}}",
                v.name(),
                b.mc,
                b.kc,
                b.nc
            )
        })
        .collect();
    let flags: Vec<String> = cpu_flags().into_iter().map(json_str).collect();
    let vars: Vec<String> = me_env_vars()
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"input_hash\": \"{input_hash:016x}\", \"nproc\": {}, \
         \"cpu_flags\": [{}], \"kernel\": \"{}\", \"blocking\": {{{}}}, \
         \"trace_compiled\": {}, \"traced_run\": {traced}, \"me_env\": {{{}}}}}",
        json_str(workload),
        nproc(),
        flags.join(", "),
        variant.name(),
        blocking.join(", "),
        me_trace::compiled(),
        vars.join(", ")
    )
}
