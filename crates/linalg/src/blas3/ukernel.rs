//! Runtime-dispatched SIMD micro-kernels for the packed GEMM core.
//!
//! The paper frames matrix engines as the "next natural step" after SIMD
//! (§II-A, §V-B1) — which only means something if the SIMD baseline being
//! stepped past is credible. This module gives the measured host substrate
//! real arch-specific kernels instead of one scalar `mul_add` chain:
//!
//! - [`KernelVariant::Scalar`] — the strictly-scalar MR×NR register tile
//!   (one `mul_add` per accumulator per k step): the reference every
//!   other variant must match, and the one that runs on every platform,
//! - [`KernelVariant::Avx2`] — hand-written `core::arch::x86_64`
//!   intrinsics: 4-lane `__m256d` accumulator tiles for f64 (two registers
//!   per row) and an 8-lane `__m256` sibling for f32, selected only when
//!   `is_x86_feature_detected!` proves AVX2 *and* FMA at startup.
//! - [`KernelVariant::Avx512`] — 8-lane `__m512d` tiles for f64 (one
//!   register per C row) and a 16-lane `__m512` f32 sibling packing two C
//!   rows per register, AVX512F-only intrinsics, selected when
//!   `is_x86_feature_detected!("avx512f")` holds.
//!
//! **Bitwise-identity contract.** Every variant performs, for each of the
//! MR×NR accumulators, exactly one fused multiply-add per k step in
//! ascending-k order. IEEE-754 FMA is correctly rounded, and the hardware
//! `vfmadd` lanes compute the same correctly-rounded fused result as the
//! scalar `f64::mul_add` libm path — so all variants return the *same
//! bits* for the same packed panels, and the parallel GEMM's fixed-kernel
//! guarantee (serial ≡ parallel at every thread count) extends across
//! kernel variants. `tests/kernel_differential.rs` enforces this over a
//! seeded shape × alpha/beta × special-value grid rather than asserting it.
//!
//! Selection happens once at startup through the [`KernelDispatch`] table:
//! the `ME_KERNEL` environment variable (`scalar` | `avx2` | `avx512`)
//! overrides the best-detected default, and benches/tests can override at
//! runtime with [`set_kernel_override`] for A/B comparisons. Every GEMM
//! reports the variant it ran through `me-trace` counters
//! (`ukernel.<variant>`) and span tags (`gemm.kernel.<variant>`).

use crate::mat::Scalar;

/// Micro-tile height in C rows (register rows per kernel invocation).
pub const MR: usize = 4;
/// Micro-tile width in C columns — one 8-lane f32 register, or two 4-lane
/// f64 registers.
pub const NR: usize = 8;

/// Environment variable forcing a kernel variant at startup
/// (`scalar` | `avx2` | `avx512`, case-insensitive).
pub const KERNEL_ENV: &str = "ME_KERNEL";

/// One compiled-in micro-kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// Strictly scalar reference kernel (one `mul_add` chain per
    /// accumulator); the baseline every other variant must match bitwise,
    /// and the fallback wherever the SIMD variants are unavailable.
    Scalar,
    /// Hand-written AVX2+FMA intrinsics (x86-64 only, runtime-detected).
    Avx2,
    /// Hand-written AVX-512F intrinsics: 8-wide f64 / 16-wide f32 tiles
    /// (x86-64 only, runtime-detected).
    Avx512,
}

impl KernelVariant {
    /// Every variant, in preference order (best last).
    pub const ALL: [KernelVariant; 3] =
        [KernelVariant::Scalar, KernelVariant::Avx2, KernelVariant::Avx512];

    /// Position in [`Self::ALL`] (the dispatch tables' slot index).
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Short lower-case name, as accepted by `ME_KERNEL` / `--kernel`.
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::Avx2 => "avx2",
            KernelVariant::Avx512 => "avx512",
        }
    }

    /// Span name tagging work executed with this variant
    /// (`gemm.kernel.<name>`), plumbed into the `me-par` worker lanes.
    pub fn tag(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "gemm.kernel.scalar",
            KernelVariant::Avx2 => "gemm.kernel.avx2",
            KernelVariant::Avx512 => "gemm.kernel.avx512",
        }
    }

    /// `me-trace` counter name counting packed-panel invocations of this
    /// variant (`ukernel.<name>`).
    pub fn counter(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "ukernel.scalar",
            KernelVariant::Avx2 => "ukernel.avx2",
            KernelVariant::Avx512 => "ukernel.avx512",
        }
    }

    /// `me-trace` counter name counting int8 engine-call invocations of
    /// this variant (`ukernel.int8.<name>`, see `blas3::int8`).
    pub fn int8_counter(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "ukernel.int8.scalar",
            KernelVariant::Avx2 => "ukernel.int8.avx2",
            KernelVariant::Avx512 => "ukernel.int8.avx512",
        }
    }

    /// `me-trace` counter name counting half-precision engine-call
    /// invocations of this variant (`ukernel.half.<name>`, see
    /// `blas3::half`).
    pub fn half_counter(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "ukernel.half.scalar",
            KernelVariant::Avx2 => "ukernel.half.avx2",
            KernelVariant::Avx512 => "ukernel.half.avx512",
        }
    }

    /// Parse a `ME_KERNEL` / `--kernel` value (case-insensitive).
    pub fn parse(s: &str) -> Option<KernelVariant> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelVariant::Scalar),
            "avx2" => Some(KernelVariant::Avx2),
            "avx512" => Some(KernelVariant::Avx512),
            _ => None,
        }
    }

    /// Is this variant runnable on the current host?
    pub fn supported(self) -> bool {
        match self {
            KernelVariant::Scalar => true,
            KernelVariant::Avx2 => avx2_supported(),
            KernelVariant::Avx512 => avx512_supported(),
        }
    }

    /// This variant if the host supports it, else
    /// [`KernelVariant::Scalar`], the one variant every platform runs.
    /// Public GEMM entry points
    /// sanitize through this, so an `Avx2` request on a non-AVX2 host
    /// degrades instead of executing illegal instructions.
    pub fn resolve_supported(self) -> KernelVariant {
        if self.supported() {
            self
        } else {
            KernelVariant::Scalar
        }
    }
}

impl std::fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Does the host expose AVX2 *and* FMA? Both are required: AVX2 for the
/// 256-bit integer/permute support and FMA for `vfmadd` — the fused
/// operation the bitwise-identity contract is built on. Always `false`
/// off x86-64.
pub fn avx2_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Does the host expose AVX-512 Foundation? AVX512F alone suffices: the
/// kernels use only `vmovup{s,d}`, `vbroadcasts{s,d}`-class splats,
/// `vpermps`, and `vfmadd` at 512-bit width — all Foundation
/// instructions (no DQ/BW/VL dependency). Always `false` off x86-64.
pub fn avx512_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The variants the current host can actually run, in preference order
/// (best last). The differential harness iterates exactly this list.
pub fn available_variants() -> Vec<KernelVariant> {
    KernelVariant::ALL.iter().copied().filter(|v| v.supported()).collect()
}

/// The process-wide kernel dispatch table: a startup default resolved
/// once from `ME_KERNEL` + CPUID, plus a runtime override slot for A/B
/// benches. All GEMM entry points without an explicit variant read
/// [`KernelDispatch::selected`] through [`selected_kernel`].
#[derive(Debug)]
pub struct KernelDispatch {
    default: KernelVariant,
    /// 0 = no override; otherwise 1 + [`KernelVariant::index`]. An
    /// atomic (not a lock) so the hot GEMM entry pays one relaxed load.
    override_slot: std::sync::atomic::AtomicU8,
}

impl KernelDispatch {
    /// The lazily-initialized global table. The `ME_KERNEL` environment
    /// variable is read exactly once, on first use ("selected once at
    /// startup"); later env mutations are ignored by design.
    // me-verify: env-startup
    pub fn global() -> &'static KernelDispatch {
        static TABLE: std::sync::OnceLock<KernelDispatch> = std::sync::OnceLock::new();
        TABLE.get_or_init(|| KernelDispatch {
            default: resolve_startup(std::env::var(KERNEL_ENV).ok().as_deref()),
            override_slot: std::sync::atomic::AtomicU8::new(0),
        })
    }

    /// The startup default (env override or best detected variant),
    /// unaffected by [`Self::set_override`].
    pub fn startup_default(&self) -> KernelVariant {
        self.default
    }

    /// The variant GEMMs run with right now: the runtime override if one
    /// is set, else the startup default.
    pub fn selected(&self) -> KernelVariant {
        match self.override_slot.load(std::sync::atomic::Ordering::Relaxed) as usize {
            0 => self.default,
            slot => KernelVariant::ALL[slot - 1],
        }
    }

    /// Install (or with `None`, clear) a runtime override. Unsupported
    /// variants are sanitized at the GEMM entry, so installing `Avx2` on
    /// a non-AVX2 host is safe — it just runs `Scalar`.
    pub fn set_override(&self, v: Option<KernelVariant>) {
        let raw = v.map_or(0, |v| v.index() as u8 + 1);
        self.override_slot.store(raw, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Resolve the startup default from an optional `ME_KERNEL` value: a
/// recognized, supported name wins; a recognized-but-unsupported or
/// unrecognized value falls back to the best detected variant (with a
/// one-line note on stderr, never a panic).
fn resolve_startup(env: Option<&str>) -> KernelVariant {
    let best = if avx512_supported() {
        KernelVariant::Avx512
    } else if avx2_supported() {
        KernelVariant::Avx2
    } else {
        KernelVariant::Scalar
    };
    let Some(raw) = env else {
        return best;
    };
    match KernelVariant::parse(raw) {
        Some(v) if v.supported() => v,
        Some(v) => {
            eprintln!(
                "me-linalg: {KERNEL_ENV}={} not supported on this host; using {}",
                v.name(),
                v.resolve_supported().name()
            );
            v.resolve_supported()
        }
        None => {
            eprintln!(
                "me-linalg: unrecognized {KERNEL_ENV}={raw:?} (want scalar|avx2|avx512); \
                 using {}",
                best.name()
            );
            best
        }
    }
}

/// The variant GEMMs without a pinned variant run right now.
pub fn selected_kernel() -> KernelVariant {
    KernelDispatch::global().selected()
}

/// Install (or clear) the process-wide kernel override — the `--kernel`
/// flag of the benches and the A/B switch for experiments. Safe with any
/// variant; unsupported requests degrade to `Scalar` at the GEMM entry.
pub fn set_kernel_override(v: Option<KernelVariant>) {
    KernelDispatch::global().set_override(v);
}

/// Run the MR×NR micro-kernel for `variant` over packed micro-panels:
/// `ap` holds `kc` steps of MR A values, `bp` holds `kc` steps of NR B
/// values. Returns the accumulator tile; the caller owns the write-back
/// (which stays scalar in every variant, preserving bitwise identity).
///
/// `variant` must be supported on this host — public entry points
/// guarantee that via [`KernelVariant::resolve_supported`].
// me-verify: hot
#[inline]
pub(crate) fn micro_kernel<T: Scalar>(
    variant: KernelVariant,
    ap: &[T],
    bp: &[T],
    kc: usize,
) -> [[T; NR]; MR] {
    debug_assert!(ap.len() >= kc * MR && bp.len() >= kc * NR, "packed panel too short");
    match variant {
        KernelVariant::Scalar => micro_kernel_scalar(ap, bp, kc),
        KernelVariant::Avx2 => micro_kernel_avx2(variant, ap, bp, kc),
        KernelVariant::Avx512 => micro_kernel_avx512(variant, ap, bp, kc),
    }
}

/// The original strictly scalar kernel: every accumulator receives
/// exactly one `mul_add` per k step, in ascending-k order — the rounding
/// order every other variant reproduces.
// me-verify: hot
#[inline]
fn micro_kernel_scalar<T: Scalar>(ap: &[T], bp: &[T], kc: usize) -> [[T; NR]; MR] {
    let mut acc = [[T::ZERO; NR]; MR];
    for p in 0..kc {
        let av = &ap[p * MR..(p + 1) * MR];
        let bv = &bp[p * NR..(p + 1) * NR];
        for (r, accr) in acc.iter_mut().enumerate() {
            let ar = av[r];
            for (accv, &bvv) in accr.iter_mut().zip(bv) {
                *accv = ar.mul_add(bvv, *accv);
            }
        }
    }
    acc
}

/// AVX2 dispatcher: picks the f64 or f32 intrinsic kernel by element
/// type. Reaching this with an unsupported type (impossible for the two
/// `Scalar` impls in this crate) falls back to the scalar kernel.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[inline]
fn micro_kernel_avx2<T: Scalar>(
    _variant: KernelVariant,
    ap: &[T],
    bp: &[T],
    kc: usize,
) -> [[T; NR]; MR] {
    use std::any::TypeId;
    assert!(ap.len() >= kc * MR && bp.len() >= kc * NR, "packed panel too short");
    if TypeId::of::<T>() == TypeId::of::<f64>() {
        // SAFETY: `TypeId` equality proves `T` *is* `f64`, so the slice
        // reinterpretations are identity casts (same layout, same length),
        // and `transmute_copy` maps `[[f64; NR]; MR]` back to the equal
        // type `[[T; NR]; MR]`. `avx2_f64` requires AVX2+FMA, which the
        // dispatch contract guarantees (the `Avx2` variant is only
        // selectable when `avx2_supported()` holds), and the panel-length
        // assert above covers its in-bounds requirement.
        unsafe {
            let ap64 = std::slice::from_raw_parts(ap.as_ptr().cast::<f64>(), ap.len());
            let bp64 = std::slice::from_raw_parts(bp.as_ptr().cast::<f64>(), bp.len());
            let acc = avx2_f64(ap64, bp64, kc);
            std::mem::transmute_copy::<[[f64; NR]; MR], [[T; NR]; MR]>(&acc)
        }
    } else if TypeId::of::<T>() == TypeId::of::<f32>() {
        // SAFETY: as above with `T` == `f32`: identity slice casts, equal
        // return types, AVX2+FMA guaranteed by the dispatch contract, and
        // panel lengths asserted in bounds.
        unsafe {
            let ap32 = std::slice::from_raw_parts(ap.as_ptr().cast::<f32>(), ap.len());
            let bp32 = std::slice::from_raw_parts(bp.as_ptr().cast::<f32>(), bp.len());
            let acc = avx2_f32(ap32, bp32, kc);
            std::mem::transmute_copy::<[[f32; NR]; MR], [[T; NR]; MR]>(&acc)
        }
    } else {
        micro_kernel_scalar(ap, bp, kc)
    }
}

/// Non-x86 stand-in: the `Avx2` variant is never available here
/// ([`avx2_supported`] is `false`), so this only exists to keep the
/// dispatch total; it runs the scalar kernel.
// me-verify: hot
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn micro_kernel_avx2<T: Scalar>(
    _variant: KernelVariant,
    ap: &[T],
    bp: &[T],
    kc: usize,
) -> [[T; NR]; MR] {
    micro_kernel_scalar(ap, bp, kc)
}

/// 4×8 f64 micro-kernel on AVX2+FMA.
///
/// Register layout: `acc[r]` holds row `r` of the C tile as two 4-lane
/// `__m256d` (columns 0..4 and 4..8). Per k step: two unaligned loads of
/// the packed-B row, then for each of the MR rows one broadcast of the
/// packed-A value and one `vfmaddpd` per half — exactly one fused
/// multiply-add per accumulator per k step, ascending k, matching the
/// scalar kernel's rounding order lane for lane.
///
/// # Safety
///
/// Caller must guarantee AVX2+FMA are available (runtime-detected) and
/// `ap.len() >= kc * MR`, `bp.len() >= kc * NR`.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_f64(ap: &[f64], bp: &[f64], kc: usize) -> [[f64; NR]; MR] {
    use std::arch::x86_64::{
        _mm256_broadcast_sd, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_setzero_pd,
        _mm256_storeu_pd,
    };
    let mut acc = [[_mm256_setzero_pd(); 2]; MR];
    for p in 0..kc {
        // SAFETY (pointer arithmetic): p < kc and the caller guarantees
        // bp holds kc * NR elements, so both 4-lane loads stay in bounds.
        let b0 = _mm256_loadu_pd(bp.as_ptr().add(p * NR));
        let b1 = _mm256_loadu_pd(bp.as_ptr().add(p * NR + 4));
        let av = &ap[p * MR..(p + 1) * MR];
        for (accr, ar) in acc.iter_mut().zip(av) {
            let a = _mm256_broadcast_sd(ar);
            accr[0] = _mm256_fmadd_pd(a, b0, accr[0]);
            accr[1] = _mm256_fmadd_pd(a, b1, accr[1]);
        }
    }
    let mut out = [[0.0f64; NR]; MR];
    for (outr, accr) in out.iter_mut().zip(&acc) {
        // SAFETY: outr is an [f64; 8]; the two stores cover lanes 0..4
        // and 4..8 exactly.
        _mm256_storeu_pd(outr.as_mut_ptr(), accr[0]);
        _mm256_storeu_pd(outr.as_mut_ptr().add(4), accr[1]);
    }
    out
}

/// 4×8 f32 micro-kernel on AVX2+FMA: one 8-lane `__m256` accumulator per
/// C-tile row, one `vfmaddps` per row per k step (ascending k) — the
/// 8-lane sibling of [`avx2_f64`] with the identical rounding order.
///
/// # Safety
///
/// Caller must guarantee AVX2+FMA are available (runtime-detected) and
/// `ap.len() >= kc * MR`, `bp.len() >= kc * NR`.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx2_f32(ap: &[f32], bp: &[f32], kc: usize) -> [[f32; NR]; MR] {
    use std::arch::x86_64::{
        _mm256_broadcast_ss, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };
    let mut acc = [_mm256_setzero_ps(); MR];
    for p in 0..kc {
        // SAFETY (pointer arithmetic): p < kc and the caller guarantees
        // bp holds kc * NR elements, so the 8-lane load stays in bounds.
        let b = _mm256_loadu_ps(bp.as_ptr().add(p * NR));
        let av = &ap[p * MR..(p + 1) * MR];
        for (accr, ar) in acc.iter_mut().zip(av) {
            let a = _mm256_broadcast_ss(ar);
            *accr = _mm256_fmadd_ps(a, b, *accr);
        }
    }
    let mut out = [[0.0f32; NR]; MR];
    for (outr, accr) in out.iter_mut().zip(&acc) {
        // SAFETY: outr is an [f32; 8]; one 8-lane store covers it exactly.
        _mm256_storeu_ps(outr.as_mut_ptr(), *accr);
    }
    out
}

/// AVX-512 dispatcher: picks the f64 or f32 intrinsic kernel by element
/// type, exactly mirroring [`micro_kernel_avx2`]'s TypeId-proven
/// identity casts. Unsupported element types fall back to the scalar
/// kernel.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[inline]
fn micro_kernel_avx512<T: Scalar>(
    _variant: KernelVariant,
    ap: &[T],
    bp: &[T],
    kc: usize,
) -> [[T; NR]; MR] {
    use std::any::TypeId;
    assert!(ap.len() >= kc * MR && bp.len() >= kc * NR, "packed panel too short");
    if TypeId::of::<T>() == TypeId::of::<f64>() {
        // SAFETY: `TypeId` equality proves `T` *is* `f64`, so the slice
        // reinterpretations are identity casts (same layout, same length),
        // and `transmute_copy` maps `[[f64; NR]; MR]` back to the equal
        // type `[[T; NR]; MR]`. `avx512_f64` requires AVX512F, which the
        // dispatch contract guarantees (the `Avx512` variant is only
        // selectable when `avx512_supported()` holds), and the
        // panel-length assert above covers its in-bounds requirement.
        unsafe {
            let ap64 = std::slice::from_raw_parts(ap.as_ptr().cast::<f64>(), ap.len());
            let bp64 = std::slice::from_raw_parts(bp.as_ptr().cast::<f64>(), bp.len());
            let acc = avx512_f64(ap64, bp64, kc);
            std::mem::transmute_copy::<[[f64; NR]; MR], [[T; NR]; MR]>(&acc)
        }
    } else if TypeId::of::<T>() == TypeId::of::<f32>() {
        // SAFETY: as above with `T` == `f32`: identity slice casts, equal
        // return types, AVX512F guaranteed by the dispatch contract, and
        // panel lengths asserted in bounds.
        unsafe {
            let ap32 = std::slice::from_raw_parts(ap.as_ptr().cast::<f32>(), ap.len());
            let bp32 = std::slice::from_raw_parts(bp.as_ptr().cast::<f32>(), bp.len());
            let acc = avx512_f32(ap32, bp32, kc);
            std::mem::transmute_copy::<[[f32; NR]; MR], [[T; NR]; MR]>(&acc)
        }
    } else {
        micro_kernel_scalar(ap, bp, kc)
    }
}

/// Non-x86 stand-in: the `Avx512` variant is never available here
/// ([`avx512_supported`] is `false`), so this only exists to keep the
/// dispatch total; it runs the scalar kernel.
// me-verify: hot
#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn micro_kernel_avx512<T: Scalar>(
    _variant: KernelVariant,
    ap: &[T],
    bp: &[T],
    kc: usize,
) -> [[T; NR]; MR] {
    micro_kernel_scalar(ap, bp, kc)
}

/// 4×8 f64 micro-kernel on AVX512F.
///
/// Register layout: `acc[r]` holds the whole row `r` of the C tile as one
/// 8-lane `__m512d`. Per k step: one unaligned load of the packed-B row,
/// then for each of the MR rows one broadcast of the packed-A value and
/// one `vfmadd231pd` — exactly one fused multiply-add per accumulator per
/// k step, ascending k, matching the scalar kernel's rounding order lane
/// for lane (a correctly-rounded FMA is the same bits wherever it runs).
///
/// # Safety
///
/// Caller must guarantee AVX512F is available (runtime-detected) and
/// `ap.len() >= kc * MR`, `bp.len() >= kc * NR`.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512_f64(ap: &[f64], bp: &[f64], kc: usize) -> [[f64; NR]; MR] {
    use std::arch::x86_64::{
        _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_set1_pd, _mm512_setzero_pd, _mm512_storeu_pd,
    };
    let mut acc = [_mm512_setzero_pd(); MR];
    for p in 0..kc {
        // SAFETY (pointer arithmetic): p < kc and the caller guarantees
        // bp holds kc * NR elements, so the 8-lane load stays in bounds.
        let b = _mm512_loadu_pd(bp.as_ptr().add(p * NR));
        let av = &ap[p * MR..(p + 1) * MR];
        for (accr, ar) in acc.iter_mut().zip(av) {
            let a = _mm512_set1_pd(*ar);
            *accr = _mm512_fmadd_pd(a, b, *accr);
        }
    }
    let mut out = [[0.0f64; NR]; MR];
    for (outr, accr) in out.iter_mut().zip(&acc) {
        // SAFETY: outr is an [f64; 8]; one 8-lane store covers it exactly.
        _mm512_storeu_pd(outr.as_mut_ptr(), *accr);
    }
    out
}

/// 4×8 f32 micro-kernel on AVX512F: two 16-lane `__m512` accumulators,
/// each packing two adjacent C rows (lanes 0..8 = row 2q, lanes 8..16 =
/// row 2q+1). Per k step: the 8-value packed-B row is loaded once and
/// lane-duplicated into both halves with `vpermps`, the A pair is
/// pair-broadcast the same way, and each accumulator receives one
/// `vfmadd231ps` — still exactly one fused multiply-add per scalar
/// accumulator lane per k step, ascending k, so the bitwise-identity
/// contract holds.
///
/// Only AVX512F instructions are used: `_mm512_permutexvar_ps` indexes
/// never select lanes above 7, so the undefined upper lanes of the
/// 128/256→512 casts are never observed.
///
/// # Safety
///
/// Caller must guarantee AVX512F is available (runtime-detected) and
/// `ap.len() >= kc * MR`, `bp.len() >= kc * NR`.
// me-verify: hot
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512_f32(ap: &[f32], bp: &[f32], kc: usize) -> [[f32; NR]; MR] {
    use std::arch::x86_64::{
        _mm256_loadu_ps, _mm512_castps128_ps512, _mm512_castps256_ps512, _mm512_fmadd_ps,
        _mm512_permutexvar_ps, _mm512_setr_epi32, _mm512_setzero_ps, _mm512_storeu_ps,
        _mm_loadu_ps,
    };
    // Duplicate B's 8 lanes into both 256-bit halves.
    let dup_b = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7);
    // Broadcast A lane 2q into the low half and lane 2q+1 into the high.
    let pair0 = _mm512_setr_epi32(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1);
    let pair1 = _mm512_setr_epi32(2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
    let mut acc = [_mm512_setzero_ps(); MR / 2];
    for p in 0..kc {
        // SAFETY (pointer arithmetic): p < kc and the caller guarantees
        // bp holds kc * NR elements and ap holds kc * MR, so the 8-lane B
        // load and the widened A splat stay in bounds.
        let b8 = _mm256_loadu_ps(bp.as_ptr().add(p * NR));
        let b = _mm512_permutexvar_ps(dup_b, _mm512_castps256_ps512(b8));
        // MR = 4 A values in one 4-lane load; the pair permutes read only
        // lanes 0..4, so the cast's undefined upper lanes are never used.
        let a4 = _mm512_castps128_ps512(_mm_loadu_ps(ap.as_ptr().add(p * MR)));
        let a01 = _mm512_permutexvar_ps(pair0, a4);
        let a23 = _mm512_permutexvar_ps(pair1, a4);
        acc[0] = _mm512_fmadd_ps(a01, b, acc[0]);
        acc[1] = _mm512_fmadd_ps(a23, b, acc[1]);
    }
    let mut out = [[0.0f32; NR]; MR];
    let out_ptr = out.as_mut_ptr().cast::<f32>();
    // SAFETY: out is a contiguous [[f32; 8]; 4] = 32 f32; the two 16-lane
    // stores cover rows 0..2 and 2..4 exactly.
    _mm512_storeu_ps(out_ptr, acc[0]);
    _mm512_storeu_ps(out_ptr.add(16), acc[1]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panels(kc: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let ap: Vec<f64> = (0..kc * MR).map(|_| next()).collect();
        let bp: Vec<f64> = (0..kc * NR).map(|_| next()).collect();
        (ap, bp)
    }

    #[test]
    fn avx2_matches_scalar_bitwise_when_available() {
        if !avx2_supported() {
            return;
        }
        for kc in [1usize, 3, 64, 256] {
            let (ap, bp) = panels(kc, 1000 + kc as u64);
            let s = micro_kernel_scalar(&ap, &bp, kc);
            let v = micro_kernel::<f64>(KernelVariant::Avx2, &ap, &bp, kc);
            for r in 0..MR {
                for j in 0..NR {
                    assert_eq!(
                        s[r][j].to_bits(),
                        v[r][j].to_bits(),
                        "avx2 != scalar at kc={kc} r={r} j={j}"
                    );
                }
            }
        }
    }

    #[test]
    fn avx512_matches_scalar_bitwise_when_available() {
        if !avx512_supported() {
            eprintln!("ukernel tests: host lacks avx512f; skipping avx512 bitwise pin");
            return;
        }
        for kc in [1usize, 3, 64, 256] {
            let (ap, bp) = panels(kc, 5000 + kc as u64);
            let s = micro_kernel_scalar(&ap, &bp, kc);
            let v = micro_kernel::<f64>(KernelVariant::Avx512, &ap, &bp, kc);
            for r in 0..MR {
                for j in 0..NR {
                    assert_eq!(
                        s[r][j].to_bits(),
                        v[r][j].to_bits(),
                        "avx512 != scalar at kc={kc} r={r} j={j}"
                    );
                }
            }
        }
    }

    #[test]
    fn f32_variants_agree_bitwise() {
        let kc = 37;
        let ap: Vec<f32> = (0..kc * MR).map(|i| (i as f32).sin()).collect();
        let bp: Vec<f32> = (0..kc * NR).map(|i| (i as f32).cos()).collect();
        let s = micro_kernel_scalar(&ap, &bp, kc);
        for v in available_variants() {
            let got = micro_kernel::<f32>(v, &ap, &bp, kc);
            for r in 0..MR {
                for j in 0..NR {
                    assert_eq!(s[r][j].to_bits(), got[r][j].to_bits(), "{v} r={r} j={j}");
                }
            }
        }
    }

    #[test]
    fn parse_and_names_roundtrip() {
        for v in KernelVariant::ALL {
            assert_eq!(KernelVariant::parse(v.name()), Some(v));
            assert_eq!(KernelVariant::parse(&v.name().to_uppercase()), Some(v));
            assert!(v.tag().ends_with(v.name()));
            assert!(v.counter().ends_with(v.name()));
        }
        assert_eq!(KernelVariant::parse("neon"), None);
        assert_eq!(KernelVariant::parse("portable"), None);
        assert_eq!(KernelVariant::parse(""), None);
    }

    #[test]
    fn startup_resolution_policy() {
        let best = if avx512_supported() {
            KernelVariant::Avx512
        } else if avx2_supported() {
            KernelVariant::Avx2
        } else {
            KernelVariant::Scalar
        };
        assert_eq!(resolve_startup(None), best);
        assert_eq!(resolve_startup(Some("scalar")), KernelVariant::Scalar);
        assert_eq!(resolve_startup(Some("bogus")), best);
        // `portable` names no variant: the unrecognized-value path.
        assert_eq!(resolve_startup(Some("PORTABLE")), best);
        // avx2/avx512 requested: honored when detected, degraded otherwise.
        let got = resolve_startup(Some("avx2"));
        assert_eq!(got, if avx2_supported() { KernelVariant::Avx2 } else { KernelVariant::Scalar });
        let got = resolve_startup(Some("AVX512"));
        assert_eq!(
            got,
            if avx512_supported() { KernelVariant::Avx512 } else { KernelVariant::Scalar }
        );
    }

    #[test]
    fn available_variants_always_contains_the_scalar_fallback() {
        let avail = available_variants();
        assert!(avail.contains(&KernelVariant::Scalar));
        assert_eq!(avail.contains(&KernelVariant::Avx2), avx2_supported());
        assert_eq!(avail.contains(&KernelVariant::Avx512), avx512_supported());
        for v in avail {
            assert_eq!(v.resolve_supported(), v);
        }
    }

    #[test]
    fn override_slot_wins_and_clears() {
        let table = KernelDispatch {
            default: KernelVariant::Avx2,
            override_slot: std::sync::atomic::AtomicU8::new(0),
        };
        assert_eq!(table.selected(), KernelVariant::Avx2);
        for v in KernelVariant::ALL {
            table.set_override(Some(v));
            assert_eq!(table.selected(), v);
        }
        assert_eq!(table.startup_default(), KernelVariant::Avx2);
        table.set_override(None);
        assert_eq!(table.selected(), KernelVariant::Avx2);
    }

    #[test]
    fn unsupported_resolves_to_scalar() {
        if avx2_supported() {
            assert_eq!(KernelVariant::Avx2.resolve_supported(), KernelVariant::Avx2);
        } else {
            assert_eq!(KernelVariant::Avx2.resolve_supported(), KernelVariant::Scalar);
        }
        if avx512_supported() {
            assert_eq!(KernelVariant::Avx512.resolve_supported(), KernelVariant::Avx512);
        } else {
            assert_eq!(KernelVariant::Avx512.resolve_supported(), KernelVariant::Scalar);
        }
        assert_eq!(KernelVariant::Scalar.resolve_supported(), KernelVariant::Scalar);
    }
}
