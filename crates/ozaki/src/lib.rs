//! # me-ozaki
//!
//! The Ozaki scheme (paper §IV-B, Table VIII): emulating high-precision
//! GEMM with low-precision matrix engines via error-free transformations.
//!
//! The scheme slices the input matrices element-wise into sums of
//! low-precision pieces such that every pairwise product of slices is
//! *exact* in the matrix engine's accumulator:
//!
//! 1. [`split::split_rows`] extracts, per row of `A`, the top `β` significand
//!    bits relative to the row's maximum exponent (Rump extraction); the
//!    remainder is split again, and so on. Columns of `B` are treated
//!    symmetrically. `β` is chosen so that a `k`-long dot product of two
//!    `β`-bit integer slices stays below the accumulator's mantissa capacity
//!    (`2β + ⌈log₂k⌉ ≤ 24` for f16-multiply/f32-accumulate Tensor Cores).
//! 2. Slice pairs are multiplied on a low-precision engine. Each slice is
//!    packed once into the engine's element type, and every engine call
//!    (one slice pair × one `k_block` chunk) is exact because β keeps the
//!    chunk sum inside the engine's accumulator.
//! 3. The exact partial products are scaled back by powers of two (integer
//!    exponent bookkeeping) and accumulated in a deterministic double-double
//!    accumulator, giving **bitwise-reproducible** results independent of
//!    slice or thread order — feature (1) the paper highlights.
//!
//! Steps 1–3 are written once ([`gemm`]). A substrate is a `SliceEngine`
//! ([`engine`]) that supplies only the slice element type, its exact
//! narrowing, its multiply/accumulate widths, the chunk call and its trace
//! names: the simulated f16/f32 Tensor Core, the host f16 widening
//! kernels, the host INT8 kernels (Uchino & Ozaki 2025) and the systolic
//! array simulator. One [`OzakiConfig`] configures all of them, and
//! `OzakiConfig::schedule` is the one place β, the slice budget and the
//! pair cutoff are decided, with the config's precisions clamped to the
//! engine's formats. The entry points:
//!
//! - [`ozaki_gemm`]: the simulated engine, serial;
//! - [`ozaki_gemm_backend`]: any [`OzakiBackend`], serial, on the
//!   process-selected kernel variant;
//! - [`ozaki_gemm_with`]: any backend on a pinned kernel variant and a
//!   thread count or pool ([`Workers`]), bitwise equal to the serial run;
//! - [`ozaki_gemm_systolic`]: the systolic array, with its cycle counts.
//!
//! The number of slices depends on the *dynamic range* of the input (the
//! paper's Table VIII degrades from 1e+8 to 1e+32 input ranges); the
//! [`perf`] module projects the resulting throughput/power per substrate,
//! regenerating Table VIII.

pub mod backend;
pub mod bounds;
pub mod energy;
pub mod engine;
pub mod gemm;
pub mod perf;
pub mod split;

pub use backend::{ozaki_gemm_backend, ozaki_gemm_with, OzakiBackend, Workers};
pub use bounds::{plan, truncation_bound, SplitPlan};
pub use energy::{
    emit_energy_counters, host_f16_vs_me_vs_int8_rows, int8_vs_f16_rows, EnergyRow,
};
pub use engine::{ozaki_gemm_systolic, EngineOzakiResult};
pub use gemm::{
    ozaki_dot, ozaki_gemm, ozaki_gemv, OzakiConfig, OzakiReport, Schedule, TargetAccuracy,
};
pub use perf::{project_emulated, table8_rows, EmulatedGemmPerf, Table8Row};
pub use split::{
    required_beta, split_cols, split_cols_parallel, split_rows, split_rows_parallel, SplitMatrix,
};
