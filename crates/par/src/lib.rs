//! # me-par
//!
//! A small, std-only persistent worker pool: the parallel execution
//! substrate shared by the BLAS layer (`me-linalg`'s row-panel parallel
//! GEMM), the Ozaki pipeline (`me-ozaki`'s per-line slicing and slice-pair
//! accumulation), and the benches.
//!
//! Design constraints, in order:
//!
//! 1. **No external crates.** The workspace builds fully offline; the pool
//!    is `std::thread` + `Mutex`/`Condvar` only.
//! 2. **Persistent workers.** Threads are spawned once per [`WorkerPool`]
//!    and parked on a condvar between submissions, so repeated parallel
//!    GEMMs (the Ozaki fan-out issues thousands) pay no per-call spawn
//!    cost. The common entry point is the lazily-created [`global`] pool.
//! 3. **Borrowed jobs.** Submissions execute `Fn(usize)` closures that may
//!    borrow the caller's stack (matrix panels, packing buffers).
//!    [`WorkerPool::parallel_for`] erases the closure lifetime behind a raw
//!    pointer and does not return until every job has finished, which is
//!    exactly the guarantee `std::thread::scope` provides — see the safety
//!    argument on [`WorkerPool::parallel_for`].
//!
//! One knob controls every consumer: [`resolve_threads`] maps the
//! conventional `0 = auto` request through the `ME_THREADS` environment
//! variable to the OS-reported parallelism, and `me-engine::exec` re-uses
//! the same resolution for its *modeled* multi-core scaling, so measured
//! and modeled parallelism can never silently diverge.

mod pool;

pub use pool::{global, WorkerPool};

/// Environment variable overriding the automatic thread count (`0` or a
/// non-numeric value is ignored).
pub const THREADS_ENV: &str = "ME_THREADS";

/// Resolve a thread-count request: a positive `requested` wins; `0` means
/// auto — the `ME_THREADS` environment variable if set to a positive
/// integer, otherwise the OS-reported available parallelism (at least 1).
// me-verify: env-startup
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(s) = std::env::var(THREADS_ENV) {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Where a parallel computation runs: a requested thread count or a
/// caller-supplied pool.
#[derive(Debug, Clone, Copy)]
pub enum Workers<'a> {
    /// A thread count; `0` means auto ([`resolve_threads`]).
    Threads(usize),
    /// A caller-supplied pool (the scaling benches sweep widths).
    Pool(&'a WorkerPool),
}

impl Workers<'_> {
    /// Run `f` on the pool this request resolves to, or serially
    /// (`None`). The one pool-resolution rule: a [`Workers::Pool`] is
    /// used as given; a thread count is resolved, capped at `units` (the
    /// caller's number of independent work units), and then runs
    /// serially at ≤ 1, on the [`global`] pool when the count equals its
    /// width, and on a fresh pool of that width otherwise.
    pub fn run<R>(self, units: usize, f: impl FnOnce(Option<&WorkerPool>) -> R) -> R {
        match self {
            Workers::Pool(pool) => f(Some(pool)),
            Workers::Threads(t) => match resolve_threads(t).min(units.max(1)) {
                1 => f(None),
                n if n == global().threads() => f(Some(global())),
                n => f(Some(&WorkerPool::new(n))),
            },
        }
    }
}

/// The process-wide lock serializing tests that mutate scheduling
/// environment variables (`ME_THREADS`, `ME_SHARDS`, …).
///
/// Process environment is shared mutable state, and the test harness runs
/// tests on parallel threads; any test that sets, removes, *or merely
/// reads* one of these variables must hold this lock so set/remove/read
/// cannot interleave across crates. `me-par`'s own tests and `me-serve`'s
/// `ME_SHARDS` tests both serialize here — a single lock, because the
/// hazard is the shared process environment, not any one variable.
///
/// The runtime contract this protects is *startup-read*:
/// [`resolve_threads`] (and `me-serve::resolve_shards`) consult the
/// environment when a pool/scheduler is constructed, never afterwards.
/// See DESIGN.md §10.
pub fn env_lock() -> &'static std::sync::Mutex<()> {
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    &ENV_LOCK
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_env<R>(value: Option<&str>, f: impl FnOnce() -> R) -> R {
        let _g = env_lock().lock().unwrap_or_else(|e| e.into_inner());
        let saved = std::env::var(THREADS_ENV).ok();
        match value {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
        let r = f();
        match saved {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
        r
    }

    #[test]
    fn explicit_request_wins() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
    }

    #[test]
    fn explicit_request_beats_the_env_override() {
        with_env(Some("7"), || {
            assert_eq!(resolve_threads(2), 2, "positive request ignores ME_THREADS");
        });
    }

    #[test]
    fn auto_is_at_least_one() {
        with_env(None, || {
            assert!(resolve_threads(0) >= 1);
        });
    }

    #[test]
    fn auto_honors_me_threads() {
        with_env(Some("5"), || {
            assert_eq!(resolve_threads(0), 5);
        });
        with_env(Some(" 12 "), || {
            assert_eq!(resolve_threads(0), 12, "surrounding whitespace is trimmed");
        });
    }

    #[test]
    fn workers_resolve_to_serial_global_or_fresh_pools() {
        // `global()` reads ME_THREADS on first use.
        let _g = env_lock().lock().unwrap_or_else(|e| e.into_inner());
        let width = |w: Workers<'_>, units| w.run(units, |p| p.map(WorkerPool::threads));
        assert_eq!(width(Workers::Threads(1), 8), None);
        assert_eq!(width(Workers::Threads(4), 1), None, "capped at the work units");
        assert_eq!(width(Workers::Threads(3), 8), Some(3));
        assert_eq!(width(Workers::Threads(8), 3), Some(3));
        let g = global().threads();
        let on_global =
            Workers::Threads(g).run(usize::MAX, |p| p.is_some_and(|p| std::ptr::eq(p, global())));
        assert_eq!(on_global, g > 1);
        let pool = WorkerPool::new(2);
        assert_eq!(width(Workers::Pool(&pool), 1), Some(2), "a given pool is used as is");
    }

    #[test]
    fn invalid_me_threads_falls_back_to_auto() {
        for bad in ["0", "-3", "lots", "", "4.5"] {
            with_env(Some(bad), || {
                assert!(resolve_threads(0) >= 1, "ME_THREADS={bad:?} must fall back to auto");
            });
        }
    }
}
