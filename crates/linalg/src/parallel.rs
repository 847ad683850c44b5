//! Scoped-thread fan-outs for the dense kernels, behind one work gate.
//!
//! The workspace deliberately avoids a global thread pool: the BO engine
//! owns its own worker pool for simulator evaluations, and linear-algebra
//! parallelism is short-lived fork/join over row blocks. Scoped threads
//! give data-race-free borrowing of the output buffer without `Arc`.
//!
//! Every kernel fan-out passes a `work` estimate in flop-ish units (one
//! multiply-add ≈ 1) to [`fan_out`]. Below [`PAR_THRESHOLD`] it runs
//! serially on the caller: a spawn plus join costs tens of microseconds,
//! and a fresh helper rebuilds its `thread_local!` workspaces. Above it,
//! the fan-out runs on up to [`num_threads`] threads, the caller's
//! included.
//!
//! The caller runs the first block and each helper one more. Inside a
//! block [`num_threads`] is 1, so nested fan-outs stay serial. Helpers
//! decide only *which thread* computes a row or index, never *what* it
//! computes, and call sites fold fixed grids in grid order: results are
//! bitwise identical whatever the thread count.
//!
//! [`fan_out_stats`] counts each gated fan-out's outcome: `spawned`
//! (got a helper), `serial_small` (work below the gate, or one item) or
//! `serial_capped` (the cap allows one thread: a cap of 1, or nested
//! inside another fan-out's block).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Work (in flop-ish units) below which spawning threads costs more than
/// it saves. The crate's only parallel cut-off: every fan-out gates on
/// it through [`fan_out`]. Correctness does not depend on it.
pub const PAR_THRESHOLD: usize = 1 << 21;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Fan-out outcome counters. `Relaxed`: they publish no other data.
static SPAWNED: AtomicU64 = AtomicU64::new(0);
static SERIAL_SMALL: AtomicU64 = AtomicU64::new(0);
static SERIAL_CAPPED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set while a thread runs a block of a fan-out (the caller's block
    /// or a helper's). Such threads report `num_threads() == 1`, so
    /// nested fan-outs (e.g. a multistart polished inside BSP-EGO's
    /// per-cell `par_map`) run serially instead of oversubscribing.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// True when called from inside a block of a fan-out run by one of the
/// helpers in this module.
pub fn in_parallel_region() -> bool {
    IN_PARALLEL_REGION.with(Cell::get)
}

/// Marks the current thread as inside a fan-out until dropped, then
/// restores the previous state (the caller's thread outlives its block).
struct Region(bool);

fn enter_region() -> Region {
    Region(IN_PARALLEL_REGION.with(|c| c.replace(true)))
}

impl Drop for Region {
    fn drop(&mut self) {
        IN_PARALLEL_REGION.with(|c| c.set(self.0));
    }
}

/// Override the number of worker threads used by the dense kernels
/// (0 = use `PBO_NUM_THREADS` or available parallelism). Mostly for
/// tests and benchmarks.
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// `PBO_NUM_THREADS` environment override, parsed once per process.
fn env_threads() -> usize {
    static ENV_THREADS: OnceLock<usize> = OnceLock::new();
    *ENV_THREADS.get_or_init(|| {
        std::env::var("PBO_NUM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(0)
    })
}

/// The most threads one fan-out runs on, its caller included.
///
/// Resolution order: nested-region guard (always 1 inside a fan-out),
/// then [`set_num_threads`], then the `PBO_NUM_THREADS` environment
/// variable, then `std::thread::available_parallelism()`.
pub fn num_threads() -> usize {
    if in_parallel_region() {
        return 1;
    }
    let over = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    let env = env_threads();
    if env > 0 {
        return env;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The work gate: how many threads (≥ 1, the caller included) a fan-out
/// of `items` independent items costing `work` flop-ish units in total
/// runs on. Serial when `work < PAR_THRESHOLD` or there are fewer than
/// two items; otherwise `min(num_threads(), items)`.
pub fn fan_out(work: usize, items: usize) -> usize {
    if work < PAR_THRESHOLD || items < 2 {
        SERIAL_SMALL.fetch_add(1, Ordering::Relaxed);
        return 1;
    }
    let threads = num_threads().min(items);
    let outcome = if threads == 1 { &SERIAL_CAPPED } else { &SPAWNED };
    outcome.fetch_add(1, Ordering::Relaxed);
    threads
}

/// Snapshot of the fan-out counters (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FanOutStats {
    /// Fan-outs that spawned at least one helper.
    pub spawned: u64,
    /// Fan-outs kept serial because their work was below the gate.
    pub serial_small: u64,
    /// Fan-outs above the gate kept serial because the cap allows one
    /// thread (a cap of 1, or nested inside another fan-out's block).
    pub serial_capped: u64,
}

/// Read the process-wide fan-out counters.
pub fn fan_out_stats() -> FanOutStats {
    FanOutStats {
        spawned: SPAWNED.load(Ordering::Relaxed),
        serial_small: SERIAL_SMALL.load(Ordering::Relaxed),
        serial_capped: SERIAL_CAPPED.load(Ordering::Relaxed),
    }
}

/// Run `job` on every block: the first on the caller, each other one on
/// a scoped helper, all inside the parallel region. A panic in any block
/// propagates once every helper has joined.
fn run_blocks<B, J>(blocks: impl IntoIterator<Item = B>, job: J)
where
    B: Send,
    J: Fn(B) + Sync,
{
    let mut blocks = blocks.into_iter();
    let Some(first) = blocks.next() else { return };
    std::thread::scope(|s| {
        let job = &job;
        for block in blocks {
            s.spawn(move || {
                let _region = enter_region();
                job(block);
            });
        }
        let _region = enter_region();
        job(first);
    });
}

/// Apply `f(i, row)` to each `width`-sized row of `out`, splitting rows
/// across the threads [`fan_out`] grants for `work`.
///
/// `f` must be pure per row: rows are disjoint so no synchronisation is
/// needed. This is the row-block pattern the Rayon docs describe, done
/// with `std::thread::scope` so the crate carries no pool.
pub fn for_each_row_chunk<F>(out: &mut [f64], width: usize, work: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    if width == 0 || out.is_empty() {
        return;
    }
    debug_assert_eq!(out.len() % width, 0);
    let rows = out.len() / width;
    let threads = fan_out(work, rows);
    if threads == 1 {
        for (i, row) in out.chunks_mut(width).enumerate() {
            f(i, row);
        }
        return;
    }
    let rows_per = rows.div_ceil(threads);
    run_blocks(out.chunks_mut(rows_per * width).enumerate(), |(t, block)| {
        for (k, row) in block.chunks_mut(width).enumerate() {
            f(t * rows_per + k, row);
        }
    });
}

/// Apply `f(i, row)` to each *variable-length* row of `out`, where row
/// `i` owns `out[offsets[i]..offsets[i + 1]]`, splitting rows across the
/// threads [`fan_out`] grants for `work`.
///
/// This is the packed-triangular companion of
/// [`for_each_row_chunk`]: pair-major buffers (one ragged row per
/// training point, row `a` holding its `a` pairs `b < a`) stay
/// contiguous per row, so the same disjoint-chunk borrow argument
/// applies. Blocks are equal-row, so triangular layouts are imbalanced
/// by up to ~2x — acceptable for the short fork/join fan-outs used here.
pub fn for_each_ragged_row_chunk<F>(out: &mut [f64], offsets: &[usize], work: usize, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    if offsets.len() < 2 {
        return;
    }
    let rows = offsets.len() - 1;
    debug_assert_eq!(offsets[rows], out.len());
    let job = |(r0, r1, block): (usize, usize, &mut [f64])| {
        let mut at = 0;
        for i in r0..r1 {
            let len = offsets[i + 1] - offsets[i];
            f(i, &mut block[at..at + len]);
            at += len;
        }
    };
    let threads = fan_out(work, rows);
    if threads == 1 {
        job((0, rows, out));
        return;
    }
    let rows_per = rows.div_ceil(threads);
    // Cut `out` into blocks of `rows_per` ragged rows: (first row, end
    // row, the rows' contiguous slice).
    let mut blocks = Vec::with_capacity(threads);
    let mut rest = out;
    let mut r0 = 0;
    while r0 < rows {
        let r1 = (r0 + rows_per).min(rows);
        let (block, tail) = rest.split_at_mut(offsets[r1] - offsets[r0]);
        blocks.push((r0, r1, block));
        rest = tail;
        r0 = r1;
    }
    run_blocks(blocks, job);
}

/// Parallel map over indices `0..n` collecting into a `Vec`, on the
/// threads [`fan_out`] grants for `work` (the flop-ish cost of all `n`
/// calls together).
///
/// Used for embarrassingly parallel per-index computations (the MLL
/// gradient's row chunks, multistart scoring blocks and polishes,
/// BSP-EGO's per-cell acquisitions).
pub fn par_map<T, F>(n: usize, work: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    let mut out = vec![T::default(); n];
    let threads = fan_out(work, n);
    if threads == 1 {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(i);
        }
        return out;
    }
    let per = n.div_ceil(threads);
    run_blocks(out.chunks_mut(per).enumerate(), |(t, block)| {
        for (k, slot) in block.iter_mut().enumerate() {
            *slot = f(t * per + k);
        }
    });
    out
}

/// Dynamically scheduled parallel map over `0..n` with an **explicit**
/// worker count, the caller being one of them: workers pull the next
/// index from a shared atomic counter, so tasks of wildly different
/// durations (e.g. whole optimization runs in the bench orchestrator)
/// balance instead of being pinned to contiguous blocks as in
/// [`par_map`].
///
/// The count is taken as given — the orchestrator's `--jobs N` keeps
/// its N workers. Kernel callers size it with [`fan_out`] instead.
///
/// The output is keyed by index — slot `i` always holds `f(i)` — so the
/// result is independent of the worker count and of scheduling order.
/// With two or more workers every worker runs inside the parallel
/// region: nested kernel fan-outs (GP fits, multistarts) see
/// `num_threads() == 1` and stay sequential, so an `N`-worker
/// orchestration neither oversubscribes the machine nor perturbs the
/// bit-exact per-run arithmetic.
///
/// A panic in `f` propagates to the caller once the scope joins.
pub fn par_map_workers<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<std::sync::Mutex<Option<T>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    run_blocks(0..workers, |_| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let v = f(i);
        *slots[i].lock().expect("result slot poisoned") = Some(v);
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker pool filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// Work large enough to pass the gate.
    const BIG: usize = usize::MAX;

    fn fill(i: usize, row: &mut [f64]) {
        for (j, v) in row.iter_mut().enumerate() {
            *v = (i * 100 + j) as f64;
        }
    }

    #[test]
    fn row_chunks_parallel_path_matches_sequential() {
        let mut seq = vec![0.0; 64 * 8];
        let mut par = vec![0.0; 64 * 8];
        for_each_row_chunk(&mut seq, 8, 0, fill);
        for_each_row_chunk(&mut par, 8, BIG, fill);
        assert_eq!(seq, par);
        assert_eq!((seq[8], seq[63 * 8 + 7]), (100.0, 6307.0));
    }

    #[test]
    fn ragged_rows_cover_all_rows_both_paths() {
        // Triangular layout: row i owns i entries (row 0 is empty).
        let offsets: Vec<usize> = (0..10).map(|i| i * (i.max(1) - 1) / 2).collect();
        let total = *offsets.last().unwrap();
        let mut seq = vec![-1.0; total];
        let mut par = vec![-1.0; total];
        for_each_ragged_row_chunk(&mut seq, &offsets, 0, fill);
        for_each_ragged_row_chunk(&mut par, &offsets, BIG, fill);
        assert_eq!(seq, par);
        assert_eq!((seq[offsets[5]], seq[offsets[6] - 1]), (500.0, 504.0));
        assert!(!seq.contains(&-1.0));
    }

    #[test]
    fn par_map_matches_serial() {
        let b: Vec<usize> = (0..100).map(|i| i * i).collect();
        assert_eq!(par_map(100, 0, |i| i * i), b);
        assert_eq!(par_map(100, BIG, |i| i * i), b);
        assert!(par_map(0, BIG, |_| 1.0).is_empty());
    }

    /// The thread-count override is process-global; tests that set it
    /// serialize here.
    static OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Serialize, then run `body` under a thread cap of `cap`.
    fn with_cap<R>(cap: usize, body: impl FnOnce() -> R) -> R {
        let _g = OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_num_threads(cap);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        set_num_threads(0);
        r.unwrap_or_else(|p| std::panic::resume_unwind(p))
    }

    /// Whether every index of a `par_map` over `n` costing `work` ran on
    /// this thread.
    fn on_caller_only(n: usize, work: usize) -> bool {
        let me = std::thread::current().id();
        par_map(n, work, |_| Some(std::thread::current().id())).iter().all(|t| *t == Some(me))
    }

    #[test]
    fn thread_override_roundtrip() {
        assert_eq!(with_cap(3, num_threads), 3);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn every_block_reports_a_single_thread_inside_the_region() {
        let flags = with_cap(4, || par_map(64, BIG, |_| (in_parallel_region(), num_threads())));
        assert!(flags.iter().all(|&(inside, n)| inside && n == 1));
        // The caller's thread leaves the region with its block; the
        // serial path never enters it.
        assert!(!in_parallel_region());
        assert!(!par_map(4, 0, |_| in_parallel_region()).iter().any(|&b| b));
    }

    #[test]
    fn small_work_runs_on_the_caller() {
        let before = fan_out_stats().serial_small;
        assert!(with_cap(4, || on_caller_only(64, PAR_THRESHOLD - 1)));
        assert!(fan_out_stats().serial_small > before);
    }

    #[test]
    fn large_work_spawns_up_to_the_cap() {
        let before = fan_out_stats();
        let (spread, capped) = with_cap(2, || (!on_caller_only(64, BIG), fan_out(BIG, 64)));
        assert!(spread, "work above the gate ran on the caller only");
        assert_eq!(capped, 2);
        assert!(fan_out_stats().spawned >= before.spawned + 2);
        // A cap of 1 keeps it on the caller and counts why.
        assert!(with_cap(1, || on_caller_only(64, BIG)));
        assert!(fan_out_stats().serial_capped > before.serial_capped);
    }

    #[test]
    fn a_panicking_block_leaves_the_region() {
        for bad in [7, 0] {
            // Index 0 is the caller's block, index 7 a helper's.
            let caught = with_cap(2, || {
                std::panic::catch_unwind(|| {
                    par_map(8, BIG, |i| if i == bad { panic!("block {i} panics") } else { i })
                })
            });
            assert!(caught.is_err());
            assert!(!in_parallel_region());
        }
    }

    #[test]
    fn par_map_workers_matches_serial_for_any_worker_count() {
        let expect: Vec<usize> = (0..37).map(|i| i * i).collect();
        for workers in [1, 2, 3, 8, 64] {
            assert_eq!(par_map_workers(37, workers, |i| i * i), expect, "workers={workers}");
        }
        assert!(par_map_workers(0, 4, |i| i).is_empty());
    }

    #[test]
    fn par_map_workers_keeps_its_explicit_count_whatever_the_cap() {
        // A cap of 1: four tasks that each wait for all four pass only
        // with four live workers.
        let flags = with_cap(1, || {
            let barrier = Barrier::new(4);
            par_map_workers(4, 4, |_| {
                barrier.wait();
                (in_parallel_region(), num_threads())
            })
        });
        // Nested fan-outs inside the workers stay sequential.
        assert!(flags.iter().all(|&(inside, n)| inside && n == 1));
        assert!(!in_parallel_region());
    }

    #[test]
    fn nested_par_map_degrades_to_serial_and_matches() {
        let nested = with_cap(4, || {
            par_map(8, BIG, |i| par_map(16, BIG, |j| (i * 16 + j) as f64).iter().sum::<f64>())
        });
        let expect: Vec<f64> =
            (0..8).map(|i| (0..16).map(|j| (i * 16 + j) as f64).sum()).collect();
        assert_eq!(nested, expect);
    }
}
