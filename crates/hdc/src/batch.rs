//! Batch execution: ordered, fallible parallel map over slices.
//!
//! The batch classification APIs ([`crate::AssociativeMemory::classify_batch`],
//! [`crate::HdcClassifier::predict_batch`]) fan work out across OS threads
//! with `std::thread::scope`: scoped threads over contiguous chunks, which
//! suit these embarrassingly parallel workloads without any dependency.
//!
//! Guarantees:
//!
//! * Results are returned in input order regardless of scheduling.
//! * On error, the error with the **lowest input index** is returned —
//!   identical to what a sequential fail-fast loop would report.
//! * Batches below the [`parallel_threshold`] run inline: spawning threads
//!   for a handful of items costs more than it saves. The threshold is
//!   process-wide and tunable ([`set_parallel_threshold`]) because the
//!   break-even point depends on the caller: offline evaluation sweeps hand
//!   over thousands of inputs at a time, while a serving coalescer drains
//!   batches of 16–64 that still deserve the fan-out.
//! * Worker count is resolved **once** per process
//!   ([`resolved_parallelism`]), not per call — `available_parallelism` is
//!   a syscall on some platforms and its answer does not change while we
//!   run.
//! * Inline and parallel execution are **bit-identical**: chunking never
//!   changes per-item results or which error wins (pinned by the
//!   `threshold_boundary_*` tests below).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default minimum batch size before worker threads are spawned.
///
/// Chosen for the offline batch paths (evaluation sweeps, fuzzing
/// campaigns) where items are plentiful; serving layers typically lower it
/// with [`set_parallel_threshold`].
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 64;

static PARALLEL_THRESHOLD: AtomicUsize = AtomicUsize::new(DEFAULT_PARALLEL_THRESHOLD);

/// The process-wide worker budget for batch fan-out, resolved exactly once
/// from `std::thread::available_parallelism` (1 if unknown).
pub fn resolved_parallelism() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Current minimum batch size before worker threads are spawned.
pub fn parallel_threshold() -> usize {
    PARALLEL_THRESHOLD.load(Ordering::Relaxed)
}

/// Sets the minimum batch size before worker threads are spawned
/// (process-wide; clamped to at least 1 so empty slices always run
/// inline). Lowering it lets server-sized batches fan out; results are
/// bit-identical either way.
pub fn set_parallel_threshold(threshold: usize) {
    PARALLEL_THRESHOLD.store(threshold.max(1), Ordering::Relaxed);
}

/// Applies `f` to every item, in parallel for large slices, preserving
/// input order and sequential error semantics.
pub(crate) fn map_indexed<T, O, E, F>(items: &[T], f: F) -> Result<Vec<O>, E>
where
    T: Sync,
    O: Send,
    E: Send,
    F: Fn(&T) -> Result<O, E> + Sync,
{
    map_chunks(items, |chunk| chunk.iter().map(&f).collect())
}

/// Applies a chunk-level `f` across contiguous chunks of `items`, one chunk
/// per worker, preserving input order. `f` sees each worker's whole chunk,
/// so it can reuse scratch buffers across the items it processes (the
/// encode-batch path relies on this).
///
/// `f` must return one output per chunk item (prefix on error) and fail on
/// the first bad item, which keeps the lowest-index-error guarantee.
pub(crate) fn map_chunks<T, O, E, F>(items: &[T], f: F) -> Result<Vec<O>, E>
where
    T: Sync,
    O: Send,
    E: Send,
    F: Fn(&[T]) -> Result<Vec<O>, E> + Sync,
{
    map_chunks_with(items, parallel_threshold(), resolved_parallelism(), f)
}

/// [`map_chunks`] with explicit threshold and worker count — the testable
/// core, so inline-vs-parallel equality can be pinned without mutating the
/// process-wide knobs.
pub(crate) fn map_chunks_with<T, O, E, F>(
    items: &[T],
    threshold: usize,
    workers: usize,
    f: F,
) -> Result<Vec<O>, E>
where
    T: Sync,
    O: Send,
    E: Send,
    F: Fn(&[T]) -> Result<Vec<O>, E> + Sync,
{
    if items.len() < threshold.max(1) || workers <= 1 {
        return f(items);
    }
    let workers = workers.min(items.len());
    let chunk_size = items.len().div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            items.chunks(chunk_size).map(|chunk| scope.spawn(move || f(chunk))).collect();
        let mut out = Vec::with_capacity(items.len());
        for handle in handles {
            // Chunks are contiguous and joined in order, so the first error
            // seen here is the lowest-index error (a chunk stops at its
            // first failure, and all earlier chunks completed cleanly).
            out.extend(handle.join().expect("batch worker panicked")?);
        }
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order_small() {
        let items: Vec<usize> = (0..10).collect();
        let out: Vec<usize> = map_indexed(&items, |&x| Ok::<_, ()>(x * 2)).unwrap();
        assert_eq!(out, (0..10).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn maps_in_order_large_parallel() {
        let items: Vec<usize> = (0..1_000).collect();
        let out: Vec<usize> = map_indexed(&items, |&x| Ok::<_, ()>(x + 1)).unwrap();
        assert_eq!(out, (1..=1_000).collect::<Vec<_>>());
    }

    #[test]
    fn returns_lowest_index_error() {
        let items: Vec<usize> = (0..500).collect();
        let err = map_indexed(&items, |&x| if x >= 137 { Err(x) } else { Ok(x) }).unwrap_err();
        assert_eq!(err, 137);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let items: Vec<u8> = Vec::new();
        let out = map_indexed(&items, |&x| Ok::<_, ()>(x)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn threshold_boundary_inline_and_parallel_agree() {
        // At sizes threshold-1 / threshold / threshold+1, the inline path
        // (threshold above the batch) and the parallel path (threshold at
        // or below it, many workers) must produce identical output.
        const T: usize = 8;
        for n in [T - 1, T, T + 1] {
            let items: Vec<usize> = (0..n).collect();
            let inline =
                map_chunks_with(&items, usize::MAX, 8, |c| Ok::<_, ()>(c.to_vec())).unwrap();
            let parallel = map_chunks_with(&items, T, 8, |c| Ok::<_, ()>(c.to_vec())).unwrap();
            assert_eq!(inline, parallel, "size {n} diverged across the threshold boundary");
        }
    }

    #[test]
    fn threshold_boundary_error_semantics_agree() {
        // The lowest-index error wins identically on both sides of the
        // boundary, even when a later chunk also fails.
        const T: usize = 8;
        for n in [T, T + 1, 4 * T] {
            let items: Vec<usize> = (0..n).collect();
            let fail_at = T - 2;
            let run = |threshold, workers| {
                map_chunks_with(&items, threshold, workers, |chunk| {
                    chunk.iter().map(|&x| if x >= fail_at { Err(x) } else { Ok(x) }).collect()
                })
                .unwrap_err()
            };
            assert_eq!(run(usize::MAX, 8), fail_at);
            assert_eq!(run(T, 8), fail_at);
        }
    }

    #[test]
    fn parallelism_resolves_once_and_threshold_is_tunable() {
        assert!(resolved_parallelism() >= 1);
        assert_eq!(resolved_parallelism(), resolved_parallelism());
        let before = parallel_threshold();
        set_parallel_threshold(0); // clamped: empty batches must stay inline
        assert_eq!(parallel_threshold(), 1);
        let empty: Vec<u8> = Vec::new();
        assert!(map_indexed(&empty, |&x| Ok::<_, ()>(x)).unwrap().is_empty());
        set_parallel_threshold(16);
        assert_eq!(parallel_threshold(), 16);
        set_parallel_threshold(before);
    }
}
