//! # antdt-par — ordered fan-out for the experiment fabric
//!
//! The one primitive the experiment harness needs: [`par_map`] runs `f` over
//! every item of a `Vec` on up to [`jobs`] threads and hands back the
//! results **in input order**. std only (the offline registry has no rayon).
//!
//! - **Scoped fan-out.** A call spawns at most `jobs() − 1` threads inside a
//!   `std::thread::scope`, and the calling thread works alongside them. Each
//!   thread claims the next input index from one atomic counter and fills
//!   that input's slot. The scope joins every thread before the call
//!   returns, so `f` and the items may borrow from the caller.
//! - **Nested calls run inline.** A call made inside a fan-out's item,
//!   inside [`with_serial`], or with `jobs() == 1` is a serial loop on its
//!   own thread (the same code, with no thread spawned). The thread count
//!   never exceeds `jobs()` and nesting cannot deadlock.
//! - **Panic isolation.** Every item runs under `catch_unwind`; [`par_map`]
//!   re-raises the first panic (by input order) after every item finished.
//! - **Determinism.** Every AntDT simulation is a deterministic function of
//!   its item, so the output is byte-identical to a serial loop (asserted by
//!   the parity tests in `antdt-bench`).

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// 0 = unset (use the machine's available parallelism).
static CONFIGURED_JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Forces every [`par_map`] on this thread into the inline serial loop:
    /// set inside [`with_serial`] and while a thread runs fan-out items.
    static FORCE_SERIAL: Cell<bool> = const { Cell::new(false) };
}

/// Set the number of threads a top-level [`par_map`] runs on, the calling
/// thread included. It takes effect from the next call. `1` runs every call
/// inline on the calling thread.
pub fn configure_jobs(n: usize) {
    CONFIGURED_JOBS.store(n.max(1), Ordering::SeqCst);
}

/// The effective global parallelism: the configured value, else the
/// machine's available parallelism.
pub fn jobs() -> usize {
    match CONFIGURED_JOBS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

/// Run `f` with every [`par_map`] on this thread inline — the reference
/// runs for the parity assertions.
pub fn with_serial<R>(f: impl FnOnce() -> R) -> R {
    /// Puts back the flag `with_serial` found, on return and on unwind, so
    /// an inner call cannot un-serialise its outer scope and a panic cannot
    /// leave the thread serial.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCE_SERIAL.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(FORCE_SERIAL.with(|s| s.replace(true)));
    f()
}

/// Ordered fan-out on [`jobs`] threads: the results of `f` over `items`, in
/// input order. Inline on the calling thread inside a fan-out, inside
/// [`with_serial`] or when `jobs() == 1`. If any item panics, every item
/// still runs and then the first panic by input order is re-raised.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    collect_or_panic(try_par_map(jobs(), items, f))
}

/// The fan-out behind [`par_map`] on `threads` threads (the caller counts
/// as one), with per-item results instead of panic propagation.
fn try_par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<std::thread::Result<R>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = if FORCE_SERIAL.with(Cell::get) { 1 } else { threads.min(items.len()) };
    // One slot per input: its item until a thread claims it, then its result.
    let slots: Vec<_> = items.into_iter().map(|t| Mutex::new((Some(t), None))).collect();
    let next = AtomicUsize::new(0);
    // Relaxed: the counter publishes nothing; slot locks and the join do.
    let work = || {
        with_serial(|| {
            while let Some(slot) = slots.get(next.fetch_add(1, Ordering::Relaxed)) {
                let item = slot.lock().expect("slot lock").0.take().expect("index claimed once");
                let result = catch_unwind(AssertUnwindSafe(|| f(item)));
                slot.lock().expect("slot lock").1 = Some(result);
            }
        })
    };
    std::thread::scope(|s| {
        for _ in 1..threads {
            s.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("slot lock").1.expect("every item ran"))
        .collect()
}

/// Unwraps every result, or re-raises the first panic by input order.
fn collect_or_panic<R>(results: Vec<std::thread::Result<R>>) -> Vec<R> {
    results.into_iter().collect::<std::thread::Result<_>>().unwrap_or_else(|p| resume_unwind(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::thread::ThreadId;
    use std::time::Duration;

    fn map<T: Send, R: Send>(threads: usize, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
        collect_or_panic(try_par_map(threads, items, f))
    }

    fn serial_flag() -> bool {
        FORCE_SERIAL.with(Cell::get)
    }

    /// SplitMix64. The crate is a std-only leaf with no workspace
    /// dependencies, dev-dependencies included, so its tests carry their
    /// own generator.
    struct SplitMix(u64);

    impl SplitMix {
        /// A draw from `lo..hi` (modulo bias is irrelevant at these spans).
        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            lo + ((z ^ (z >> 31)) % (hi - lo) as u64) as i64
        }
    }

    #[test]
    fn results_come_back_in_input_order() {
        // Reverse sleeps: later items finish first, order must still hold.
        let out = map(4, (0..64u64).collect(), |i| {
            std::thread::sleep(Duration::from_micros(500 - i.min(500) * 7));
            i * i
        });
        assert_eq!(out, (0..64u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = map(2, Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_degenerates_gracefully() {
        let out = map(1, vec![3, 1, 4, 1, 5], |x| x * 2);
        assert_eq!(out, vec![6, 2, 8, 2, 10]);
    }

    #[test]
    fn borrowed_state_is_visible_to_tasks() {
        let base = [10u64, 20, 30];
        let out = map(3, vec![0usize, 1, 2], |i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn one_panicking_task_does_not_poison_siblings() {
        let results = try_par_map(4, (0..8u32).collect(), |i| {
            if i == 3 {
                panic!("task {i} exploded");
            }
            i + 100
        });
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            if i == 3 {
                let payload = r.as_ref().expect_err("task 3 must have panicked");
                let msg = payload.downcast_ref::<String>().expect("panic message");
                assert!(msg.contains("task 3 exploded"));
            } else {
                assert_eq!(*r.as_ref().expect("other tasks unaffected"), i as u32 + 100);
            }
        }
    }

    #[test]
    fn par_map_surfaces_the_panic_after_all_tasks_finish() {
        let completed = AtomicU32::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map(2, (0..8u32).collect(), |i| {
                if i == 0 {
                    panic!("boom");
                }
                completed.fetch_add(1, Ordering::SeqCst);
                i
            })
        }));
        assert!(caught.is_err(), "the panic must propagate");
        assert_eq!(completed.load(Ordering::SeqCst), 7, "siblings still ran to completion");
    }

    #[test]
    fn nested_fan_out_completes_with_more_tasks_than_threads() {
        // 2 threads, 8 outer tasks each fanning out 8 inner tasks.
        let out = map(2, (0..8u64).collect(), |i| {
            map(2, (0..8u64).collect(), |j| i * 10 + j).iter().sum::<u64>()
        });
        let expect: Vec<u64> = (0..8u64).map(|i| (0..8u64).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn a_nested_call_runs_on_the_calling_thread() {
        let out = map(3, (0..6u32).collect(), |_| {
            let outer = std::thread::current().id();
            let inner: Vec<ThreadId> = map(3, (0..6u32).collect(), |_| std::thread::current().id());
            inner.iter().all(|&id| id == outer)
        });
        assert!(
            out.iter().all(|&inline| inline),
            "every inner item ran on its outer item's thread"
        );
    }

    #[test]
    fn with_serial_forces_the_inline_path() {
        let caller = std::thread::current().id();
        let out =
            with_serial(|| par_map(vec![1u8, 2, 3], |x| (x + 1, std::thread::current().id())));
        assert_eq!(out, vec![(2, caller), (3, caller), (4, caller)]);
    }

    #[test]
    fn a_nested_with_serial_keeps_the_outer_scope_serial() {
        with_serial(|| {
            with_serial(|| ());
            assert!(serial_flag(), "the inner call put the outer scope's flag back");
        });
        assert!(!serial_flag());
    }

    #[test]
    fn a_panic_inside_with_serial_does_not_leave_the_thread_serial() {
        let caught = catch_unwind(|| with_serial(|| panic!("inside with_serial")));
        assert!(caught.is_err());
        assert!(!serial_flag(), "the unwind put the flag back");
    }

    #[test]
    fn par_map_equals_serial_map() {
        for seed in 0..256 {
            let mut rng = SplitMix(seed);
            let items: Vec<i64> =
                (0..rng.range(0, 200)).map(|_| rng.range(-1_000_000, 1_000_000)).collect();
            let threads = rng.range(1, 6) as usize;
            let (mul, add) = (rng.range(-3, 4), rng.range(-100, 100));
            let f = |x: i64| x.wrapping_mul(mul).wrapping_add(add);
            let expect: Vec<i64> = items.iter().copied().map(f).collect();
            assert_eq!(map(threads, items, f), expect, "seed {seed}");
        }
    }

    #[test]
    fn global_par_map_equals_serial_map() {
        for seed in 0..256 {
            let mut rng = SplitMix(seed);
            let items: Vec<u32> =
                (0..rng.range(0, 200)).map(|_| rng.range(0, 5_000_000) as u32).collect();
            let f = |x: u32| u64::from(x) * 7 + 1;
            let expect: Vec<u64> = items.iter().copied().map(f).collect();
            assert_eq!(par_map(items, f), expect, "seed {seed}");
        }
    }
}
