//! Instrumented synchronisation primitives for the ExplainIt! workspace.
//!
//! Every lock in `explainit-tsdb` and `explainit-query` is one of these
//! wrappers, constructed with a static [`LockClass`] carrying a name and
//! a rank. In debug builds (and in release under `EXPLAINIT_LOCKDEP=1`)
//! each acquisition is checked against a per-thread held-lock
//! stack and a global class-order graph: taking a lower-ranked class
//! while a higher-ranked one is held, re-acquiring a held class, or
//! closing a cycle among equal-rank classes panics immediately with both
//! class names (and, for graph cycles, both held stacks). The graph
//! accumulates across a whole `cargo test` run, so every existing test
//! doubles as a lock-order witness. See [`lockdep`]'s module docs for
//! the exact rules, and the workspace ROADMAP ("Concurrency discipline")
//! for the rank table.
//!
//! Two analyses ride on the held stack:
//!
//! - [`check_io`] — the I/O paths (cold-chunk page reads, WAL/segment
//!   fsyncs) declare themselves, and holding any class ranked at or above
//!   [`IO_LOCK_RANK_THRESHOLD`] across them is a panic. This is the
//!   pager's "reads happen outside both locks" contract, machine-checked.
//! - [`hold_stats`] — per-class acquisition counts and hold times, for
//!   spotting guards held across slow work.
//!
//! The disarmed fast path is a single relaxed atomic load per
//! acquisition (the same trick as the storage failpoints). It has no gate
//! of its own: `bench/`'s workloads run disarmed, so their `op_s_p50`
//! bounds are the measurement of that path.
//!
//! # Poisoning policy
//!
//! The wrappers adopt **one** policy: recover the inner value
//! (`PoisonError::into_inner`) and continue. Rationale: every guarded
//! value in this workspace is a rebuildable cache (pager slots, decode
//! caches, a catalog binding's view and dictionaries) or bookkeeping that
//! is written whole (a pool's result slots, the failpoint plans), so
//! observing a poisoned value is safe — the panicking thread either left
//! the value untouched or left a cache that will be rebuilt; durable
//! invariants are re-established by WAL recovery, not by in-memory
//! guards. Propagating poison instead would cascade one
//! thread's panic into unrelated threads and, worse, into `Drop` impls
//! during unwinding. Callers therefore get guards directly — no
//! `.lock().unwrap()` at every site, and no ad-hoc mix of `.expect`
//! messages.
//!
//! The deterministic interleaving harness lives in [`sched`]; the scoped
//! worker pool the executor and the ranking engine share, in [`pool`].

#![forbid(unsafe_code)]

mod lockdep;
pub mod pool;
pub mod sched;

use std::fmt;
use std::ops::{Deref, DerefMut};

pub use lockdep::{
    arm, armed, check_io, held_classes, hold_stats, set_armed, HoldStats, LockClass,
    IO_LOCK_RANK_THRESHOLD,
};

use lockdep::Token;

// The wrappers are the one sanctioned home for the raw primitives.
use std::sync::Mutex as StdMutex; // lint: allow raw lock

/// A mutex with a [`LockClass`]; see the crate docs for the checking and
/// poisoning rules.
pub struct Mutex<T> {
    class: &'static LockClass,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Const-constructible so `static` mutexes (e.g. failpoint plans)
    /// keep working.
    pub const fn new(class: &'static LockClass, value: T) -> Self {
        Mutex { class, inner: StdMutex::new(value) }
    }

    /// Blocking lock with full order checking. Recovers from poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let token = lockdep::acquire(self.class);
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        MutexGuard { inner, _token: token }
    }

    /// Exclusive access needs no lock and is untracked.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|p| p.into_inner())
    }

    /// Consumes the mutex; untracked. Recovers from poison.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex")
            .field("class", &self.class.name())
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard for [`Mutex`]; releasing pops the held-lock stack and records
/// hold time. Field order matters: the std guard must drop (unlock)
/// before the token pops.
pub struct MutexGuard<'a, T> {
    inner: std::sync::MutexGuard<'a, T>,
    _token: Option<Token>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A once-cell with a [`LockClass`]. The hit path (`get`, and
/// `get_or_init` on an initialised cell) is a raw passthrough — zero
/// lockdep overhead. The *init* path acquires the class for the duration
/// of the closure, which models init-waits-on-init deadlocks and lets
/// the analysis see decode caches legitimately held across page faults
/// (their ranks sit below [`IO_LOCK_RANK_THRESHOLD`]).
pub struct OnceLock<T> {
    class: &'static LockClass,
    inner: std::sync::OnceLock<T>,
}

impl<T> OnceLock<T> {
    /// Const-constructible: both `static` cells and the
    /// `*cell = OnceLock::new(CLASS)` reset idiom keep working.
    pub const fn new(class: &'static LockClass) -> Self {
        OnceLock { class, inner: std::sync::OnceLock::new() }
    }

    pub fn get(&self) -> Option<&T> {
        self.inner.get()
    }

    pub fn get_or_init<F: FnOnce() -> T>(&self, f: F) -> &T {
        if let Some(value) = self.inner.get() {
            return value;
        }
        let _token = lockdep::acquire(self.class);
        self.inner.get_or_init(f)
    }

    pub fn set(&self, value: T) -> Result<(), T> {
        let _token = lockdep::acquire(self.class);
        self.inner.set(value)
    }

    pub fn take(&mut self) -> Option<T> {
        self.inner.take()
    }
}

impl<T: Clone> Clone for OnceLock<T> {
    fn clone(&self) -> Self {
        OnceLock { class: self.class, inner: self.inner.clone() }
    }
}

impl<T: fmt::Debug> fmt::Debug for OnceLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OnceLock")
            .field("class", &self.class.name())
            .field("inner", &self.inner)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static LOW: LockClass = LockClass::new("test.low", 1);
    static HIGH: LockClass = LockClass::new("test.high", 2);
    static PEER_A: LockClass = LockClass::new("test.peer-a", 5);
    static PEER_B: LockClass = LockClass::new("test.peer-b", 5);
    static IO_RANKED: LockClass = LockClass::new("test.io-ranked", IO_LOCK_RANK_THRESHOLD);

    #[test]
    fn increasing_ranks_are_clean_and_tracked() {
        arm();
        let low = Mutex::new(&LOW, 1u32);
        let high = Mutex::new(&HIGH, 2u32);
        let g1 = low.lock();
        let g2 = high.lock();
        assert_eq!(held_classes(), vec!["test.low", "test.high"]);
        assert_eq!(*g1 + *g2, 3);
        drop(g2);
        drop(g1);
        assert!(held_classes().is_empty());
        let stats = hold_stats();
        let low_stats = stats.iter().find(|s| s.class == "test.low").expect("low recorded");
        assert!(low_stats.acquisitions >= 1);
    }

    #[test]
    #[should_panic(expected = "acquiring class `test.low` (rank 1) while holding `test.high`")]
    fn rank_inversion_panics_with_both_names() {
        arm();
        let low = Mutex::new(&LOW, ());
        let high = Mutex::new(&HIGH, ());
        let _g = high.lock();
        let _ = low.lock();
    }

    #[test]
    #[should_panic(expected = "self-deadlock")]
    fn reacquiring_a_held_class_panics() {
        arm();
        let a = Mutex::new(&PEER_A, ());
        let b = Mutex::new(&PEER_A, ());
        let _g = a.lock();
        let _ = b.lock();
    }

    #[test]
    fn equal_rank_peers_in_one_direction_are_clean() {
        arm();
        let a = Mutex::new(&PEER_A, ());
        let b = Mutex::new(&PEER_B, ());
        for _ in 0..2 {
            let _ga = a.lock();
            let _gb = b.lock();
        }
    }

    #[test]
    #[should_panic(expected = "while holding lock class(es) [test.io-ranked]")]
    fn io_under_high_ranked_lock_panics() {
        arm();
        let m = Mutex::new(&IO_RANKED, ());
        let _g = m.lock();
        check_io("unit-test fsync");
    }

    #[test]
    fn io_under_low_ranked_lock_is_fine() {
        arm();
        let m = Mutex::new(&LOW, ());
        let _g = m.lock();
        check_io("unit-test fault");
    }

    #[test]
    fn once_lock_hit_path_is_untracked_and_init_is_tracked() {
        arm();
        static CELL_CLASS: LockClass = LockClass::new("test.cell", 3);
        let cell: OnceLock<u32> = OnceLock::new(&CELL_CLASS);
        let v = cell.get_or_init(|| {
            assert_eq!(held_classes(), vec!["test.cell"], "init runs under the class");
            7
        });
        assert_eq!(*v, 7);
        assert!(held_classes().is_empty());
        let v = cell.get_or_init(|| unreachable!("initialised cell must not re-init"));
        assert_eq!(*v, 7);
    }

    #[test]
    fn poisoned_locks_recover_per_policy() {
        arm();
        let m = std::sync::Arc::new(Mutex::new(&LOW, 41u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let mut g = m2.lock();
            *g = 42;
            panic!("poison the mutex");
        })
        .join();
        assert_eq!(*m.lock(), 42, "recovered value after poisoning");
    }

    #[test]
    fn guards_released_out_of_order_keep_the_stack_consistent() {
        arm();
        let low = Mutex::new(&LOW, ());
        let high = Mutex::new(&HIGH, ());
        let g1 = low.lock();
        let g2 = high.lock();
        drop(g1); // explicit out-of-LIFO release
        assert_eq!(held_classes(), vec!["test.high"]);
        drop(g2);
        assert!(held_classes().is_empty());
    }
}
