//! Leaf locks: the workspace's only `Mutex` and `RwLock` types.
//!
//! The engine, the budget ledger and the daemon share state across serving
//! threads through these wrappers around the std locks (`clippy.toml`
//! disallows `std::sync::Mutex` and `std::sync::RwLock` everywhere else).
//! Two properties hold for every lock built from this module:
//!
//! * **Poison recovery.** Every critical section in the workspace inserts
//!   or clears whole entries, bumps a counter or pushes/drains a queue, so
//!   a thread that panicked while holding a guard cannot leave the data
//!   torn. The guards therefore take the value out of the
//!   [`PoisonError`] instead of propagating the poison: one failed request
//!   never bricks the engine for every later one.
//! * **Leaf discipline.** A thread never holds two of these guards at
//!   once. With no nesting there is no lock order to get wrong: neither an
//!   inversion between two locks nor a re-entrant acquisition of one can
//!   deadlock. Debug builds (the test suite) enforce it: a thread-local
//!   flag fails any acquisition made while the thread already holds a
//!   guard, *before* it blocks, so a violation panics in the test that
//!   exercises it instead of hanging. Code that needs data from two locks
//!   snapshots what it needs from the first (typically `Arc`s) and drops
//!   that guard before taking the next. Release builds compile the check
//!   out: the guard's marker is a zero-sized type with an empty `Drop`.
//!
//! [`OnceLock`](std::sync::OnceLock) cells and [`Condvar`]s are not locks
//! in this sense; [`MutexGuard::wait`] parks on a condvar without giving
//! up the leaf.

#![expect(
    clippy::disallowed_types,
    reason = "the one module that names the std locks: everything else goes through these leaf wrappers"
)]

use std::ops::{Deref, DerefMut};
use std::sync::{self as std_sync, Condvar, PoisonError};

#[cfg(debug_assertions)]
thread_local! {
    /// Whether this thread currently holds a leaf guard.
    static HOLDING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Marker carried by every guard: marks the thread as holding a leaf lock
/// (debug builds only) and clears the mark on drop, unwinding included.
struct Leaf;

impl Leaf {
    /// Claim the thread's leaf slot; call before blocking on the lock.
    fn enter() -> Self {
        #[cfg(debug_assertions)]
        HOLDING.with(|holding| {
            assert!(
                !holding.get(),
                "leaf lock acquired while this thread already holds one; \
                 snapshot what the first guard protects and drop it before taking the next"
            );
            holding.set(true);
        });
        Leaf
    }
}

impl Drop for Leaf {
    fn drop(&mut self) {
        // `HOLDING` is const-initialized and has no destructor, so `with`
        // cannot fail here, not even while the thread is being torn down.
        #[cfg(debug_assertions)]
        HOLDING.with(|holding| holding.set(false));
    }
}

/// A mutual-exclusion leaf lock (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct Mutex<T>(std_sync::Mutex<T>);

/// Exclusive access to a [`Mutex`]'s value; unlocks on drop.
pub struct MutexGuard<'a, T> {
    guard: std_sync::MutexGuard<'a, T>,
    _leaf: Leaf,
}

impl<T> Mutex<T> {
    /// A new unlocked mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Self(std_sync::Mutex::new(value))
    }

    /// Block until the lock is free, then take it, recovering from poison.
    ///
    /// # Panics
    ///
    /// In debug builds, if this thread already holds a leaf guard.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let leaf = Leaf::enter();
        MutexGuard {
            guard: self.0.lock().unwrap_or_else(PoisonError::into_inner),
            _leaf: leaf,
        }
    }
}

impl<T> MutexGuard<'_, T> {
    /// Release the lock, park on `condvar` until notified, and take the
    /// lock back before returning, exactly like [`Condvar::wait`]. Spurious
    /// wake-ups happen, so callers re-check their condition in a loop.
    pub fn wait(self, condvar: &Condvar) -> Self {
        let Self { guard, _leaf } = self;
        let guard = condvar.wait(guard).unwrap_or_else(PoisonError::into_inner);
        Self { guard, _leaf }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A reader-writer leaf lock (see the [module docs](self)). Read guards
/// count as held leaves too: a thread holding one takes no other lock.
#[derive(Debug, Default)]
pub struct RwLock<T>(std_sync::RwLock<T>);

/// Shared access to a [`RwLock`]'s value; unlocks on drop.
pub struct RwLockReadGuard<'a, T> {
    guard: std_sync::RwLockReadGuard<'a, T>,
    _leaf: Leaf,
}

/// Exclusive access to a [`RwLock`]'s value; unlocks on drop.
pub struct RwLockWriteGuard<'a, T> {
    guard: std_sync::RwLockWriteGuard<'a, T>,
    _leaf: Leaf,
}

impl<T> RwLock<T> {
    /// A new unlocked reader-writer lock holding `value`.
    pub const fn new(value: T) -> Self {
        Self(std_sync::RwLock::new(value))
    }

    /// Take shared access, recovering from poison.
    ///
    /// # Panics
    ///
    /// In debug builds, if this thread already holds a leaf guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let leaf = Leaf::enter();
        RwLockReadGuard {
            guard: self.0.read().unwrap_or_else(PoisonError::into_inner),
            _leaf: leaf,
        }
    }

    /// Take exclusive access, recovering from poison.
    ///
    /// # Panics
    ///
    /// In debug builds, if this thread already holds a leaf guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let leaf = Leaf::enter();
        RwLockWriteGuard {
            guard: self.0.write().unwrap_or_else(PoisonError::into_inner),
            _leaf: leaf,
        }
    }

    /// Whether a thread panicked while holding this lock (access still
    /// works; see the [module docs](self)).
    pub fn is_poisoned(&self) -> bool {
        self.0.is_poisoned()
    }
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{mpsc, Arc};
    use std::thread;

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "leaf lock acquired while this thread already holds one")]
    fn nested_lock_under_a_live_read_guard_panics() {
        let map = RwLock::new(vec![1u32]);
        let slot = Mutex::new(0u32);
        let _outer = map.read();
        let _inner = slot.lock();
    }

    #[test]
    fn a_panic_under_a_guard_leaves_the_thread_able_to_lock_again() {
        let m = Mutex::new(1u32);
        let rw = RwLock::new(2u32);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut g = m.lock();
            *g += 1;
            panic!("worker dies while holding the mutex");
        }));
        assert!(caught.is_err(), "the probe panic must actually fire");
        // The unwound guard released both the lock and the thread's leaf
        // mark: the same thread takes each lock again.
        assert_eq!(*m.lock(), 2);
        assert_eq!(*rw.read(), 2);
    }

    #[test]
    fn guard_wait_wakes_on_notify_one() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let (parking, parked) = mpsc::channel();
        let waiter = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || {
                let (flag, cv) = &*shared;
                let mut ready = flag.lock();
                parking.send(()).unwrap();
                while !*ready {
                    ready = ready.wait(cv);
                }
                // Still the thread's one leaf after waking: dropping it
                // frees the slot for the next acquisition.
                drop(ready);
                *flag.lock()
            })
        };
        parked.recv().unwrap();
        let (flag, cv) = &*shared;
        // The waiter held the lock when it signalled, so this acquisition
        // completes only once `wait` has released it: the waiter is parked.
        *flag.lock() = true;
        cv.notify_one();
        assert!(waiter.join().unwrap());
    }
}
