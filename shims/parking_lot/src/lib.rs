//! Offline shim for `parking_lot` over `std::sync`.
//!
//! Matches the parking_lot API surface this workspace uses: guards are
//! returned directly (no `Result`), poisoning is ignored (a panic while
//! holding a lock does not poison it for later users), and
//! `Condvar::wait` takes `&mut MutexGuard`.
//!
//! With the `count` feature (not upstream's), every `lock`, `read`,
//! `write` and notification is also tallied per thread; [`count`]
//! reads the tallies.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync as st;

/// Mutual exclusion primitive (std-backed, poison-ignoring).
pub struct Mutex<T: ?Sized> {
    inner: st::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Self {
            inner: st::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(feature = "count")]
        count::tally(|c| c.lock += 1);
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Returns a mutable reference to the underlying data (requires
    /// exclusive access, so no locking is needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_lock() {
            Ok(guard) => f.debug_struct("Mutex").field("data", &&*guard).finish(),
            Err(_) => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// RAII guard for [`Mutex`]. The `Option` dance exists so
/// [`Condvar::wait`] can temporarily take the underlying std guard.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<st::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// Reader-writer lock (std-backed, poison-ignoring).
pub struct RwLock<T: ?Sized> {
    inner: st::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new rwlock.
    pub const fn new(value: T) -> Self {
        Self {
            inner: st::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(feature = "count")]
        count::tally(|c| c.read += 1);
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(feature = "count")]
        count::tally(|c| c.write += 1);
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Returns a mutable reference to the underlying data.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_read() {
            Ok(guard) => f.debug_struct("RwLock").field("data", &&*guard).finish(),
            Err(_) => f.write_str("RwLock { <locked> }"),
        }
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: st::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: st::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Condition variable compatible with [`MutexGuard`].
#[derive(Default)]
pub struct Condvar {
    inner: st::Condvar,
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self {
            inner: st::Condvar::new(),
        }
    }

    /// Blocks until notified, releasing the guard's mutex while
    /// waiting and reacquiring it before returning (counted as one
    /// `lock`).
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        #[cfg(feature = "count")]
        count::tally(|c| c.lock += 1);
        let std_guard = guard.inner.take().expect("guard present");
        let std_guard = self
            .inner
            .wait(std_guard)
            .unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(std_guard);
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        #[cfg(feature = "count")]
        count::tally(|c| c.notify += 1);
        self.inner.notify_one();
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        #[cfg(feature = "count")]
        count::tally(|c| c.notify += 1);
        self.inner.notify_all();
    }
}

/// Per-thread tallies of the calls a path makes on this crate's locks
/// (the `count` feature).
#[cfg(feature = "count")]
pub mod count {
    use std::cell::Cell;

    /// Calls made on the current thread since it started.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Counts {
        /// `Mutex::lock`, and the reacquire at the end of a
        /// `Condvar::wait`.
        pub lock: u64,
        /// `RwLock::read`.
        pub read: u64,
        /// `RwLock::write`.
        pub write: u64,
        /// `Condvar::notify_one` and `notify_all`.
        pub notify: u64,
    }

    impl Counts {
        /// Lock round-trips: `lock`, `read` and `write` together.
        pub fn round_trips(&self) -> u64 {
            self.lock + self.read + self.write
        }
    }

    impl std::ops::Sub for Counts {
        type Output = Counts;
        fn sub(self, before: Counts) -> Counts {
            Counts {
                lock: self.lock - before.lock,
                read: self.read - before.read,
                write: self.write - before.write,
                notify: self.notify - before.notify,
            }
        }
    }

    thread_local! {
        static COUNTS: Cell<Counts> = const {
            Cell::new(Counts { lock: 0, read: 0, write: 0, notify: 0 })
        };
    }

    /// The current thread's tallies.
    pub fn counts() -> Counts {
        COUNTS.with(Cell::get)
    }

    pub(crate) fn tally(f: impl FnOnce(&mut Counts)) {
        COUNTS.with(|c| {
            let mut counts = c.get();
            f(&mut counts);
            c.set(counts);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }

    #[cfg(feature = "count")]
    #[test]
    fn counts_each_call_on_its_own_thread() {
        let before = count::counts();
        let m = Mutex::new(0);
        let l = RwLock::new(0);
        *m.lock() += 1;
        let _ = *l.read();
        *l.write() += 1;
        Condvar::new().notify_one();
        std::thread::spawn(|| *Mutex::new(0).lock() += 1)
            .join()
            .unwrap();
        let spent = count::counts() - before;
        let expected = count::Counts {
            lock: 1,
            read: 1,
            write: 1,
            notify: 1,
        };
        assert_eq!(spent, expected);
        assert_eq!(spent.round_trips(), 3);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (lock, cv) = &*pair2;
            let mut ready = lock.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        {
            let (lock, cv) = &*pair;
            *lock.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }
}
