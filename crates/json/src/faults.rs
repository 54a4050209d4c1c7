//! Injectable I/O faults for the snapshot layer.
//!
//! Storage robustness drills need to answer "what happens when the disk
//! fails *here*?" without root privileges, loopback filesystems, or a
//! genuinely full disk. A [`FaultPlan`] is a fault schedule;
//! [`FaultHandle::new`] puts it in force, and the handle's
//! `write_snapshot_atomic` and `read_snapshot` are the
//! [`crate::snapshot`] functions of those names with the
//! schedule deciding which operation fails with which `errno`. The free
//! functions fault nothing: only I/O handed a handle fails on purpose.
//!
//! Design constraints:
//! - **deterministic** — faults fire by *operation index* (the Nth
//!   write, the Mth read through the handle), never by clock or
//!   randomness, so chaos twins replay bit-identically;
//! - **scoped** — the schedule and its counters live in the handle, not
//!   in the process, so two services or two tests with their own
//!   handles never see each other's faults or counts. Clones share the
//!   counters: a drill that hands a clone to every rebuilt service
//!   counts across constructions, crashes and rebuilds.
//!
//! Faulted and plain calls share the one raw-write and the one raw-read
//! site of [`crate::snapshot`], which take the operation's fault as an
//! argument; the `xtask` lint rule `io-fault-shim` denies snapshot-adjacent
//! code paths that would bypass them with direct `std::fs` calls.

use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One injectable storage fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// The write fails immediately with `ENOSPC`; no bytes land.
    WriteEnospc,
    /// The temp file receives only the first `keep` bytes, then the
    /// write fails with `ENOSPC` — a torn write that leaves a stray
    /// partial temp file for the cleanup path to deal with.
    WritePartial { keep: usize },
    /// The payload is written in full but the durability barrier — the
    /// temp file's `sync_all` — fails with `EIO` before the rename, so
    /// the destination keeps its old contents — "data in the page
    /// cache, disk said no".
    FsyncFail,
    /// The read fails with `EIO` — unreadable sector under a snapshot.
    ReadEio,
}

/// Stable lower-case tags, used in drill records and logs.
impl fmt::Display for IoFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoFault::WriteEnospc => f.write_str("write-enospc"),
            IoFault::WritePartial { keep } => write!(f, "write-partial(keep={keep})"),
            IoFault::FsyncFail => f.write_str("fsync-fail"),
            IoFault::ReadEio => f.write_str("read-eio"),
        }
    }
}

/// A deterministic fault schedule, addressed by operation index.
///
/// Indices count operations through one [`FaultHandle`] and its clones:
/// write index `n` is the `n`-th `write_snapshot_atomic`, read index `m`
/// the `m`-th `read_snapshot`. Unmentioned indices succeed.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// `(write op index, fault)` pairs; no fault may be
    /// [`IoFault::ReadEio`].
    pub writes: Vec<(u64, IoFault)>,
    /// Read op indices that fail with `EIO`.
    pub reads: Vec<u64>,
}

impl FaultPlan {
    /// A plan that fails the single write at `index` with `fault`.
    #[must_use]
    pub fn one_write(index: u64, fault: IoFault) -> Self {
        FaultPlan {
            writes: vec![(index, fault)],
            reads: Vec::new(),
        }
    }

    /// A plan that fails the single read at `index` with `EIO`.
    #[must_use]
    pub fn one_read(index: u64) -> Self {
        FaultPlan {
            writes: Vec::new(),
            reads: vec![index],
        }
    }
}

/// A [`FaultPlan`] in force, with the count of operations it has seen.
/// Clones share the counters. The default handle faults nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultHandle(Arc<Schedule>);

#[derive(Debug, Default)]
struct Schedule {
    plan: FaultPlan,
    writes_seen: AtomicU64,
    reads_seen: AtomicU64,
}

impl FaultHandle {
    /// Put `plan` in force, with both counters at zero.
    ///
    /// # Panics
    /// If `plan.writes` schedules [`IoFault::ReadEio`] on the write path —
    /// that is a malformed drill, not a runtime condition.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        for &(at, fault) in &plan.writes {
            assert!(
                fault != IoFault::ReadEio,
                "fault plan schedules {fault} at write op {at}, but it is not a write fault"
            );
        }
        let schedule = Schedule {
            plan,
            ..Schedule::default()
        };
        FaultHandle(Arc::new(schedule))
    }

    /// Write operations through this handle and its clones.
    #[must_use]
    pub fn writes_seen(&self) -> u64 {
        self.0.writes_seen.load(Ordering::Relaxed)
    }

    /// Read operations through this handle and its clones.
    #[must_use]
    pub fn reads_seen(&self) -> u64 {
        self.0.reads_seen.load(Ordering::Relaxed)
    }

    /// Count the next write operation and return its fault.
    pub(crate) fn next_write(&self) -> Option<IoFault> {
        let at = self.0.writes_seen.fetch_add(1, Ordering::Relaxed);
        let writes = &self.0.plan.writes;
        writes.iter().find(|(idx, _)| *idx == at).map(|&(_, f)| f)
    }

    /// Count the next read operation and return its fault.
    pub(crate) fn next_read(&self) -> Option<IoFault> {
        let at = self.0.reads_seen.fetch_add(1, Ordering::Relaxed);
        let fails = self.0.plan.reads.contains(&at);
        fails.then_some(IoFault::ReadEio)
    }
}

/// `ENOSPC` as an [`io::Error`] (errno 28 on Linux).
pub(crate) fn enospc() -> io::Error {
    io::Error::from_raw_os_error(28)
}

/// `EIO` as an [`io::Error`] (errno 5 on Linux).
pub(crate) fn eio() -> io::Error {
    io::Error::from_raw_os_error(5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_by_operation_index_and_clones_share_counters() {
        let handle = FaultHandle::new(FaultPlan {
            writes: vec![(1, IoFault::WriteEnospc)],
            reads: vec![0],
        });
        let clone = handle.clone();
        assert!(handle.next_write().is_none(), "write 0 is clean");
        assert_eq!(
            clone.next_write(),
            Some(IoFault::WriteEnospc),
            "write 1 faults"
        );
        assert!(handle.next_write().is_none(), "write 2 is clean again");
        assert_eq!(clone.next_read(), Some(IoFault::ReadEio));
        assert!(handle.next_read().is_none());
        assert_eq!((clone.writes_seen(), clone.reads_seen()), (3, 2));
        // Another handle of the same plan keeps its own count.
        let other = FaultHandle::new(FaultPlan::one_read(0));
        assert_eq!(other.next_read(), Some(IoFault::ReadEio));
        assert_eq!((handle.reads_seen(), other.reads_seen()), (2, 1));
        // The default handle faults nothing.
        let none = FaultHandle::default();
        assert!(none.next_write().is_none() && none.next_read().is_none());
    }

    #[test]
    fn errnos_and_names_are_stable() {
        assert_eq!(enospc().raw_os_error(), Some(28));
        assert_eq!(eio().raw_os_error(), Some(5));
        assert_eq!(IoFault::WriteEnospc.to_string(), "write-enospc");
        assert_eq!(
            IoFault::WritePartial { keep: 7 }.to_string(),
            "write-partial(keep=7)"
        );
        assert_eq!(IoFault::FsyncFail.to_string(), "fsync-fail");
        assert_eq!(IoFault::ReadEio.to_string(), "read-eio");
    }

    #[test]
    #[should_panic(expected = "not a write fault")]
    fn read_faults_on_the_write_path_are_a_malformed_drill() {
        let _ = FaultHandle::new(FaultPlan::one_write(0, IoFault::ReadEio));
    }
}
