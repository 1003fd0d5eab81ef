//! Test-only fault injection for the crash-ordering paths.
//!
//! A failpoint *plan* arms one injection point together with a directory
//! substring tag; the write path checks `trip` at each step and, when the
//! path being written matches an armed plan, returns an injected I/O
//! error *after* the real operation ran (the most adversarial model: the
//! caller sees a failure while the bytes may already be durable, exactly
//! like a crash between the syscall and its return).
//!
//! The module is always compiled — the disarmed fast path is one relaxed
//! atomic load, so production flushes pay nothing. The tag filter keeps
//! parallel tests from tripping each other's plans: every test uses a
//! unique store directory and arms with a substring of it.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

use explainit_sync::{LockClass, Mutex, MutexGuard};

use super::StorageError;

/// The injectable steps of the durable write paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// Before creating the segment `.tmp` file (nothing on disk).
    SegmentCreate,
    /// After writing the `.tmp` body (unsynced bytes on disk).
    SegmentWrite,
    /// After fsyncing the `.tmp` (durable but not yet renamed).
    SegmentSync,
    /// After renaming `.tmp` → `.seg` (segment in place, dir unsynced).
    SegmentRename,
    /// After fsyncing the directory (everything durable, flush still
    /// reports failure — the pure "crash after the work" case).
    SegmentDirSync,
    /// After a segment write committed, before deleting the files of the
    /// segments it superseded (the new segment is durable; the superseded
    /// files still exist on disk).
    CompactDelete,
    /// A WAL write that lands half its bytes and then fails (a full disk
    /// mid-write); unlike the other points, the step itself fails.
    WalWrite,
}

static ARMED: AtomicBool = AtomicBool::new(false);

/// Held only for push/retain/scan of the plan list — near-innermost rank,
/// and never across the injected I/O itself.
static FAILPOINT_PLANS: LockClass = LockClass::new("tsdb.failpoint.plans", 80);

static PLANS: Mutex<Vec<(Point, String)>> = Mutex::new(&FAILPOINT_PLANS, Vec::new());

fn plans() -> MutexGuard<'static, Vec<(Point, String)>> {
    PLANS.lock()
}

/// Arms `point` for any path containing `dir_tag`.
pub fn arm(point: Point, dir_tag: &str) {
    let mut p = plans();
    p.push((point, dir_tag.to_string()));
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms every plan whose tag is `dir_tag`.
pub fn disarm(dir_tag: &str) {
    let mut p = plans();
    p.retain(|(_, tag)| tag != dir_tag);
    ARMED.store(!p.is_empty(), Ordering::Relaxed);
}

/// Returns the injected error when `point` is armed for `path`. The write
/// paths call this at each step and bail with the error if it fires.
pub(crate) fn trip(point: Point, path: &Path) -> Option<StorageError> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let display = path.display().to_string();
    let fired = plans().iter().any(|(p, tag)| *p == point && display.contains(tag.as_str()));
    if fired {
        Some(StorageError::io(
            format!("failpoint {point:?} at {display}"),
            std::io::Error::other("injected failure"),
        ))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_by_default_and_tag_scoped() {
        let path = Path::new("/tmp/fp-test-alpha/seg-00000001.tmp");
        assert!(trip(Point::SegmentWrite, path).is_none());
        arm(Point::SegmentWrite, "fp-test-alpha");
        assert!(trip(Point::SegmentWrite, path).is_some(), "armed point fires");
        assert!(trip(Point::SegmentSync, path).is_none(), "other points stay quiet");
        assert!(
            trip(Point::SegmentWrite, Path::new("/tmp/fp-test-beta/x.tmp")).is_none(),
            "other directories stay quiet"
        );
        disarm("fp-test-alpha");
        assert!(trip(Point::SegmentWrite, path).is_none(), "disarm clears the plan");
    }
}
