//! The lockdep core: a per-thread held-lock stack, a global class-order
//! graph, and per-class hold-time statistics.
//!
//! Every blocking acquisition of a wrapper lock flows through [`acquire`],
//! which (when armed) checks the new class against everything the thread
//! already holds:
//!
//! 1. **Self-deadlock** — acquiring a class the thread already holds
//!    panics immediately (nested `lock()` on the same mutex class).
//! 2. **Rank inversion** — classes carry a static rank and must be
//!    acquired in strictly increasing rank order; taking a lower-ranked
//!    class while a higher-ranked one is held panics with both class
//!    names and the full held stack.
//! 3. **Order-graph cycle** — for equal-rank classes the first observed
//!    direction wins: every acquisition records `held → new` edges in a
//!    global graph that accumulates across the whole test run, and an
//!    acquisition that would close a cycle panics with *both* stacks —
//!    this thread's and the held stack recorded when the opposing edge
//!    was first seen.
//!
//! Non-blocking (`try_lock`) acquisitions are pushed onto the held stack
//! (so `check_io` and hold-time stats see them) but skip the order checks
//! and record no edges: an acquisition that cannot block cannot complete
//! a deadlock cycle on its own.
//!
//! Arming mirrors `EXPLAINIT_VERIFY_PLANS`: always on under
//! `debug_assertions`, on in release when `EXPLAINIT_LOCKDEP=1`, and the
//! disarmed fast path is a single relaxed atomic load (the same trick as
//! the storage failpoints).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex; // lint: allow raw lock (lockdep bookkeeping is itself untracked)
use std::time::{Duration, Instant};

/// Lock classes ranked at or above this threshold must never be held
/// across file I/O (page faults, fsyncs). This encodes the pager's
/// contract that cold-chunk reads happen outside both the clock and the
/// per-slot locks: the decode caches (ranks below the threshold) may
/// legitimately wait on I/O, the page-table locks may not.
pub const IO_LOCK_RANK_THRESHOLD: u32 = 60;

/// A static identity + rank for every lock in the workspace.
///
/// Classes are declared `static` next to the lock they govern; identity
/// is the static's address, so two locks sharing a class (e.g. every
/// per-slot bytes mutex) are deliberately indistinguishable to the
/// order analysis.
#[derive(Debug)]
pub struct LockClass {
    name: &'static str,
    rank: u32,
}

impl LockClass {
    /// Declares a class. Lower ranks must be acquired first.
    pub const fn new(name: &'static str, rank: u32) -> Self {
        LockClass { name, rank }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }
}

fn class_key(class: &'static LockClass) -> usize {
    class as *const LockClass as usize
}

// Armed state: 0 = undecided, 1 = disarmed, 2 = armed. Decided once from
// the build profile + environment, overridable by `arm`/`set_armed`.
const STATE_UNDECIDED: u8 = 0;
const STATE_DISARMED: u8 = 1;
const STATE_ARMED: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNDECIDED);

fn decide_state() -> bool {
    let on = cfg!(debug_assertions)
        || std::env::var("EXPLAINIT_LOCKDEP").map(|v| v == "1").unwrap_or(false);
    STATE.store(if on { STATE_ARMED } else { STATE_DISARMED }, Ordering::Relaxed);
    on
}

/// Whether lockdep is currently recording and checking acquisitions.
#[inline]
pub fn armed() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_DISARMED => false,
        STATE_ARMED => true,
        _ => decide_state(),
    }
}

/// Forces lockdep on regardless of build profile or environment. Tests
/// that assert on violations call this so they hold in release too.
pub fn arm() {
    STATE.store(STATE_ARMED, Ordering::Relaxed);
}

/// Test/bench hook: force the armed state either way. The disarmed fast
/// path this selects is exactly what production release builds pay — one
/// relaxed atomic load per acquisition.
pub fn set_armed(on: bool) {
    STATE.store(if on { STATE_ARMED } else { STATE_DISARMED }, Ordering::Relaxed);
}

struct HeldEntry {
    class: &'static LockClass,
    id: u64,
    since: Instant,
}

thread_local! {
    static HELD: RefCell<Vec<HeldEntry>> = const { RefCell::new(Vec::new()) };
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// An edge `from → to` in the class-order graph, with the held stack
/// (class names, outermost first, acquired class last) that first
/// recorded it — the "other thread's stack" in violation reports.
struct Edge {
    stack: Vec<&'static str>,
}

struct Graph {
    /// from-class → (to-class → first witness).
    edges: HashMap<usize, HashMap<usize, Edge>>,
    names: HashMap<usize, &'static str>,
}

static GRAPH: Mutex<Option<Graph>> = Mutex::new(None);

fn with_graph<R>(f: impl FnOnce(&mut Graph) -> R) -> R {
    let mut slot = GRAPH.lock().unwrap_or_else(|p| p.into_inner());
    let graph = slot.get_or_insert_with(|| Graph { edges: HashMap::new(), names: HashMap::new() });
    f(graph)
}

/// Depth-first search for a path `from ⇒ to` through recorded edges.
fn find_path(graph: &Graph, from: usize, to: usize) -> Option<Vec<usize>> {
    let mut stack = vec![(from, vec![from])];
    let mut seen = vec![from];
    while let Some((node, path)) = stack.pop() {
        if node == to {
            return Some(path);
        }
        if let Some(nexts) = graph.edges.get(&node) {
            for &next in nexts.keys() {
                if !seen.contains(&next) {
                    seen.push(next);
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((next, p));
                }
            }
        }
    }
    None
}

#[derive(Default, Clone, Copy)]
struct ClassStats {
    acquisitions: u64,
    total: Duration,
    max: Duration,
}

static STATS: Mutex<Option<HashMap<usize, (&'static str, ClassStats)>>> = Mutex::new(None);

/// One class's hold-time aggregate from [`hold_stats`].
#[derive(Debug, Clone)]
pub struct HoldStats {
    pub class: &'static str,
    pub rank: u32,
    pub acquisitions: u64,
    pub total_held: Duration,
    pub max_held: Duration,
}

static RANKS: Mutex<Option<HashMap<usize, u32>>> = Mutex::new(None);

/// A snapshot of per-class hold-time statistics accumulated while armed,
/// sorted by rank. Feeds the hold-time analysis over the test corpus.
pub fn hold_stats() -> Vec<HoldStats> {
    let ranks: HashMap<usize, u32> = RANKS
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .as_ref()
        .map(|m| m.clone())
        .unwrap_or_default();
    let mut out: Vec<HoldStats> = STATS
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .as_ref()
        .map(|m| {
            m.iter()
                .map(|(key, (name, s))| HoldStats {
                    class: name,
                    rank: ranks.get(key).copied().unwrap_or(0),
                    acquisitions: s.acquisitions,
                    total_held: s.total,
                    max_held: s.max,
                })
                .collect()
        })
        .unwrap_or_default();
    out.sort_by_key(|s| (s.rank, s.class));
    out
}

/// The class names this thread currently holds, outermost first.
pub fn held_classes() -> Vec<&'static str> {
    HELD.with(|held| held.borrow().iter().map(|e| e.class.name).collect())
}

/// RAII side of an acquisition: pops the held-stack entry and records
/// hold time when dropped. Guards hold one (`None` when lockdep was
/// disarmed at acquisition time).
pub(crate) struct Token {
    class: &'static LockClass,
    id: u64,
}

impl Drop for Token {
    fn drop(&mut self) {
        let since = HELD
            .try_with(|held| {
                let mut held = held.borrow_mut();
                // Guards usually die LIFO, but explicit drops may not:
                // remove by acquisition id, not by position.
                let pos = held.iter().rposition(|e| e.id == self.id)?;
                Some(held.remove(pos).since)
            })
            .ok()
            .flatten();
        if let Some(since) = since {
            let elapsed = since.elapsed();
            let mut stats = STATS.lock().unwrap_or_else(|p| p.into_inner());
            let entry = stats
                .get_or_insert_with(HashMap::new)
                .entry(class_key(self.class))
                .or_insert((self.class.name, ClassStats::default()));
            entry.1.acquisitions += 1;
            entry.1.total += elapsed;
            entry.1.max = entry.1.max.max(elapsed);
        }
    }
}

fn snapshot() -> Vec<(usize, &'static str, u32)> {
    HELD.with(|held| {
        held.borrow().iter().map(|e| (class_key(e.class), e.class.name, e.class.rank)).collect()
    })
}

fn push_entry(class: &'static LockClass) -> Token {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    HELD.with(|held| {
        held.borrow_mut().push(HeldEntry { class, id, since: Instant::now() });
    });
    Token { class, id }
}

/// Records the class in the rank registry (for `hold_stats` reporting).
fn register(class: &'static LockClass) {
    let mut ranks = RANKS.lock().unwrap_or_else(|p| p.into_inner());
    ranks.get_or_insert_with(HashMap::new).entry(class_key(class)).or_insert(class.rank);
}

/// Checks and records an acquisition of `class`. Returns the held-stack
/// token, or `None` when lockdep is disarmed. `blocking` acquisitions get
/// the full order analysis; non-blocking ones are only tracked.
///
/// All violation panics include both class names; graph violations also
/// include both held stacks (this thread's and the first witness of the
/// opposing order).
pub(crate) fn acquire(class: &'static LockClass, blocking: bool) -> Option<Token> {
    if !armed() {
        return None;
    }
    register(class);
    // Copy outside the RefCell borrow so a violation panic unwinds
    // with no active borrow (guard drops during unwind re-borrow HELD).
    let held = snapshot();
    let key = class_key(class);
    if let Some(&(_, name, _)) = held.iter().find(|&&(k, _, _)| k == key) {
        panic!(
            "lockdep: self-deadlock: acquiring lock class `{name}` while this thread \
             already holds it; held stack: [{}]",
            join_names(&held),
        );
    }
    if blocking {
        if let Some(&(_, top_name, top_rank)) = held.iter().max_by_key(|&&(_, _, r)| r) {
            if class.rank < top_rank {
                panic!(
                    "lockdep: lock order violation: acquiring class `{}` (rank {}) while \
                     holding `{top_name}` (rank {top_rank}); ranks must be acquired in \
                     increasing order; held stack: [{}]",
                    class.name,
                    class.rank,
                    join_names(&held),
                );
            }
        }
        with_graph(|graph| {
            graph.names.insert(key, class.name);
            // A path new ⇒ held in the recorded graph means some earlier
            // acquisition ordered `class` before a class we now hold:
            // taking it here would close a cycle.
            for &(held_key, held_name, _) in &held {
                if let Some(path) = find_path(graph, key, held_key) {
                    let path_names: Vec<&str> =
                        path.iter().map(|k| graph.names.get(k).copied().unwrap_or("?")).collect();
                    let witness = path
                        .first()
                        .zip(path.get(1))
                        .and_then(|(a, b)| graph.edges.get(a)?.get(b))
                        .map(|e| e.stack.join(", "))
                        .unwrap_or_default();
                    panic!(
                        "lockdep: lock order cycle: acquiring class `{}` while holding \
                         `{held_name}` closes the cycle {} -> {held_name}; this thread's \
                         held stack: [{}]; the opposing order was first recorded with \
                         held stack: [{witness}]",
                        class.name,
                        path_names.join(" -> "),
                        join_names(&held),
                    );
                }
            }
            // Record held → new edges with this thread's stack as witness.
            let mut witness: Vec<&'static str> = held.iter().map(|&(_, n, _)| n).collect();
            witness.push(class.name);
            for &(held_key, _, _) in &held {
                graph
                    .edges
                    .entry(held_key)
                    .or_default()
                    .entry(key)
                    .or_insert_with(|| Edge { stack: witness.clone() });
            }
        });
    }
    Some(push_entry(class))
}

fn join_names(held: &[(usize, &'static str, u32)]) -> String {
    held.iter().map(|&(_, n, _)| n).collect::<Vec<_>>().join(", ")
}

/// Declares that the caller is about to perform file I/O (a cold-chunk
/// read, an fsync). Panics when armed if this thread holds any lock class
/// ranked at or above [`IO_LOCK_RANK_THRESHOLD`].
pub fn check_io(context: &str) {
    if !armed() {
        return;
    }
    let held = snapshot();
    let offenders: Vec<&str> =
        held.iter().filter(|&&(_, _, r)| r >= IO_LOCK_RANK_THRESHOLD).map(|&(_, n, _)| n).collect();
    if !offenders.is_empty() {
        panic!(
            "lockdep: {context} while holding lock class(es) [{}] ranked at or above the \
             I/O threshold ({IO_LOCK_RANK_THRESHOLD}); page faults and fsyncs must happen \
             outside these locks; held stack: [{}]",
            offenders.join(", "),
            join_names(&held),
        );
    }
}
