//! In-memory spans recorded around the benchmark's own calls into each
//! layer.
//!
//! A span has a name, start, end, parent and, where the benchmark issued
//! the op, an op id. Nesting is phase → `LiveHost::with_core` or
//! `Simulator::run_until` → node callback. Node callbacks are far too
//! many to keep one by one (the metro tree makes millions), so each is
//! folded into a *roll-up* span: one record per (parent, name) holding
//! the call count and the summed busy time. Self time only needs those
//! sums, so nothing is lost for it.
//!
//! Callbacks the io worker thread makes have no open span on that thread;
//! they become children of the current phase. A phase's own self time is
//! therefore not meaningful (its children ran on two threads); no metric
//! uses it.
//!
//! Recording is off unless [`enable`] was called; a disabled guard costs
//! one relaxed atomic load.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Sentinel for "no span".
const NONE: usize = usize::MAX;

/// One recorded span (or roll-up of same-named leaf spans).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`core.stub`, `netsim.run_until`, …).
    pub name: &'static str,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch (latest end for a roll-up).
    pub end_ns: u64,
    /// Time inside the span: `end - start`, or the sum for a roll-up.
    pub busy_ns: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// The benchmark op this span served, when there is one.
    pub op: Option<u64>,
    /// Calls folded into this record (1 for an ordinary span).
    pub calls: u64,
}

struct Buf {
    spans: Vec<Span>,
    rollups: BTreeMap<(usize, &'static str), usize>,
}

static ON: AtomicBool = AtomicBool::new(false);
static PHASE: AtomicUsize = AtomicUsize::new(NONE);
static BUF: Mutex<Buf> = Mutex::new(Buf {
    spans: Vec::new(),
    rollups: BTreeMap::new(),
});

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn buf() -> std::sync::MutexGuard<'static, Buf> {
    BUF.lock()
        .expect("trace buffer poisoned by a panicking recorder")
}

fn current_parent() -> usize {
    STACK
        .with(|s| s.borrow().last().copied())
        .unwrap_or_else(|| PHASE.load(Ordering::Relaxed))
}

fn opt(i: usize) -> Option<usize> {
    (i != NONE).then_some(i)
}

/// Turns recording on or off (off by default).
pub fn enable(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    let mut b = buf();
    b.rollups.clear();
    std::mem::take(&mut b.spans)
}

/// An open span; closes on drop.
#[must_use = "a span closes when the guard drops"]
pub struct Guard {
    idx: usize,
    phase_before: Option<usize>,
}

fn open(name: &'static str, op: Option<u64>) -> usize {
    let parent = current_parent();
    let start = now_ns();
    let mut b = buf();
    b.spans.push(Span {
        name,
        start_ns: start,
        end_ns: start,
        busy_ns: 0,
        parent: opt(parent),
        op,
        calls: 1,
    });
    let idx = b.spans.len() - 1;
    drop(b);
    STACK.with(|s| s.borrow_mut().push(idx));
    idx
}

/// Opens a span under the calling thread's innermost open span (or the
/// current phase).
pub fn span(name: &'static str, op: Option<u64>) -> Guard {
    if !enabled() {
        return Guard {
            idx: NONE,
            phase_before: None,
        };
    }
    Guard {
        idx: open(name, op),
        phase_before: None,
    }
}

/// Opens a phase: a span that also adopts callbacks made on threads with
/// no open span of their own.
pub fn phase(name: &'static str) -> Guard {
    if !enabled() {
        return Guard {
            idx: NONE,
            phase_before: None,
        };
    }
    let idx = open(name, None);
    let before = PHASE.swap(idx, Ordering::Relaxed);
    Guard {
        idx,
        phase_before: Some(before),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if self.idx == NONE {
            return;
        }
        let end = now_ns();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.idx), "spans close in LIFO order");
        });
        if let Some(before) = self.phase_before {
            PHASE.store(before, Ordering::Relaxed);
        }
        if let Ok(mut b) = BUF.lock() {
            let s = &mut b.spans[self.idx];
            s.end_ns = end;
            s.busy_ns = end.saturating_sub(s.start_ns);
        }
    }
}

/// Times a leaf call and folds it into the roll-up for (parent, name).
/// Runs `f` untimed when recording is off.
pub fn leaf<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let start = now_ns();
    let r = f();
    let end = now_ns();
    let parent = current_parent();
    let mut b = buf();
    let idx = match b.rollups.get(&(parent, name)) {
        Some(&i) => i,
        None => {
            b.spans.push(Span {
                name,
                start_ns: start,
                end_ns: end,
                busy_ns: 0,
                parent: opt(parent),
                op: None,
                calls: 0,
            });
            let i = b.spans.len() - 1;
            b.rollups.insert((parent, name), i);
            i
        }
    };
    let s = &mut b.spans[idx];
    s.calls += 1;
    s.busy_ns += end - start;
    s.end_ns = s.end_ns.max(end);
    r
}

/// Self time of every span: its busy time minus the busy time of its
/// children (saturating at zero).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.busy_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.busy_ns);
        }
    }
    own
}

/// Per-name totals: `(self ns, busy ns, calls)`.
pub fn by_name(spans: &[Span]) -> HashMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut out: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
    for (s, o) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.0 += o;
        e.1 += s.busy_ns;
        e.2 += s.calls;
    }
    out
}

/// Writes spans as JSON lines (`name start end busy parent op calls`).
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let op = s.op.map_or("null".to_string(), |o| o.to_string());
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"parent\":{parent},\"op\":{op},\"calls\":{}}}",
            s.name, s.start_ns, s.end_ns, s.busy_ns, s.calls
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            busy_ns: end - start,
            parent,
            op: None,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // phase [0,100) ⊃ run_until [10,60) ⊃ {leaf [20,30), leaf [40,45)}
        //              ⊃ run_until [70,90) ⊃ roll-up of 3 calls, 12 ns busy
        let mut spans = vec![
            s("phase", 0, 100, None),
            s("run_until", 10, 60, Some(0)),
            s("node", 20, 30, Some(1)),
            s("node", 40, 45, Some(1)),
            s("run_until", 70, 90, Some(0)),
        ];
        spans.push(Span {
            calls: 3,
            busy_ns: 12,
            ..s("node", 71, 89, Some(4))
        });
        assert_eq!(self_times(&spans), vec![30, 35, 10, 5, 8, 12]);
        let t = by_name(&spans);
        assert_eq!(t["run_until"], (43, 70, 2));
        assert_eq!(t["node"], (27, 27, 5));
    }

    #[test]
    fn recorder_nests_and_rolls_up() {
        // The only test touching the global recorder (tests run in
        // parallel threads; everything else uses plain vectors).
        enable(true);
        {
            let _p = phase("phase");
            {
                let _r = span("run_until", Some(7));
                for _ in 0..3 {
                    leaf("node", || std::hint::black_box(1 + 1));
                }
            }
            leaf("node", || ());
        }
        enable(false);
        let spans = take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].name, "phase");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, Some(7));
        assert_eq!((spans[2].parent, spans[2].calls), (Some(1), 3));
        assert_eq!((spans[3].parent, spans[3].calls), (Some(0), 1));
        let own = self_times(&spans);
        assert_eq!(own[1], spans[1].busy_ns - spans[2].busy_ns);
        assert!(own[0] <= spans[0].busy_ns - spans[1].busy_ns);
        // Disabled: nothing recorded.
        leaf("node", || ());
        drop(span("x", None));
        assert!(take().is_empty());
    }
}
