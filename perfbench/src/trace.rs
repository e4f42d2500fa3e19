//! Spans at layer boundaries, recorded from the benchmark's side of each
//! call into the program.
//!
//! A span has a name (the per-layer metric it feeds, e.g. `sim.run`), the
//! layer it times (a module name: `nocsim`, `hexamesh::eval`,
//! `chiplet_workload`, `xp`, `obs`, or `perfbench` for the harness), a
//! start, a duration and the id of the span that caused it. Spans stay in
//! memory and are written once, as a Chrome trace through
//! [`obs::TraceBuilder`], when the run ends. With tracing off, [`Tracer::span`]
//! only calls its closure.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use obs::{TraceBuilder, TraceSpan};

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run (1-based).
    pub id: u64,
    /// The enclosing span, `0` for a root.
    pub parent: u64,
    /// Module whose call this span times.
    pub layer: &'static str,
    /// Metric stem, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<u64>,
    next_id: u64,
}

/// Span recorder. Interior mutability lets nested closures (a load-point
/// runner inside `evaluate_with`, say) open spans through a shared
/// reference.
#[derive(Debug)]
pub struct Tracer {
    on: Cell<bool>,
    epoch: Instant,
    state: RefCell<State>,
}

fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A tracer; `on = false` records nothing.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self { on: Cell::new(on), epoch: Instant::now(), state: RefCell::new(State::default()) }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on.get()
    }

    /// Turns recording on or off.
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    /// Runs `f` inside a span named `name` on `layer`.
    pub fn span<R>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open(layer, name);
        let out = f();
        self.close(open);
        out
    }

    /// Opens a span; pass the token to [`Tracer::close`]. Spans must close
    /// in reverse order of opening.
    #[must_use]
    pub fn open(&self, layer: &'static str, name: &'static str) -> Option<Span> {
        if !self.is_on() {
            return None;
        }
        let mut state = self.state.borrow_mut();
        state.next_id += 1;
        let id = state.next_id;
        let parent = state.stack.last().copied().unwrap_or(0);
        state.stack.push(id);
        Some(Span { id, parent, layer, name, start_ns: ns_since(self.epoch), dur_ns: 0 })
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, open: Option<Span>) {
        let Some(mut span) = open else {
            return;
        };
        span.dur_ns = ns_since(self.epoch).saturating_sub(span.start_ns);
        let mut state = self.state.borrow_mut();
        state.stack.pop();
        state.spans.push(span);
    }

    /// Every finished span, in completion order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Self time per layer in seconds: each span's duration minus the part
    /// its direct children cover, summed by layer.
    #[must_use]
    pub fn self_s_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let state = self.state.borrow();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &state.spans {
            *child_ns.entry(s.parent).or_default() += s.dur_ns;
        }
        let mut out = BTreeMap::new();
        for s in &state.spans {
            let own = s.dur_ns.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *out.entry(s.layer).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as a Chrome trace document (`obs` layer).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut builder = TraceBuilder::new();
        builder.name_thread(0, "perfbench");
        for s in self.state.borrow().spans.iter() {
            let mut span = TraceSpan::new(s.name, s.layer, 0, s.start_ns, s.dur_ns);
            span.args.push(("id", s.id.into()));
            span.args.push(("parent", s.parent.into()));
            builder.push(span);
        }
        builder.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let t = Tracer::new(true);
        t.span("a", "outer", || {
            t.span("b", "inner", || std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        let self_s = t.self_s_by_layer();
        assert!(self_s["b"] >= 0.002);
        assert!(self_s["a"] < self_s["b"]);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", "x", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
