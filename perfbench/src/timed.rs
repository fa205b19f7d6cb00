//! A node wrapper that times every callback of the node it wraps.
//!
//! `as_any` delegates to the inner node, so `with_node::<StubResolver>`
//! and `node_ref::<RelayNode>` still downcast through the wrapper; calls
//! the benchmark makes that way bypass the wrapper and are timed by the
//! caller instead. An optional observer runs after each callback, outside
//! the timed region (the live workloads read pushed TXT stamps with it).

use crate::trace;
use moqdns_netsim::{Addr, Ctx, Node, Payload};
use std::any::Any;

/// Observer run after each callback with the inner node and the inbound
/// payload size (0 for timers and start-up).
pub type Observer<T> = Box<dyn FnMut(&T, usize) + Send>;

/// Times `T`'s callbacks as leaf spans named after its layer.
pub struct Timed<T: Node> {
    inner: T,
    layer: &'static str,
    observer: Option<Observer<T>>,
}

impl<T: Node> Timed<T> {
    /// Wraps `inner`, recording its callbacks as `layer`.
    pub fn new(inner: T, layer: &'static str) -> Timed<T> {
        Timed {
            inner,
            layer,
            observer: None,
        }
    }

    /// Adds an observer.
    pub fn observe(mut self, f: impl FnMut(&T, usize) + Send + 'static) -> Timed<T> {
        self.observer = Some(Box::new(f));
        self
    }

    fn after(&mut self, bytes: usize) {
        if let Some(f) = self.observer.as_mut() {
            trace::leaf("bench.observer", || f(&self.inner, bytes));
        }
    }
}

impl<T: Node> Node for Timed<T> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        trace::leaf(self.layer, || self.inner.on_start(ctx));
        self.after(0);
    }

    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, to_port: u16, payload: Payload) {
        let bytes = payload.len();
        trace::leaf(self.layer, || {
            self.inner.on_datagram(ctx, from, to_port, payload)
        });
        self.after(bytes);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        trace::leaf(self.layer, || self.inner.on_timer(ctx, token));
        self.after(0);
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self.inner.as_any()
    }

    fn as_any_ref(&self) -> &dyn Any {
        self.inner.as_any_ref()
    }
}
