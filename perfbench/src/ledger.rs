//! The host-time ledger: timing decorators for the simulator's two
//! plug-in seams, [`App`] and [`L35Shim`].
//!
//! A traced deployment wraps every app and shim in a decorator that
//! times each call into it and books the time to a [`Layer`]. Spans
//! nest (a span's children are subtracted from its self time), so a
//! seam called from inside another seam is charged once. The engine,
//! links, host stack and TCP have no seam of their own: their host time
//! is the rest of `Sim::run_until`, `netsim.self_s`.
//!
//! The decorators observe only: `as_any` delegates to the wrapped value
//! so downcasts keep working, and no call is added, dropped or
//! reordered, which the traced-equals-untraced fingerprint check pins.

use netsim::host::{App, AppEvent, HostApi, L35Shim, ShimApi};
use netsim::Packet;
use std::any::Any;
use std::cell::RefCell;
use std::net::IpAddr;
use std::time::Instant;

/// A layer that owns a seam.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `hip_core::HipShim` (HIP control plane, ESP encap/decap, the
    /// wire sends it makes).
    Shim,
    /// `websvc::ProxyApp` (includes its TLS channels in SSL).
    Proxy,
    /// `websvc::WebServerApp`.
    Web,
    /// `websvc::DbServerApp`.
    Db,
    /// Load generators and bulk endpoints.
    Loadgen,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 5] = [
        Layer::Shim,
        Layer::Proxy,
        Layer::Web,
        Layer::Db,
        Layer::Loadgen,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Shim => "core.shim",
            Layer::Proxy => "websvc.proxy",
            Layer::Web => "websvc.web",
            Layer::Db => "websvc.db",
            Layer::Loadgen => "websvc.loadgen",
        }
    }
}

/// Self time and call count per layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Spans {
    /// Nanoseconds inside the layer, children excluded.
    pub self_ns: [u64; 5],
    /// Calls into the layer.
    pub calls: [u64; 5],
}

impl Spans {
    /// Self time of `layer` in nanoseconds.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    /// Calls into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }

    /// Self time of every layer together.
    pub fn total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }
}

#[derive(Default)]
struct Ledger {
    spans: Spans,
    /// Child time accumulated by each open span, innermost last.
    open: Vec<u64>,
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger::default());
}

/// Clears the ledger (call before a traced run).
pub fn reset() {
    LEDGER.with(|l| *l.borrow_mut() = Ledger::default());
}

/// The spans booked since the last [`reset`].
pub fn snapshot() -> Spans {
    LEDGER.with(|l| l.borrow().spans)
}

fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    LEDGER.with(|l| l.borrow_mut().open.push(0));
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed().as_nanos() as u64;
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        let children = l.open.pop().expect("span opened above");
        if let Some(parent) = l.open.last_mut() {
            *parent += elapsed;
        }
        l.spans.self_ns[layer as usize] += elapsed.saturating_sub(children);
        l.spans.calls[layer as usize] += 1;
    });
    out
}

/// An [`App`] whose calls are booked to `layer`.
pub struct TimedApp {
    layer: Layer,
    inner: Box<dyn App>,
}

impl TimedApp {
    /// Wraps `inner`.
    pub fn boxed(layer: Layer, inner: Box<dyn App>) -> Box<dyn App> {
        Box::new(TimedApp { layer, inner })
    }
}

impl App for TimedApp {
    fn start(&mut self, api: &mut HostApi) {
        span(self.layer, || self.inner.start(api))
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        span(self.layer, || self.inner.on_event(ev, api))
    }
    fn reset(&mut self) {
        span(self.layer, || self.inner.reset())
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// An [`L35Shim`] whose calls are booked to [`Layer::Shim`].
pub struct TimedShim {
    inner: Box<dyn L35Shim>,
}

impl TimedShim {
    /// Wraps `inner`.
    pub fn boxed(inner: Box<dyn L35Shim>) -> Box<dyn L35Shim> {
        Box::new(TimedShim { inner })
    }
}

impl L35Shim for TimedShim {
    fn start(&mut self, api: &mut ShimApi) {
        span(Layer::Shim, || self.inner.start(api))
    }
    fn handles_dst(&self, dst: &IpAddr) -> bool {
        span(Layer::Shim, || self.inner.handles_dst(dst))
    }
    fn outbound(&mut self, pkt: Packet, api: &mut ShimApi) {
        span(Layer::Shim, || self.inner.outbound(pkt, api))
    }
    fn inbound(&mut self, pkt: Packet, api: &mut ShimApi) {
        span(Layer::Shim, || self.inner.inbound(pkt, api))
    }
    fn on_timer(&mut self, token: u64, api: &mut ShimApi) {
        span(Layer::Shim, || self.inner.on_timer(token, api))
    }
    fn on_crash(&mut self, api: &mut ShimApi) {
        span(Layer::Shim, || self.inner.on_crash(api))
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_book_self_time_once() {
        reset();
        span(Layer::Proxy, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            span(Layer::Shim, || {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let s = snapshot();
        assert_eq!(s.calls(Layer::Proxy), 1);
        assert_eq!(s.calls(Layer::Shim), 1);
        assert!(s.self_ns(Layer::Shim) >= 4_000_000);
        assert!(s.self_ns(Layer::Proxy) >= 2_000_000);
        assert!(
            s.self_ns(Layer::Proxy) < 4_000_000,
            "child time leaked into parent"
        );
    }
}
