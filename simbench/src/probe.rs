//! A forwarding `TieringPolicy` wrapper that times the policy layer from
//! outside the program. It is generic over the concrete policy, so the
//! wrapped calls dispatch statically.
//!
//! Both modes read the clock once when the policy is prepared (the end
//! of the run's set-up) and once per window edge (the `window_ms_*`
//! end-to-end metrics). With `TRACED` it also times every `on_sample`
//! and `on_window` call and one `place` call in `2^PLACE_SAMPLE_SHIFT`.

use std::cell::Cell;
use std::time::Instant;

use pact_tiersim::{
    MachineInfo, PageId, PebsScope, PolicyCtx, SampleEvent, Tier, TieringPolicy, WindowStats,
};

/// `place` runs once per access; one call in `2^6` is timed.
pub const PLACE_SAMPLE_SHIFT: u32 = 6;

pub struct Probe<P, const TRACED: bool> {
    inner: P,
    /// When the machine prepared the policy: the end of the run's own
    /// set-up (streams materialized, page map allocated).
    pub prepared_at: Option<Instant>,
    last_edge: Option<Instant>,
    /// Host ns between consecutive window edges.
    pub window_gaps_ns: Vec<u64>,
    /// Calls and timed ns of `place` (interior: `place` takes `&self`).
    place_calls: Cell<u64>,
    place_timed: Cell<u64>,
    place_ns: Cell<u64>,
    pub on_sample_calls: u64,
    pub on_sample_ns: u64,
    /// Host ns of each `on_window` call.
    pub on_window_ns: Vec<u64>,
}

/// The end-to-end wrapper: one clock read per window edge.
pub type Light<P> = Probe<P, false>;
/// The traced wrapper of the per-layer run.
pub type Traced<P> = Probe<P, true>;

impl<P: TieringPolicy, const TRACED: bool> Probe<P, TRACED> {
    pub fn new(inner: P) -> Self {
        Self {
            inner,
            prepared_at: None,
            last_edge: None,
            window_gaps_ns: Vec::new(),
            place_calls: Cell::new(0),
            place_timed: Cell::new(0),
            place_ns: Cell::new(0),
            on_sample_calls: 0,
            on_sample_ns: 0,
            on_window_ns: Vec::new(),
        }
    }

    /// `(calls, timed calls, timed ns)` of `place`.
    pub fn place_stats(&self) -> (u64, u64, u64) {
        (
            self.place_calls.get(),
            self.place_timed.get(),
            self.place_ns.get(),
        )
    }
}

/// Host ns elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl<P: TieringPolicy, const TRACED: bool> TieringPolicy for Probe<P, TRACED> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn pebs_scope(&self) -> Option<PebsScope> {
        self.inner.pebs_scope()
    }

    fn prepare(&mut self, info: &MachineInfo) {
        self.inner.prepare(info);
        self.prepared_at = Some(Instant::now());
    }

    #[inline]
    fn place(&self, page: PageId) -> Option<Tier> {
        if !TRACED {
            return self.inner.place(page);
        }
        let n = self.place_calls.get();
        self.place_calls.set(n + 1);
        if n & ((1 << PLACE_SAMPLE_SHIFT) - 1) != 0 {
            return self.inner.place(page);
        }
        let t = Instant::now();
        let tier = self.inner.place(std::hint::black_box(page));
        self.place_ns.set(self.place_ns.get() + ns_since(t));
        self.place_timed.set(self.place_timed.get() + 1);
        tier
    }

    fn on_sample(&mut self, ev: &SampleEvent, ctx: &mut PolicyCtx) {
        if !TRACED {
            return self.inner.on_sample(ev, ctx);
        }
        let t = Instant::now();
        self.inner.on_sample(ev, ctx);
        self.on_sample_ns += ns_since(t);
        self.on_sample_calls += 1;
    }

    fn on_window(&mut self, win: &WindowStats, ctx: &mut PolicyCtx) {
        let edge = Instant::now();
        if let Some(prev) = self.last_edge {
            let gap = edge.duration_since(prev).as_nanos();
            self.window_gaps_ns
                .push(u64::try_from(gap).unwrap_or(u64::MAX));
        }
        self.last_edge = Some(edge);
        self.inner.on_window(win, ctx);
        if TRACED {
            self.on_window_ns.push(ns_since(edge));
        }
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        self.inner.save_state(out)
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}
