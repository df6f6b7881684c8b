//! The benchmark-side timing wrapper: a [`Router`] that forwards every
//! method to the router it wraps, and times and counts each policy call
//! from outside the engine.
//!
//! The wrapper never changes a decision: it hands the engine's slices to the
//! inner router untouched and only reads the results afterwards, so a traced
//! run simulates exactly what the untraced run does (the self-test in
//! `tests.rs` checks the fingerprints match).

use mesh_routing::engine::{Arrival, FullView, PackedArrival, PackedView, QueueArch, Router};
use mesh_routing::topo::Coord;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Work and busy time of one policy entry point. Relaxed atomics: the
/// benchmark runs the sequential engine, and the values publish nothing.
#[derive(Default)]
struct Span {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Span {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        out
    }
}

/// Counters of every policy call a traced router received.
#[derive(Default)]
pub struct RouterCounters {
    outqueue: Span,
    outqueue_packed: Span,
    inqueue: Span,
    inqueue_packed: Span,
    end_of_step: Span,
    residents_seen: AtomicU64,
    moves_scheduled: AtomicU64,
    arrivals_offered: AtomicU64,
    arrivals_accepted: AtomicU64,
}

/// A plain copy of [`RouterCounters`]; on `adversary-lb`, summed over the
/// victims whose construction completed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RouterTally {
    pub outqueue_calls: u64,
    pub outqueue_ns: u64,
    pub inqueue_calls: u64,
    pub inqueue_ns: u64,
    pub end_of_step_calls: u64,
    pub end_of_step_ns: u64,
    /// Outqueue and inqueue calls that took the packed fast path.
    pub packed_calls: u64,
    pub residents_seen: u64,
    pub moves_scheduled: u64,
    pub arrivals_offered: u64,
    pub arrivals_accepted: u64,
}

impl RouterCounters {
    pub fn tally(&self) -> RouterTally {
        let get = |a: &AtomicU64| a.load(Relaxed);
        RouterTally {
            outqueue_calls: get(&self.outqueue.calls) + get(&self.outqueue_packed.calls),
            outqueue_ns: get(&self.outqueue.ns) + get(&self.outqueue_packed.ns),
            inqueue_calls: get(&self.inqueue.calls) + get(&self.inqueue_packed.calls),
            inqueue_ns: get(&self.inqueue.ns) + get(&self.inqueue_packed.ns),
            end_of_step_calls: get(&self.end_of_step.calls),
            end_of_step_ns: get(&self.end_of_step.ns),
            packed_calls: get(&self.outqueue_packed.calls) + get(&self.inqueue_packed.calls),
            residents_seen: get(&self.residents_seen),
            moves_scheduled: get(&self.moves_scheduled),
            arrivals_offered: get(&self.arrivals_offered),
            arrivals_accepted: get(&self.arrivals_accepted),
        }
    }
}

impl RouterTally {
    /// Every policy call, on either path.
    pub fn calls(&self) -> u64 {
        self.outqueue_calls + self.inqueue_calls + self.end_of_step_calls
    }

    /// Host time inside every policy call.
    pub fn ns(&self) -> u64 {
        self.outqueue_ns + self.inqueue_ns + self.end_of_step_ns
    }

    pub fn add(&mut self, o: &RouterTally) {
        self.outqueue_calls += o.outqueue_calls;
        self.outqueue_ns += o.outqueue_ns;
        self.inqueue_calls += o.inqueue_calls;
        self.inqueue_ns += o.inqueue_ns;
        self.end_of_step_calls += o.end_of_step_calls;
        self.end_of_step_ns += o.end_of_step_ns;
        self.packed_calls += o.packed_calls;
        self.residents_seen += o.residents_seen;
        self.moves_scheduled += o.moves_scheduled;
        self.arrivals_offered += o.arrivals_offered;
        self.arrivals_accepted += o.arrivals_accepted;
    }

    /// The call counts only: what must repeat exactly from run to run.
    pub fn counts(&self) -> [u64; 8] {
        [
            self.outqueue_calls,
            self.inqueue_calls,
            self.end_of_step_calls,
            self.packed_calls,
            self.residents_seen,
            self.moves_scheduled,
            self.arrivals_offered,
            self.arrivals_accepted,
        ]
    }
}

/// `R` with every policy call timed and counted into a shared
/// [`RouterCounters`].
pub struct Traced<'c, R> {
    inner: R,
    counters: &'c RouterCounters,
}

impl<'c, R> Traced<'c, R> {
    pub fn new(inner: R, counters: &'c RouterCounters) -> Self {
        Traced { inner, counters }
    }
}

impl<R: Router> Router for Traced<'_, R> {
    type NodeState = R::NodeState;

    fn name(&self) -> String {
        self.inner.name()
    }

    fn queue_arch(&self) -> QueueArch {
        self.inner.queue_arch()
    }

    fn is_minimal(&self) -> bool {
        self.inner.is_minimal()
    }

    fn outqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &[FullView],
        out: &mut [Option<usize>; 4],
    ) {
        let c = self.counters;
        c.outqueue
            .time(|| self.inner.outqueue(step, node, state, pkts, out));
        c.residents_seen.fetch_add(pkts.len() as u64, Relaxed);
        c.moves_scheduled
            .fetch_add(out.iter().flatten().count() as u64, Relaxed);
    }

    fn inqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        residents: &[FullView],
        arrivals: &[Arrival<FullView>],
        accept: &mut [bool],
    ) {
        let c = self.counters;
        c.inqueue.time(|| {
            self.inner
                .inqueue(step, node, state, residents, arrivals, accept)
        });
        c.arrivals_offered.fetch_add(arrivals.len() as u64, Relaxed);
        c.arrivals_accepted
            .fetch_add(accept.iter().filter(|&&a| a).count() as u64, Relaxed);
    }

    fn end_of_step(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        residents: &[FullView],
        states: &mut [u64],
    ) {
        self.counters
            .end_of_step
            .time(|| self.inner.end_of_step(step, node, state, residents, states));
    }

    fn mask_capable(&self) -> bool {
        self.inner.mask_capable()
    }

    fn outqueue_packed(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &[PackedView],
        out: &mut [Option<usize>; 4],
    ) {
        let c = self.counters;
        c.outqueue_packed
            .time(|| self.inner.outqueue_packed(step, node, state, pkts, out));
        c.residents_seen.fetch_add(pkts.len() as u64, Relaxed);
        c.moves_scheduled
            .fetch_add(out.iter().flatten().count() as u64, Relaxed);
    }

    fn inqueue_packed(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        queue_lens: &[u32],
        arrivals: &[PackedArrival],
        accept: &mut [bool],
    ) {
        let c = self.counters;
        c.inqueue_packed.time(|| {
            self.inner
                .inqueue_packed(step, node, state, queue_lens, arrivals, accept)
        });
        c.arrivals_offered.fetch_add(arrivals.len() as u64, Relaxed);
        c.arrivals_accepted
            .fetch_add(accept.iter().filter(|&&a| a).count() as u64, Relaxed);
    }

    fn uses_end_of_step(&self) -> bool {
        self.inner.uses_end_of_step()
    }
}
