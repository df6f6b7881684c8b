//! Fault-tolerant wrapper: route around what is broken.
//!
//! [`FaultAware`] wraps any [`Router`] and masks outlinks that the shared
//! [`CompiledFaults`] table says are down *right now* out of every packet
//! view the inner router sees. The inner algorithm needs no changes: to
//! dimension order, west-first, or the Theorem 15 router, a faulted East
//! link simply looks like East not being profitable, and their ordinary
//! direction fallback does the rerouting.
//!
//! Two properties make the mask sound:
//!
//! * **Minimality is preserved** — the masked set is a subset of the true
//!   profitable set, so every move the inner router schedules from it still
//!   passes the engine's minimality validation.
//! * **Destination-exchangeability is preserved** — the mask depends only on
//!   the step, the node, and the fault table, never on a destination, so a
//!   wrapped `Dx` router is still destination-exchangeable.
//!
//! The wrapper is advisory, not load-bearing: the engine independently drops
//! transmissions over down links, so an inner router that schedules onto a
//! faulted link anyway (e.g. a nonminimal one whose choices the mask cannot
//! steer) loses the move but stays correct. Masking merely lets the router
//! spend its step on a link that works.

use mesh_engine::{Arrival, FullView, PackedArrival, PackedView, QueueArch, Router};
use mesh_faults::CompiledFaults;
use mesh_topo::Coord;
use std::cell::Cell;
use std::sync::Arc;

/// A [`Router`] adapter that hides faulted outlinks from the inner router.
///
/// Share one compiled fault table between the wrapper and
/// [`Sim::with_faults`](mesh_engine::Sim::with_faults) so the router's view
/// of the network and the engine's enforcement always agree.
pub struct FaultAware<R> {
    inner: R,
    faults: Arc<CompiledFaults>,
    // Masking scratch, reused across calls. Take/set on a `Cell` (rather
    // than `RefCell` borrows) stays reentrant — a re-entering call just
    // sees an empty buffer.
    residents: Cell<Vec<FullView>>,
    arrivals: Cell<Vec<Arrival<FullView>>>,
}

impl<R> FaultAware<R> {
    /// Wraps `inner`, masking against `faults`.
    pub fn new(inner: R, faults: Arc<CompiledFaults>) -> FaultAware<R> {
        FaultAware {
            inner,
            faults,
            residents: Cell::default(),
            arrivals: Cell::default(),
        }
    }

    /// The wrapped router.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// A resident view with the node's down outlinks masked out.
    fn mask_at(&self, step: u64, node: Coord, mut view: FullView) -> FullView {
        for d in view.profitable.iter() {
            if self.faults.link_down(step, node, d) {
                view.profitable.remove(d);
            }
        }
        view
    }

    /// An arrival view, masked at the node it is coming *from* (§2 measures
    /// a scheduled packet's profitable outlinks from its sender).
    fn mask_arrival(
        &self,
        step: u64,
        node: Coord,
        arrival: Arrival<FullView>,
    ) -> Arrival<FullView> {
        let (dx, dy) = arrival.travel.delta();
        let from = Coord::new((node.x as i64 - dx) as u32, (node.y as i64 - dy) as u32);
        Arrival {
            view: self.mask_at(step, from, arrival.view),
            travel: arrival.travel,
        }
    }
}

impl<R: Router> Router for FaultAware<R> {
    type NodeState = R::NodeState;

    fn name(&self) -> String {
        format!("fault-aware({})", self.inner.name())
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
        if self.faults.is_empty() {
            return self.inner.outqueue(step, node, state, pkts, out);
        }
        {
            let mut buf = self.residents.take();
            buf.clear();
            buf.extend(pkts.iter().map(|&v| self.mask_at(step, node, v)));
            self.inner.outqueue(step, node, state, &buf, out);
            self.residents.set(buf);
        }
        // Belt and braces: a nonminimal inner router may still have picked a
        // down link (the mask only edits *profitable* sets). Clear it — the
        // engine would drop the move anyway.
        for (di, slot) in out.iter_mut().enumerate() {
            if slot.is_some() && self.faults.link_down(step, node, mesh_topo::ALL_DIRS[di]) {
                *slot = None;
            }
        }
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
        if self.faults.is_empty() {
            return self
                .inner
                .inqueue(step, node, state, residents, arrivals, accept);
        }
        let mut rbuf = self.residents.take();
        rbuf.clear();
        rbuf.extend(residents.iter().map(|&v| self.mask_at(step, node, v)));
        let mut abuf = self.arrivals.take();
        abuf.clear();
        abuf.extend(arrivals.iter().map(|&a| self.mask_arrival(step, node, a)));
        self.inner.inqueue(step, node, state, &rbuf, &abuf, accept);
        self.residents.set(rbuf);
        self.arrivals.set(abuf);
        // Capacity guard: some acceptance rules assume fault-free progress
        // invariants (e.g. Theorem 15's vertical queues always accept
        // because a vertical packet always departs next step). Faults void
        // such guarantees, so veto anything that would overflow a bounded
        // queue — the sender keeps the packet and backpressure replaces
        // overflow.
        let arch = self.inner.queue_arch();
        let mut extra = [0usize; 5];
        for (i, a) in arrivals.iter().enumerate() {
            if !accept[i] || a.view.dst == node {
                continue; // rejected, or delivered on arrival (no slot used)
            }
            let kind = arch.arrival_queue(a.travel);
            if let Some(cap) = arch.capacity(kind) {
                let len = residents.iter().filter(|r| r.queue == kind).count() + extra[kind.slot()];
                if len < cap as usize {
                    extra[kind.slot()] += 1;
                } else {
                    accept[i] = false;
                }
            }
        }
    }

    fn end_of_step(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        residents: &[FullView],
        states: &mut [u64],
    ) {
        if self.faults.is_empty() {
            return self.inner.end_of_step(step, node, state, residents, states);
        }
        let mut rbuf = self.residents.take();
        rbuf.clear();
        rbuf.extend(residents.iter().map(|&v| self.mask_at(step, node, v)));
        self.inner.end_of_step(step, node, state, &rbuf, states);
        self.residents.set(rbuf);
    }

    /// An empty fault table makes every view method a pure pass-through
    /// (the masks and guards above are all behind `is_empty` early
    /// returns), so the packed fast path can be forwarded verbatim. With
    /// faults present the wrapper must edit views, which the packed path
    /// cannot express — it stays off and the view path masks as before.
    fn mask_capable(&self) -> bool {
        self.faults.is_empty() && self.inner.mask_capable()
    }

    fn outqueue_packed(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &[PackedView],
        out: &mut [Option<usize>; 4],
    ) {
        self.inner.outqueue_packed(step, node, state, pkts, out);
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
        self.inner
            .inqueue_packed(step, node, state, queue_lens, arrivals, accept);
    }

    /// Masking never changes whether the *inner* end-of-step does anything:
    /// if it is the no-op, masked views feed a no-op all the same.
    fn uses_end_of_step(&self) -> bool {
        self.inner.uses_end_of_step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DimOrder;
    use mesh_engine::{Dx, Sim, SimConfig, SimError};
    use mesh_faults::FaultPlan;
    use mesh_topo::{Dir, Mesh};
    use mesh_traffic::{workloads, RoutingProblem};

    fn wrapped_dim_order(k: u32, faults: &Arc<CompiledFaults>) -> FaultAware<Dx<DimOrder>> {
        FaultAware::new(Dx::new(DimOrder::new(k)), Arc::clone(faults))
    }

    /// With no faults the wrapper is a pure pass-through: identical steps
    /// and identical packet trajectories.
    #[test]
    fn no_faults_is_transparent() {
        let topo = Mesh::new(8);
        let pb = workloads::random_permutation(8, 4);
        let faults = Arc::new(FaultPlan::none(8).compile());
        let mut plain = Sim::new(&topo, Dx::new(DimOrder::new(8)), &pb);
        let mut wrapped = Sim::new(&topo, wrapped_dim_order(8, &faults), &pb);
        let a = plain.run(100_000).unwrap();
        let b = wrapped.run(100_000).unwrap();
        assert_eq!(a, b);
        assert_eq!(plain.packet_snapshot(), wrapped.packet_snapshot());
    }

    /// A single packet whose row is cut reroutes around the fault and still
    /// arrives, two steps later than the L1 distance.
    #[test]
    fn reroutes_around_a_cut_row() {
        let topo = Mesh::new(4);
        let pb = RoutingProblem::from_pairs(4, "one", [(Coord::new(0, 0), Coord::new(3, 2))]);
        let faults = Arc::new(
            FaultPlan::none(4)
                .link_down(Coord::new(1, 0), Dir::East, 0, None)
                .compile(),
        );
        let mut sim = Sim::with_faults(
            &topo,
            wrapped_dim_order(4, &faults),
            &pb,
            SimConfig::default(),
            faults.as_ref().clone(),
        );
        let steps = sim.run(100).expect("fault-aware must deliver");
        // Path: E to (1,0), N (east is masked), E E along row 1, N to (3,2):
        // same L1 distance — the detour is even free here because the packet
        // needed to go north anyway.
        assert_eq!(steps, 5);
    }

    /// The acceptance scenario: a random partial permutation on n = 16 and
    /// one persistent East link fault, chosen so that (a) at least one
    /// packet's row leg crosses the link, and (b) no packet *terminates*
    /// east of the fault on that row after crossing it (such a packet would
    /// be unroutable by any XY strategy confined to minimal paths).
    ///
    /// Plain dimension order must be reported deadlocked by the watchdog —
    /// not panic, not hit the step cap — while the fault-aware wrapper
    /// delivers 100%.
    #[test]
    fn acceptance_partial_permutation_single_link_fault() {
        let n: u32 = 16;
        let topo = Mesh::new(n);
        let pb = workloads::random_partial_permutation(n, 0.5, 2024);

        // Deterministically pick the faulted link per the criteria above.
        let mut fault_at = None;
        'search: for y in 0..n {
            for x in 0..n - 1 {
                let crossing = |src: Coord, dst: Coord| src.y == y && src.x <= x && x < dst.x;
                let crossers = pb.packets.iter().filter(|p| crossing(p.src, p.dst)).count();
                let doomed = pb
                    .packets
                    .iter()
                    .filter(|p| crossing(p.src, p.dst) && p.dst.y == y)
                    .count();
                if crossers > 0 && doomed == 0 {
                    fault_at = Some(Coord::new(x, y));
                    break 'search;
                }
            }
        }
        let at = fault_at.expect("workload must admit a suitable fault");
        let faults = Arc::new(
            FaultPlan::none(n)
                .link_down(at, Dir::East, 0, None)
                .compile(),
        );
        let config = SimConfig {
            watchdog: Some(200),
            ..SimConfig::default()
        };

        // Unwrapped dimension order: stuck packets pile up at the fault and
        // the watchdog reports it (k is ample, so it is the link, not
        // capacity, that wedges the run).
        let mut plain = Sim::with_faults(
            &topo,
            Dx::new(DimOrder::new(n * n)),
            &pb,
            config,
            faults.as_ref().clone(),
        );
        let err = plain.run(1_000_000).unwrap_err();
        assert!(
            matches!(err, SimError::Deadlock(_) | SimError::Livelock(_)),
            "expected watchdog verdict, got {err}"
        );
        assert!(!err.snapshot().stuck.is_empty());
        assert_eq!(err.snapshot().active_faults.len(), 1);

        // Fault-aware wrapper over the same router, same faults: 100%.
        let mut wrapped = Sim::with_faults(
            &topo,
            wrapped_dim_order(n * n, &faults),
            &pb,
            config,
            faults.as_ref().clone(),
        );
        let steps = wrapped
            .run(1_000_000)
            .expect("fault-aware dimension order must deliver everything");
        assert!(wrapped.done());
        assert_eq!(wrapped.delivered(), pb.len());
        assert!(steps < 1_000_000);
    }

    /// Wrapped name advertises the wrapper.
    #[test]
    fn name_reflects_wrapping() {
        let faults = Arc::new(FaultPlan::none(4).compile());
        let r = wrapped_dim_order(2, &faults);
        assert_eq!(r.name(), "fault-aware(dim-order-xy(k=2))");
    }
}
