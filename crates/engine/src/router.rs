//! The two routing-algorithm interfaces: unrestricted [`Router`] and
//! destination-exchangeable [`DxRouter`], plus the [`Dx`] adapter.

use crate::queue::QueueArch;
use crate::view::{Arrival, DxView, FullView, PackedArrival, PackedView};
use mesh_topo::Coord;
use std::cell::Cell;

/// A deterministic routing algorithm with **full** information: its policies
/// may inspect complete destination addresses. Implemented directly only by
/// algorithms the paper explicitly places outside the destination-
/// exchangeable class (farthest-first dimension order in §5; the §6
/// algorithm's base case).
///
/// All policy methods are deterministic functions of their arguments; the
/// engine stores one `NodeState` per node and threads it through. Policies
/// may mutate the node state in place — everything they can observe is
/// within the information the model grants them, so any state so computed is
/// expressible in the paper's "state update at end of step" formulation.
///
/// Policies take `&self`; an implementation that needs per-call scratch
/// space keeps it in a `Cell` on `self`, as [`Dx`] does.
pub trait Router {
    /// Per-node algorithm state (the paper's "state of a node").
    type NodeState: Clone + Default;

    /// Human-readable algorithm name for reports.
    fn name(&self) -> String;

    /// The queue architecture this algorithm runs on.
    fn queue_arch(&self) -> QueueArch;

    /// Whether the algorithm promises minimal (always-profitable) moves.
    /// When `true` the engine panics if a packet is ever scheduled on a
    /// non-profitable outlink — catching implementation bugs early.
    fn is_minimal(&self) -> bool {
        true
    }

    /// Step (a): choose at most one resident packet per outlink.
    /// `out[d]` is an index into `pkts`; a packet may appear at most once.
    fn outqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &[FullView],
        out: &mut [Option<usize>; 4],
    );

    /// Step (c): decide which scheduled arrivals to accept. `accept` has one
    /// flag per entry of `arrivals`, all initially `false`. The policy must
    /// not accept more packets than its queues can hold by the end of the
    /// step (the engine verifies and panics on overflow).
    fn inqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        residents: &[FullView],
        arrivals: &[Arrival<FullView>],
        accept: &mut [bool],
    );

    /// Step (e): update node state and resident packets' state words after
    /// transmission. `states[i]` is the mutable state word of `residents[i]`.
    /// Default: no-op.
    fn end_of_step(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        residents: &[FullView],
        states: &mut [u64],
    ) {
        let _ = (step, node, state, residents, states);
    }

    /// True when this router implements the bit-packed fast-path policies
    /// ([`Router::outqueue_packed`] and [`Router::inqueue_packed`]) and
    /// guarantees they make exactly the same decisions, packet for packet,
    /// as the view-based methods. The engine then skips building per-packet
    /// view vectors on the hot path; the differential battery cross-checks
    /// the promise against the view-based oracle.
    fn mask_capable(&self) -> bool {
        false
    }

    /// Fast-path step (a): like [`Router::outqueue`], but over bit-packed
    /// resident descriptors (`pkts[i]` describes the same packet, in the
    /// same order, as the `pkts[i]` the view-based method would see). Only
    /// called when [`Router::mask_capable`] returns `true`.
    fn outqueue_packed(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &[PackedView],
        out: &mut [Option<usize>; 4],
    ) {
        let _ = (step, node, state, pkts, out);
        unreachable!("outqueue_packed called on a router that is not mask_capable");
    }

    /// Fast-path step (c): like [`Router::inqueue`], but residents are
    /// summarized as per-slot occupancy counts (`queue_lens[s]` = packets
    /// currently in slot `s` of this node, indexed per the router's declared
    /// arch) and arrivals as [`PackedArrival`]s in the same order the
    /// view-based method would see them. Only called when
    /// [`Router::mask_capable`] returns `true`.
    fn inqueue_packed(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        queue_lens: &[u32],
        arrivals: &[PackedArrival],
        accept: &mut [bool],
    ) {
        let _ = (step, node, state, queue_lens, arrivals, accept);
        unreachable!("inqueue_packed called on a router that is not mask_capable");
    }

    /// Whether step (e) can do anything. Routers whose `end_of_step` is the
    /// inherited no-op return `false`, letting the engine skip the
    /// UpdateState view-building pass entirely (the skipped writes are
    /// identity writes, so skipping is byte-identical). Conservative default:
    /// `true`.
    fn uses_end_of_step(&self) -> bool {
        true
    }
}

/// A deterministic **destination-exchangeable** routing algorithm (§2): its
/// policies see packets only through [`DxView`]s — state, source address,
/// and profitable outlinks. The destination never reaches the policy, so the
/// exchange-invariance Lemma 10 holds for every implementation by
/// construction.
///
/// Run a `DxRouter` by wrapping it: `Dx::new(MyRouter)`.
pub trait DxRouter {
    /// Per-node algorithm state.
    type NodeState: Clone + Default;

    /// Human-readable algorithm name for reports.
    fn name(&self) -> String;

    /// The queue architecture this algorithm runs on.
    fn queue_arch(&self) -> QueueArch;

    /// Whether the algorithm is minimal. The §3 lower bound needs both
    /// destination-exchangeability *and* minimality; §5 notes that
    /// destination-exchangeable **nonminimal** algorithms exist (hot-potato
    /// routing) and get a weaker Ω(n²/(δ+1)³k²) bound.
    fn is_minimal(&self) -> bool {
        true
    }

    /// Step (a): choose at most one resident packet per outlink; indices
    /// into `pkts`.
    ///
    /// For a minimal algorithm every scheduled direction must be profitable
    /// for its packet (engine-enforced).
    fn outqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &[DxView],
        out: &mut [Option<usize>; 4],
    );

    /// Step (c): decide which scheduled arrivals to accept.
    fn inqueue(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        residents: &[DxView],
        arrivals: &[Arrival<DxView>],
        accept: &mut [bool],
    );

    /// Step (e): update node state and resident packet states. The mutable
    /// state access is mediated: the callback receives the restricted views
    /// plus a parallel slice of state words to rewrite.
    fn end_of_step(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        residents: &[DxView],
        states: &mut [u64],
    ) {
        let _ = (step, node, state, residents, states);
    }

    /// See [`Router::mask_capable`]. A [`PackedView`] carries strictly less
    /// than a [`DxView`] (no id, source, or state word), so a packed policy
    /// is destination-exchangeable by construction.
    fn mask_capable(&self) -> bool {
        false
    }

    /// See [`Router::outqueue_packed`].
    fn outqueue_packed(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        pkts: &[PackedView],
        out: &mut [Option<usize>; 4],
    ) {
        let _ = (step, node, state, pkts, out);
        unreachable!("outqueue_packed called on a router that is not mask_capable");
    }

    /// See [`Router::inqueue_packed`].
    fn inqueue_packed(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        queue_lens: &[u32],
        arrivals: &[PackedArrival],
        accept: &mut [bool],
    ) {
        let _ = (step, node, state, queue_lens, arrivals, accept);
        unreachable!("inqueue_packed called on a router that is not mask_capable");
    }

    /// See [`Router::uses_end_of_step`].
    fn uses_end_of_step(&self) -> bool {
        true
    }
}

/// Adapter running a [`DxRouter`] as a [`Router`] by projecting every view
/// down to the destination-free [`DxView`]. The engine stays monomorphic;
/// the restriction is purely in what crosses this boundary.
pub struct Dx<R> {
    pub inner: R,
    // Projection scratch, reused across calls. `Cell` + take/set (instead
    // of `RefCell`) keeps a policy that re-enters the adapter safe: the
    // inner call simply sees an empty buffer and the outer one wins the
    // put-back.
    residents: Cell<Vec<DxView>>,
    arrivals: Cell<Vec<Arrival<DxView>>>,
}

impl<R> Dx<R> {
    /// Wraps a destination-exchangeable router for execution.
    pub fn new(inner: R) -> Dx<R> {
        Dx {
            inner,
            residents: Cell::default(),
            arrivals: Cell::default(),
        }
    }
}

impl<R: DxRouter> Router for Dx<R> {
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
        let mut buf = self.residents.take();
        buf.clear();
        buf.extend(pkts.iter().map(FullView::dx));
        self.inner.outqueue(step, node, state, &buf, out);
        self.residents.set(buf);
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
        let mut rbuf = self.residents.take();
        rbuf.clear();
        rbuf.extend(residents.iter().map(FullView::dx));
        let mut abuf = self.arrivals.take();
        abuf.clear();
        abuf.extend(arrivals.iter().map(|a| Arrival {
            view: a.view.dx(),
            travel: a.travel,
        }));
        self.inner.inqueue(step, node, state, &rbuf, &abuf, accept);
        self.residents.set(rbuf);
        self.arrivals.set(abuf);
    }

    fn end_of_step(
        &self,
        step: u64,
        node: Coord,
        state: &mut Self::NodeState,
        residents: &[FullView],
        states: &mut [u64],
    ) {
        let mut rbuf = self.residents.take();
        rbuf.clear();
        rbuf.extend(residents.iter().map(FullView::dx));
        self.inner.end_of_step(step, node, state, &rbuf, states);
        self.residents.set(rbuf);
    }

    // The packed fast path forwards without any projection: a PackedView is
    // already destination-free, so there is nothing to strip and no
    // scratch copy to pay for.

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

    fn uses_end_of_step(&self) -> bool {
        self.inner.uses_end_of_step()
    }
}
