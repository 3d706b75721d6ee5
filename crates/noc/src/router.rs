//! The virtual-channel wormhole router.
//!
//! Each router executes two phases per cycle:
//!
//! 1. **compute** ([`Router::phase_compute`]) — reads incoming flit/credit
//!    wires (immutable access to the shared [`Wires`]), then runs the
//!    pipeline stages in *reverse* order (SA/ST, then VA, then RC) so a flit
//!    advances at most one stage per cycle: a head flit arriving at cycle
//!    `t` route-computes at `t`, gets a VC at `t+1`, and traverses the
//!    switch at `t+2`, giving the classic 3-cycle router + link latency per
//!    hop while body flits stream at one flit per cycle.
//! 2. **send** ([`Router::phase_send`]) — moves the flit/credit staged by
//!    compute onto this router's own outgoing wires.
//!
//! Compute only *reads* other routers' wires and only *writes* its own
//! state; send only writes the router's own wires. The bulk-synchronous
//! parallel engine in `ra-gpu` exploits exactly this contract.
//!
//! # Hot-path layout
//!
//! Per-VC state is stored struct-of-arrays (`vc_buf`, `vc_out_port`, …),
//! and the state of each input VC lives in per-port bitmasks ([`VcMask`],
//! one `u64` word per 64 VCs, so the largest configuration of 192 VCs per
//! port takes three words): `nonempty` (the buffer holds a flit), `routed`
//! (route computed, waiting for an output VC) and `active` (output VC
//! held). A VC in neither `routed` nor `active` is idle. The masks are
//! written only where a buffer is pushed or popped or a VC changes state,
//! and each allocator stage walks only the set bits it cares about:
//! route computation walks idle non-empty VCs, VC allocation walks
//! `routed` in its round-robin order, switch allocation nominates from
//! `active & nonempty` and grants each output from a bitmask of the input
//! ports requesting it. Under typical traffic a live router holds one or
//! two occupied VCs, so a step costs a few word operations per port
//! instead of a scan over every VC. All per-cycle temporaries of the
//! switch allocator live in scratch vectors owned by the router — the
//! steady-state step path performs **zero heap allocations** (enforced by
//! the counting-allocator test in `tests/no_alloc.rs`).
//!
//! # Clock gating
//!
//! A quiescent router (no buffered flits, no NI backlog, no staged output)
//! computes nothing and sends nothing, so the engines skip it entirely
//! (see [`NocNetwork`](crate::NocNetwork)). Skipping must be invisible to
//! simulated results: the only per-cycle state an idle router would still
//! mutate is the VC-allocation round-robin pointer, so
//! [`phase_compute`](Router::phase_compute) fast-forwards that pointer by
//! the number of skipped cycles on wake-up, making gated and ungated
//! schedules bit-identical.

use std::collections::VecDeque;

use ra_sim::{MessageClass, Pcg32};

use crate::config::{NocConfig, Routing, TopologyKind};
use crate::fault::FaultState;
use crate::flit::{Flit, FlitKind, PacketId};
use crate::stats::FaultStats;
use crate::topology::TopologyMap;
use crate::wire::{Credit, Wire, Wires};

/// Sentinel for "no input VC" in the output-VC owner table.
const NONE_IDX: u32 = u32::MAX;

/// One word of an input port's VC masks: bit `b` of word `w` is VC
/// `64 * w + b`. `routed` and `active` are disjoint; a VC in neither is
/// idle (empty, or waiting for route computation).
#[derive(Debug, Clone, Copy, Default)]
struct VcMask {
    /// The VC buffer holds at least one flit.
    nonempty: u64,
    /// Route computed; waiting for an output VC.
    routed: u64,
    /// Output VC allocated; flits may traverse the switch.
    active: u64,
}

/// Word-granular round-robin walk over a bitmap of `words` words, starting
/// at bit `start`: yields `(word, keep)` pairs covering the bits from
/// `start` up, then every following word (wrapping), and last the bits of
/// the start word below `start`. Set bits visited in that order are the
/// bits of a `(start + k) % (64 * words)` scan.
struct RotatedWords {
    words: u32,
    first: u32,
    below_start: u64,
    k: u32,
}

fn rotated_words(words: u32, start: u32) -> RotatedWords {
    RotatedWords {
        words,
        first: start / 64,
        below_start: (1u64 << (start % 64)) - 1,
        k: 0,
    }
}

impl Iterator for RotatedWords {
    type Item = (usize, u64);

    #[inline]
    fn next(&mut self) -> Option<(usize, u64)> {
        let k = self.k;
        if k > self.words {
            return None;
        }
        self.k += 1;
        let w = self.first + k;
        let w = if w >= self.words { w - self.words } else { w };
        let keep = if k == 0 {
            !self.below_start
        } else if k == self.words {
            self.below_start
        } else {
            !0
        };
        Some((w as usize, keep))
    }
}

/// A packet waiting in a node interface source queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct PendingPacket {
    pub pkt: PacketId,
    pub dst_router: u16,
    pub dst_local: u8,
    pub flits: u32,
}

/// An injection in progress: the NI is streaming this packet's flits into a
/// local input VC.
#[derive(Debug, Clone, Copy)]
struct ActiveInjection {
    vc: u32,
    sent: u32,
    total: u32,
    template: Flit,
}

/// The network interface of one endpoint, attached to a local router port.
#[derive(Debug, Clone)]
struct LocalIface {
    queues: Vec<VecDeque<PendingPacket>>, // one per vnet
    cur: Vec<Option<ActiveInjection>>,    // one per vnet
    vnet_rr: u32,
    rng: Pcg32,
}

/// Counters a single router accumulates; merged by the network each cycle.
#[derive(Debug, Clone, Default)]
pub struct RouterStats {
    /// Flits sent per output port (locals included; locals count ejections).
    pub flits_out: Vec<u64>,
    /// Buffer writes (flits received from links or injected by the NI).
    pub buffer_writes: u64,
    /// Buffer reads (flits removed during switch traversal).
    pub buffer_reads: u64,
    /// Successful VC allocations.
    pub vc_allocs: u64,
    /// Successful switch allocations (equals crossbar traversals).
    pub sa_grants: u64,
    /// Flits placed on inter-router links (excludes ejections).
    pub link_flits: u64,
    /// True if any flit moved this cycle (deadlock watchdog input).
    pub active: bool,
}

/// A virtual-channel wormhole router plus the network interfaces of its
/// attached endpoints.
#[derive(Debug, Clone)]
pub struct Router {
    id: u32,
    ports: u32,
    locals: u32,
    vnets: u32,
    vcs_per_vnet: u32,
    total_vcs: u32,
    /// Mask words per input port: `total_vcs.div_ceil(64)`.
    mask_words: u32,
    vc_depth: u32,
    routing: Routing,
    torus: bool,
    // --- per-VC state, struct-of-arrays, indexed `port * total_vcs + vc` ---
    /// Input VC buffers. Capacity is reserved to `vc_depth` up front and
    /// occupancy never exceeds it, so pushes never reallocate.
    vc_buf: Vec<VecDeque<Flit>>,
    vc_out_port: Vec<u32>,
    vc_out_vc: Vec<u32>,
    /// Dateline class the packet will use on the next link.
    vc_next_class: Vec<u8>,
    /// Credit count of each output VC (the downstream input buffer).
    ovc_credits: Vec<u32>,
    /// Flattened input-VC index owning each output VC ([`NONE_IDX`] = free).
    ovc_owner: Vec<u32>,
    // --- per-port state ---
    /// VC state masks, indexed `port * mask_words + vc / 64`.
    vc_mask: Vec<VcMask>,
    out_staging: Vec<Option<Flit>>,
    credit_staging: Vec<Option<Credit>>,
    ni: Vec<LocalIface>,
    va_ptr: u32,
    sa_vc_ptr: Vec<u32>,
    sa_port_ptr: Vec<u32>,
    // --- allocator scratch, reused every cycle (never reallocated) ---
    /// Per input port: the VC it nominated this cycle (valid only for the
    /// ports set in `sa_requests`).
    sa_candidate: Vec<u32>,
    /// Per output port: bitmask of the input ports requesting it this
    /// cycle. All zero between cycles: the grant loop takes each word.
    sa_requests: Vec<u32>,
    // --- activity bookkeeping (clock gating) ---
    /// Flits currently buffered in input VCs.
    buffered: u32,
    /// NI backlog: queued packets plus in-progress injections.
    ni_work: u32,
    /// Staged flits + credits awaiting `phase_send`.
    staged: u32,
    /// The next cycle this router expects `phase_compute` for; used to
    /// fast-forward the VA round-robin pointer over gated-off cycles.
    clock: u64,
    /// Total `phase_compute` invocations (gating regression tests).
    compute_calls: u64,
    /// Ports on which the last `phase_send` put a flit on the wire.
    sent_flit_mask: u32,
    /// Ports on which the last `phase_send` put a credit on the wire.
    sent_credit_mask: u32,
    /// Packets ejected this cycle: `(packet, cycle)`.
    pub(crate) delivered: Vec<(PacketId, u64)>,
    /// Packets whose head flit entered the network this cycle.
    pub(crate) net_started: Vec<(PacketId, u64)>,
    /// Per-cycle counters, drained by the network.
    pub(crate) stats: RouterStats,
    /// Expanded fault script touching this router (None = fault-free).
    fault: Option<FaultState>,
    /// Fault events since the network last drained them.
    fault_events: FaultStats,
    /// First invariant violation observed, if any. Instead of panicking
    /// mid-phase (which would poison the parallel engine's shared state),
    /// the router records the violation and keeps limping along; the
    /// network converts it into a structured
    /// [`SimError::Invariant`](ra_sim::SimError) at the cycle boundary.
    invariant: Option<String>,
    /// Test hook: panic on the next `phase_compute`.
    debug_panic: bool,
}

impl Router {
    /// Builds router `id` for the given configuration and topology.
    pub(crate) fn new(id: u32, cfg: &NocConfig, topo: &TopologyMap, seed: u64) -> Self {
        let ports = topo.ports();
        let locals = topo.concentration();
        let vnets = MessageClass::COUNT as u32;
        let total_vcs = vnets * cfg.vcs_per_vnet;
        let mask_words = total_vcs.div_ceil(64);
        let n_vcs = (ports * total_vcs) as usize;
        let mut rng = Pcg32::new(seed, u64::from(id) * 2 + 1);
        let fault = FaultState::for_router(&cfg.faults, id, topo, cfg.seed);
        let ni = (0..locals)
            .map(|l| {
                LocalIface {
                    queues: (0..vnets).map(|_| VecDeque::new()).collect(),
                    cur: vec![None; vnets as usize],
                    vnet_rr: 0,
                    rng: rng.fork(u64::from(l)),
                }
            })
            .collect();
        Router {
            id,
            ports,
            locals,
            vnets,
            vcs_per_vnet: cfg.vcs_per_vnet,
            total_vcs,
            mask_words,
            vc_depth: cfg.vc_depth,
            routing: cfg.routing,
            torus: matches!(cfg.topology, TopologyKind::Torus),
            vc_buf: (0..n_vcs)
                .map(|_| VecDeque::with_capacity(cfg.vc_depth as usize))
                .collect(),
            vc_out_port: vec![0; n_vcs],
            vc_out_vc: vec![0; n_vcs],
            vc_next_class: vec![0; n_vcs],
            ovc_credits: vec![cfg.vc_depth; n_vcs],
            ovc_owner: vec![NONE_IDX; n_vcs],
            vc_mask: vec![VcMask::default(); (ports * mask_words) as usize],
            out_staging: vec![None; ports as usize],
            credit_staging: vec![None; ports as usize],
            ni,
            va_ptr: 0,
            sa_vc_ptr: vec![0; ports as usize],
            sa_port_ptr: vec![0; ports as usize],
            sa_candidate: vec![0; ports as usize],
            sa_requests: vec![0; ports as usize],
            buffered: 0,
            ni_work: 0,
            staged: 0,
            clock: 0,
            compute_calls: 0,
            sent_flit_mask: 0,
            sent_credit_mask: 0,
            delivered: Vec::new(),
            net_started: Vec::new(),
            stats: RouterStats {
                flits_out: vec![0; ports as usize],
                ..RouterStats::default()
            },
            fault,
            fault_events: FaultStats::default(),
            invariant: None,
            debug_panic: false,
        }
    }

    /// This router's index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Cumulative event counters (energy-model inputs).
    pub fn event_counts(&self) -> &RouterStats {
        &self.stats
    }

    #[inline]
    fn ivc_index(&self, port: u32, vc: u32) -> usize {
        (port * self.total_vcs + vc) as usize
    }

    /// The mask word index and bit of input VC `(port, vc)`.
    #[inline]
    fn mask_bit(&self, port: u32, vc: u32) -> (usize, u64) {
        ((port * self.mask_words + vc / 64) as usize, 1 << (vc % 64))
    }

    /// Appends `flit` to input VC `(port, vc)`, setting its `nonempty` bit
    /// and counting the buffer write.
    #[inline]
    fn push_flit(&mut self, port: u32, vc: u32, flit: Flit) {
        let idx = self.ivc_index(port, vc);
        self.vc_buf[idx].push_back(flit);
        let (w, bit) = self.mask_bit(port, vc);
        self.vc_mask[w].nonempty |= bit;
        self.buffered += 1;
        self.stats.buffer_writes += 1;
    }

    /// Removes the front flit of input VC `(port, vc)`, clearing its
    /// `nonempty` bit when the buffer drains. Counts no buffer read: the
    /// caller decides whether the removal is a switch traversal.
    #[inline]
    fn pop_flit(&mut self, port: u32, vc: u32) -> Option<Flit> {
        let idx = self.ivc_index(port, vc);
        let flit = self.vc_buf[idx].pop_front()?;
        if self.vc_buf[idx].is_empty() {
            let (w, bit) = self.mask_bit(port, vc);
            self.vc_mask[w].nonempty &= !bit;
        }
        self.buffered -= 1;
        Some(flit)
    }

    /// Queues a packet at the node interface of `local` port.
    pub(crate) fn enqueue_packet(&mut self, local: u32, vnet: usize, pending: PendingPacket) {
        self.ni[local as usize].queues[vnet].push_back(pending);
        self.ni_work += 1;
    }

    /// Total flits buffered in this router's input VCs.
    pub fn buffered_flits(&self) -> usize {
        self.buffered as usize
    }

    /// Packets waiting or streaming at this router's node interfaces.
    pub fn ni_backlog(&self) -> usize {
        self.ni_work as usize
    }

    /// True if this router has anything to do on its own: buffered flits,
    /// NI backlog, or staged wire output. A router with no work can only be
    /// re-activated by an in-flight wire value, which the network tracks
    /// through its wake set.
    #[inline]
    pub fn has_work(&self) -> bool {
        // An armed debug panic counts as work so the fault-injection tests
        // still fire under clock gating.
        self.buffered | self.ni_work | self.staged != 0 || self.debug_panic
    }

    /// True if a fault script touches this router. Fault-scripted routers
    /// are never clock-gated: scripted stalls must burn (and count) every
    /// cycle exactly as an ungated run would.
    #[inline]
    pub fn is_fault_scripted(&self) -> bool {
        self.fault.is_some()
    }

    /// Total `phase_compute` invocations over the router's lifetime.
    pub fn compute_invocations(&self) -> u64 {
        self.compute_calls
    }

    /// Ports on which the last [`phase_send`](Router::phase_send) placed a
    /// flit on the wire (bit `p` = port `p`).
    #[inline]
    pub fn sent_flit_mask(&self) -> u32 {
        self.sent_flit_mask
    }

    /// Ports on which the last [`phase_send`](Router::phase_send) placed a
    /// credit on the wire.
    #[inline]
    pub fn sent_credit_mask(&self) -> u32 {
        self.sent_credit_mask
    }

    /// Whether the last [`phase_compute`](Router::phase_compute) moved any
    /// flit (the network's progress/watchdog signal).
    #[inline]
    pub fn was_active(&self) -> bool {
        self.stats.active
    }

    /// Whether any flit or credit is staged for the send phase. Staging is
    /// created in `phase_compute` and consumed by `phase_send` of the same
    /// cycle, so engines may skip the send phase of routers with nothing
    /// staged.
    #[inline]
    pub fn has_staged(&self) -> bool {
        self.staged != 0
    }

    /// Re-aligns the gating clock after the *network* clock jumped without
    /// simulating (`skip_to`): jumped-over cycles were never simulated by
    /// any engine, so they must not be fast-forwarded over either.
    pub(crate) fn resync_clock(&mut self, cycle: u64) {
        self.clock = cycle;
    }

    /// Records the first invariant violation; later ones are dropped (the
    /// first is almost always the root cause).
    fn poison(&mut self, msg: String) {
        if self.invariant.is_none() {
            self.invariant = Some(msg);
        }
    }

    /// Whether the channel at `port` is dead at `now`.
    #[inline]
    fn link_dead(&self, port: u32, now: u64) -> bool {
        match &self.fault {
            Some(f) => f.link_dead(port as usize, now),
            None => false,
        }
    }

    /// Takes the pending invariant violation, if any.
    pub(crate) fn take_invariant(&mut self) -> Option<String> {
        self.invariant.take()
    }

    /// Takes the fault events recorded since the last drain.
    pub(crate) fn take_fault_events(&mut self) -> FaultStats {
        std::mem::take(&mut self.fault_events)
    }

    /// Cross-checks this router's internal bookkeeping: credit counts stay
    /// within buffer depth, buffers stay within depth, the VC masks agree
    /// with the buffers and with each other, output-VC ownership and active
    /// input VCs point at each other, and the clock-gating work counters
    /// agree with the state they summarize.
    pub(crate) fn audit(&self) -> Result<(), String> {
        for port in 0..self.ports {
            for vc in 0..self.total_vcs {
                let idx = self.ivc_index(port, vc);
                if self.ovc_credits[idx] > self.vc_depth {
                    return Err(format!(
                        "output vc ({port},{vc}) holds {} credits, depth {}",
                        self.ovc_credits[idx], self.vc_depth
                    ));
                }
                let owner = self.ovc_owner[idx];
                if owner != NONE_IDX {
                    let in_port = owner / self.total_vcs;
                    let owner_active = in_port < self.ports && {
                        let (w, bit) = self.mask_bit(in_port, owner % self.total_vcs);
                        self.vc_mask[w].active & bit != 0
                    };
                    if !owner_active
                        || self.vc_out_port[owner as usize] != port
                        || self.vc_out_vc[owner as usize] != vc
                    {
                        return Err(format!(
                            "output vc ({port},{vc}) owned by input vc {owner}, \
                             which is not active towards it"
                        ));
                    }
                }
                let (w, bit) = self.mask_bit(port, vc);
                let m = self.vc_mask[w];
                let front = self.vc_buf[idx].front();
                let mask_error = if (m.nonempty & bit != 0) != front.is_some() {
                    Some("nonempty bit disagrees with the buffer")
                } else if m.routed & m.active & bit != 0 {
                    Some("both routed and active")
                } else if m.routed & bit != 0 && !front.is_some_and(|f| f.kind.is_head()) {
                    Some("routed without a head flit at the front")
                } else if m.active & bit != 0 {
                    let out_idx = self.ivc_index(self.vc_out_port[idx], self.vc_out_vc[idx]);
                    (self.ovc_owner.get(out_idx) != Some(&(idx as u32)))
                        .then_some("active without owning its output vc")
                } else {
                    None
                };
                if let Some(what) = mask_error {
                    return Err(format!("input vc ({port},{vc}) {what}"));
                }
                if self.vc_buf[idx].len() > self.vc_depth as usize {
                    return Err(format!(
                        "input vc ({port},{vc}) buffers {} flits, depth {}",
                        self.vc_buf[idx].len(),
                        self.vc_depth
                    ));
                }
            }
        }
        let used = u64::MAX >> (64 * self.mask_words - self.total_vcs);
        for (w, m) in self.vc_mask.iter().enumerate() {
            let valid = if (w as u32 + 1).is_multiple_of(self.mask_words) {
                used
            } else {
                !0
            };
            if (m.nonempty | m.routed | m.active) & !valid != 0 {
                return Err(format!(
                    "vc mask word {w} has bits beyond {} vcs",
                    self.total_vcs
                ));
            }
        }
        let buffered: usize = self.vc_buf.iter().map(VecDeque::len).sum();
        if buffered != self.buffered as usize {
            return Err(format!(
                "buffered-flit counter {} disagrees with buffers ({buffered})",
                self.buffered
            ));
        }
        let ni_work: usize = self
            .ni
            .iter()
            .map(|ni| {
                ni.queues.iter().map(VecDeque::len).sum::<usize>()
                    + ni.cur.iter().flatten().count()
            })
            .sum();
        if ni_work != self.ni_work as usize {
            return Err(format!(
                "NI work counter {} disagrees with backlog ({ni_work})",
                self.ni_work
            ));
        }
        let staged = self.out_staging.iter().flatten().count()
            + self.credit_staging.iter().flatten().count();
        if staged != self.staged as usize {
            return Err(format!(
                "staging counter {} disagrees with staged output ({staged})",
                self.staged
            ));
        }
        Ok(())
    }

    /// Test hook: the next `phase_compute` panics, simulating a crashing
    /// component inside an engine worker.
    #[doc(hidden)]
    pub fn debug_force_panic(&mut self) {
        self.debug_panic = true;
    }

    /// Test hook: corrupts credit bookkeeping so the next audit fails.
    #[doc(hidden)]
    pub fn debug_corrupt_credits(&mut self) {
        let idx = self.ivc_index(self.locals, 0);
        self.ovc_credits[idx] = self.vc_depth + 3;
    }

    /// Phase 1: consume wires, run SA/ST, VA, RC, and NI injection.
    ///
    /// A router frozen by a scripted [`RouterStall`](crate::FaultEvent)
    /// does nothing this cycle: it neither reads its wires (in-flight
    /// flits towards it expire unread and are lost upstream) nor stages
    /// anything to send.
    pub fn phase_compute(&mut self, topo: &TopologyMap, wires: &Wires, now: u64) {
        // Fast-forward the VA round-robin pointer over clock-gated cycles:
        // it is the only per-cycle state an idle router would still have
        // advanced, so catching it up here makes gated schedules
        // bit-identical to ungated ones.
        if now > self.clock {
            let skipped = now - self.clock;
            let n = u64::from(self.ports * self.total_vcs);
            self.va_ptr = ((u64::from(self.va_ptr) + skipped) % n) as u32;
        }
        self.clock = now + 1;
        self.compute_calls += 1;
        self.stats.active = false;
        if self.debug_panic {
            panic!("injected test panic in router {}", self.id);
        }
        if let Some(f) = &self.fault {
            if f.stalled(now) {
                self.fault_events.stall_cycles += 1;
                return;
            }
        }
        self.receive_credits(topo, wires, now);
        self.receive_flits(topo, wires, now);
        self.inject_from_ni(now);
        self.switch_allocate_and_traverse(now);
        self.vc_allocate();
        self.route_compute(topo);
    }

    /// Phase 2: publish staged flits and credits on this router's wires.
    ///
    /// `flit_wires` and `credit_wires` are the contiguous slices owned by
    /// this router (`ports` entries each). Idle ports skip the wire write
    /// entirely (wire slots are cycle-stamped, so no `None` scrubbing is
    /// needed), and the ports actually written are recorded in the sent
    /// masks for the engines' wake propagation.
    pub fn phase_send(
        &mut self,
        flit_wires: &mut [Wire<Flit>],
        credit_wires: &mut [Wire<Credit>],
        now: u64,
    ) {
        debug_assert_eq!(flit_wires.len(), self.ports as usize);
        debug_assert_eq!(credit_wires.len(), self.ports as usize);
        self.sent_flit_mask = 0;
        self.sent_credit_mask = 0;
        if self.staged == 0 {
            return;
        }
        for p in 0..self.ports as usize {
            let mut flit = self.out_staging[p].take();
            let mut credit = self.credit_staging[p].take();
            self.staged -= flit.is_some() as u32 + credit.is_some() as u32;
            // Link faults act at the channel: a dead link carries nothing
            // (flits and credit returns are lost), a flaky link drops
            // flits by a per-router deterministic coin flip.
            if let Some(fault) = self.fault.as_mut() {
                if fault.link_dead(p, now) {
                    if flit.take().is_some() {
                        self.fault_events.flits_dropped_dead += 1;
                    }
                    credit = None;
                } else if flit.is_some() && fault.flaky_drop(p, now) {
                    flit = None;
                    self.fault_events.flits_dropped_flaky += 1;
                }
            }
            if flit.is_some() {
                flit_wires[p].write(now, flit);
                self.sent_flit_mask |= 1 << p;
            }
            if credit.is_some() {
                credit_wires[p].write(now, credit);
                self.sent_credit_mask |= 1 << p;
            }
        }
    }

    /// Pulls credits sent upstream by downstream routers.
    fn receive_credits(&mut self, topo: &TopologyMap, wires: &Wires, now: u64) {
        for port in self.locals..self.ports {
            if self.link_dead(port, now) {
                continue; // dead channels return no credits
            }
            if let Some((dst_router, dst_in_port)) = topo.link_dst(self.id, port) {
                let wire = &wires.credits[wires.index(dst_router, dst_in_port)];
                if let Some(vc) = wire.read(now) {
                    let idx = self.ivc_index(port, u32::from(vc));
                    if self.ovc_credits[idx] >= self.vc_depth {
                        self.poison(format!(
                            "credit overflow on router {} port {port} vc {vc}",
                            self.id
                        ));
                        continue;
                    }
                    self.ovc_credits[idx] += 1;
                }
            }
        }
    }

    /// Pulls flits sent by upstream routers into input buffers.
    fn receive_flits(&mut self, topo: &TopologyMap, wires: &Wires, now: u64) {
        for port in self.locals..self.ports {
            if self.link_dead(port, now) {
                // Flits in transit when the channel died expire unread.
                if let Some((src_router, src_out_port)) = topo.link_src(self.id, port) {
                    let wire = &wires.flits[wires.index(src_router, src_out_port)];
                    if wire.read(now).is_some() {
                        self.fault_events.flits_dropped_dead += 1;
                    }
                }
                continue;
            }
            if let Some((src_router, src_out_port)) = topo.link_src(self.id, port) {
                let wire = &wires.flits[wires.index(src_router, src_out_port)];
                if let Some(flit) = wire.read(now) {
                    let vc = u32::from(flit.vc);
                    let idx = self.ivc_index(port, vc);
                    let depth = self.vc_depth as usize;
                    if self.vc_buf[idx].len() >= depth {
                        self.poison(format!(
                            "buffer overflow: credits out of sync on router {} port {port} vc {}",
                            self.id, flit.vc
                        ));
                        continue;
                    }
                    self.push_flit(port, vc, flit);
                    self.stats.active = true;
                }
            }
        }
    }

    /// Node interfaces stream one flit per local port per cycle.
    fn inject_from_ni(&mut self, now: u64) {
        for local in 0..self.locals {
            // Continue an in-progress injection or start a new packet,
            // round-robining across virtual networks so one protocol class
            // cannot starve another at the injection point.
            let li = local as usize;
            let vnets = self.vnets;
            let start = self.ni[li].vnet_rr;
            for k in 0..vnets {
                let v = ((start + k) % vnets) as usize;
                if let Some(mut inj) = self.ni[li].cur[v] {
                    let idx = self.ivc_index(local, inj.vc);
                    if self.vc_buf[idx].len() < self.vc_depth as usize {
                        let mut flit = inj.template;
                        flit.kind = kind_at(inj.sent, inj.total);
                        flit.vc = inj.vc as u8;
                        self.push_flit(local, inj.vc, flit);
                        inj.sent += 1;
                        if inj.sent == inj.total {
                            self.ni[li].cur[v] = None;
                            self.ni_work -= 1;
                        } else {
                            self.ni[li].cur[v] = Some(inj);
                        }
                        if flit.kind.is_head() {
                            self.net_started.push((flit.pkt, now));
                        }
                        self.stats.active = true;
                        self.ni[li].vnet_rr = (start + k + 1) % vnets;
                        break;
                    }
                } else if !self.ni[li].queues[v].is_empty() {
                    // Find a free local input VC in this vnet's band.
                    let base = v as u32 * self.vcs_per_vnet;
                    let free = (base..base + self.vcs_per_vnet).find(|&vc| {
                        let (w, bit) = self.mask_bit(local, vc);
                        let m = self.vc_mask[w];
                        (m.nonempty | m.routed | m.active) & bit == 0
                    });
                    if let Some(vc) = free {
                        let Some(pending) = self.ni[li].queues[v].pop_front() else {
                            self.poison(format!(
                                "NI queue emptied under us on router {} local {local} vnet {v}",
                                self.id
                            ));
                            continue;
                        };
                        let route_hint = if matches!(self.routing, Routing::O1Turn) {
                            (self.ni[li].rng.next_u32() & 1) as u8
                        } else {
                            0
                        };
                        let template = Flit {
                            pkt: pending.pkt,
                            dst_router: pending.dst_router,
                            dst_local: pending.dst_local,
                            vnet: v as u8,
                            kind: FlitKind::Head,
                            vc: vc as u8,
                            class_bit: 0,
                            route_hint,
                        };
                        let mut inj = ActiveInjection {
                            vc,
                            sent: 0,
                            total: pending.flits,
                            template,
                        };
                        let mut flit = template;
                        flit.kind = kind_at(0, inj.total);
                        self.push_flit(local, vc, flit);
                        inj.sent = 1;
                        // The queue slot (counted in `ni_work`) becomes an
                        // active injection (also counted) unless the packet
                        // was a single flit and is already fully streamed.
                        if inj.sent == inj.total {
                            self.ni[li].cur[v] = None;
                            self.ni_work -= 1;
                        } else {
                            self.ni[li].cur[v] = Some(inj);
                        }
                        self.net_started.push((flit.pkt, now));
                        self.stats.active = true;
                        self.ni[li].vnet_rr = (start + k + 1) % vnets;
                        break;
                    }
                }
            }
        }
    }

    /// Switch allocation + switch traversal: one grant per input port, one
    /// per output port, round-robin priorities, traversal in the same cycle.
    ///
    /// Each input port nominates the first `active & nonempty` VC at or
    /// after its `sa_vc_ptr` whose output has a credit, and sets its bit in
    /// the request mask of that output. Each requested output then grants
    /// the first requesting input port at or after its `sa_port_ptr`; an
    /// input port nominates a single `(vc, out)` pair, so it wins at most
    /// one output. Outputs nobody requested cost nothing. All temporaries
    /// live in the router-owned scratch tables — this is the per-cycle hot
    /// path and it must not allocate.
    fn switch_allocate_and_traverse(&mut self, now: u64) {
        let mut requested_outs = 0u32;
        for port in 0..self.ports {
            let base = (port * self.mask_words) as usize;
            'nominate: for (w, keep) in
                rotated_words(self.mask_words, self.sa_vc_ptr[port as usize])
            {
                let m = self.vc_mask[base + w];
                let mut ready = m.active & m.nonempty & keep;
                while ready != 0 {
                    let vc = w as u32 * 64 + ready.trailing_zeros();
                    ready &= ready - 1;
                    let idx = self.ivc_index(port, vc);
                    let out_port = self.vc_out_port[idx];
                    if out_port >= self.locals
                        && self.ovc_credits[self.ivc_index(out_port, self.vc_out_vc[idx])] == 0
                    {
                        continue;
                    }
                    self.sa_candidate[port as usize] = vc;
                    self.sa_requests[out_port as usize] |= 1 << port;
                    requested_outs |= 1 << out_port;
                    break 'nominate;
                }
            }
        }
        // Grants depend only on the nominations and each output's own
        // pointer, so granting and traversing output by output (ascending)
        // matches granting every output first.
        while requested_outs != 0 {
            let out_port = requested_outs.trailing_zeros();
            requested_outs &= requested_outs - 1;
            let requests = std::mem::take(&mut self.sa_requests[out_port as usize]);
            let from_ptr = requests & (!0u32 << self.sa_port_ptr[out_port as usize]);
            let in_port = if from_ptr != 0 { from_ptr } else { requests }.trailing_zeros();
            self.sa_port_ptr[out_port as usize] = (in_port + 1) % self.ports;
            self.traverse(in_port, out_port, now);
        }
    }

    /// Switch traversal of the front flit of `in_port`'s nominated VC to
    /// `out_port`, which granted it.
    fn traverse(&mut self, in_port: u32, out_port: u32, now: u64) {
        let vc = self.sa_candidate[in_port as usize];
        self.sa_vc_ptr[in_port as usize] = (vc + 1) % self.total_vcs;
        let in_idx = self.ivc_index(in_port, vc);
        let (out_vc, next_class) = (self.vc_out_vc[in_idx], self.vc_next_class[in_idx]);
        let Some(mut flit) = self.pop_flit(in_port, vc) else {
            self.poison(format!(
                "switch traversal from an empty VC on router {} port {in_port} vc {vc}",
                self.id
            ));
            return;
        };
        self.stats.buffer_reads += 1;
        self.stats.sa_grants += 1;
        flit.vc = out_vc as u8;
        flit.class_bit = next_class;
        let is_local_out = out_port < self.locals;
        let out_idx = self.ivc_index(out_port, out_vc);
        if flit.kind.is_tail() {
            let (w, bit) = self.mask_bit(in_port, vc);
            self.vc_mask[w].active &= !bit;
            self.ovc_owner[out_idx] = NONE_IDX;
        }
        if is_local_out {
            if flit.kind.is_tail() {
                self.delivered.push((flit.pkt, now));
            }
        } else {
            if self.ovc_credits[out_idx] == 0 {
                self.poison(format!(
                    "switch traversal without a credit on router {} out-port {out_port} \
                     vc {out_vc}",
                    self.id
                ));
            } else {
                self.ovc_credits[out_idx] -= 1;
            }
            debug_assert!(self.out_staging[out_port as usize].is_none());
            self.out_staging[out_port as usize] = Some(flit);
            self.staged += 1;
            self.stats.link_flits += 1;
        }
        self.stats.flits_out[out_port as usize] += 1;
        self.stats.active = true;
        // Return a credit upstream (links only; the NI watches buffer
        // occupancy directly).
        if in_port >= self.locals {
            debug_assert!(self.credit_staging[in_port as usize].is_none());
            self.credit_staging[in_port as usize] = Some(vc as u8);
            self.staged += 1;
        }
    }

    /// VC allocation: routed input VCs claim a free output VC, visited in
    /// the round-robin order of a `(va_ptr + k) % (ports * total_vcs)`
    /// scan over flattened `port * total_vcs + vc` indices.
    fn vc_allocate(&mut self) {
        let (tv, words) = (self.total_vcs, self.mask_words);
        let start = (self.va_ptr / tv) * words * 64 + self.va_ptr % tv;
        for (w, keep) in rotated_words(self.ports * words, start) {
            let mut routed = self.vc_mask[w].routed & keep;
            let port = w as u32 / words;
            let vc_base = (w as u32 % words) * 64;
            while routed != 0 {
                let vc = vc_base + routed.trailing_zeros();
                routed &= routed - 1;
                self.allocate_output_vc(port, vc);
            }
        }
        self.va_ptr = (self.va_ptr + 1) % (self.ports * tv);
    }

    /// Tries to give routed input VC `(port, vc)` a free output VC.
    fn allocate_output_vc(&mut self, port: u32, vc: u32) {
        let idx = self.ivc_index(port, vc);
        let (w, bit) = self.mask_bit(port, vc);
        let Some(&head) = self.vc_buf[idx].front() else {
            self.poison(format!(
                "routed VC lost its head flit on router {} (vc index {idx})",
                self.id
            ));
            self.vc_mask[w].routed &= !bit;
            return;
        };
        debug_assert!(head.kind.is_head());
        let (out_port, vnet, next_class, route_hint) = (
            self.vc_out_port[idx],
            u32::from(head.vnet),
            self.vc_next_class[idx],
            head.route_hint,
        );
        if let Some(out_vc) = self.pick_output_vc(out_port, vnet, next_class, route_hint) {
            let out_idx = self.ivc_index(out_port, out_vc);
            self.ovc_owner[out_idx] = idx as u32;
            self.vc_out_vc[idx] = out_vc;
            self.vc_mask[w].routed &= !bit;
            self.vc_mask[w].active |= bit;
            self.stats.vc_allocs += 1;
        }
    }

    /// Chooses a free output VC in the band permitted by vnet, torus
    /// dateline class, and O1TURN parity.
    fn pick_output_vc(&self, out_port: u32, vnet: u32, class: u8, hint: u8) -> Option<u32> {
        let base = vnet * self.vcs_per_vnet;
        let is_local_out = out_port < self.locals;
        let (lo, hi, step_parity) = if is_local_out {
            (base, base + self.vcs_per_vnet, None)
        } else if self.torus {
            let half = self.vcs_per_vnet / 2;
            if class == 1 {
                (base + half, base + self.vcs_per_vnet, None)
            } else {
                (base, base + half, None)
            }
        } else if matches!(self.routing, Routing::O1Turn) {
            (base, base + self.vcs_per_vnet, Some(u32::from(hint)))
        } else {
            (base, base + self.vcs_per_vnet, None)
        };
        (lo..hi).find(|&vc| {
            if let Some(parity) = step_parity {
                if (vc - base) % 2 != parity {
                    return false;
                }
            }
            self.ovc_owner[self.ivc_index(out_port, vc)] == NONE_IDX
        })
    }

    /// Route computation for the front flits of idle non-empty VCs, in
    /// ascending `(port, vc)` order.
    fn route_compute(&mut self, topo: &TopologyMap) {
        for w in 0..(self.ports * self.mask_words) as usize {
            let m = self.vc_mask[w];
            let mut idle = m.nonempty & !(m.routed | m.active);
            let port = w as u32 / self.mask_words;
            let vc_base = (w as u32 % self.mask_words) * 64;
            while idle != 0 {
                let vc = vc_base + idle.trailing_zeros();
                idle &= idle - 1;
                self.route_one(topo, port, vc);
            }
        }
    }

    /// Routes the head flit at the front of idle input VC `(port, vc)`.
    fn route_one(&mut self, topo: &TopologyMap, port: u32, vc: u32) {
        let idx = self.ivc_index(port, vc);
        let Some(&head) = self.vc_buf[idx].front() else {
            return;
        };
        if !head.kind.is_head() {
            if self.fault.is_some() {
                // Orphaned body/tail flit whose head was lost on a flaky
                // link upstream: discard it. Its buffer-slot credit is not
                // returned — lossy channels degrade permanently, same as
                // the drop in `phase_send`.
                self.pop_flit(port, vc);
                self.fault_events.flits_dropped_flaky += 1;
            } else {
                self.poison(format!(
                    "idle VC front is not a head flit on router {}, port {port}, vc {vc}",
                    self.id
                ));
            }
            return;
        }
        let decision = topo.route(self.id, &head);
        if topo.has_detours() && decision.out_port != topo.route_base(self.id, &head).out_port {
            // Steered off dimension order to dodge a dead link: a fault
            // survived by routing.
            self.fault_events.reroutes += 1;
        }
        let next_class = if decision.crosses_dateline {
            1
        } else if self.torus {
            // Entering a new ring (different dimension than the one the
            // flit arrived on, or fresh from the NI) resets the dateline
            // class.
            let out_dim = self.port_dim(decision.out_port);
            let in_dim = self.port_dim(port);
            match (in_dim, out_dim) {
                (_, None) => 0, // ejecting; class is irrelevant
                (None, Some(_)) => 0,
                (Some(i), Some(o)) if i != o => 0,
                _ => head.class_bit,
            }
        } else {
            0
        };
        self.vc_out_port[idx] = decision.out_port;
        self.vc_next_class[idx] = next_class;
        let (w, bit) = self.mask_bit(port, vc);
        self.vc_mask[w].routed |= bit;
    }

    /// Dimension of a directional port (X = `Some(1)`, Y = `Some(0)`),
    /// `None` for local ports.
    fn port_dim(&self, port: u32) -> Option<u8> {
        if port < self.locals {
            return None;
        }
        // Directions are N(+0), E(+1), S(+2), W(+3): E/W are X moves.
        Some(((port - self.locals) % 2) as u8)
    }
}

/// Kind of the `i`-th flit in a packet of `total` flits.
fn kind_at(i: u32, total: u32) -> FlitKind {
    match (i == 0, i + 1 == total) {
        (true, true) => FlitKind::HeadTail,
        (true, false) => FlitKind::Head,
        (false, true) => FlitKind::Tail,
        (false, false) => FlitKind::Body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::flit::flit_kinds;

    #[test]
    fn kind_at_matches_flit_kinds_iterator() {
        for total in 1..6 {
            let expect: Vec<_> = flit_kinds(total).collect();
            let got: Vec<_> = (0..total).map(|i| kind_at(i, total)).collect();
            assert_eq!(expect, got, "total {total}");
        }
    }

    fn mini_router() -> (Router, TopologyMap, NocConfig) {
        let cfg = NocConfig::new(2, 2).with_vcs_per_vnet(2).with_vc_depth(2);
        let topo = TopologyMap::new(&cfg);
        let r = Router::new(0, &cfg, &topo, 1);
        (r, topo, cfg)
    }

    #[test]
    fn fresh_router_is_quiescent() {
        let (r, _, _) = mini_router();
        assert_eq!(r.buffered_flits(), 0);
        assert_eq!(r.ni_backlog(), 0);
        assert_eq!(r.id(), 0);
        assert!(!r.has_work());
        assert_eq!(r.compute_invocations(), 0);
    }

    #[test]
    fn ni_injects_one_flit_per_cycle() {
        let (mut r, topo, cfg) = mini_router();
        let wires = Wires::new(topo.routers(), topo.ports(), cfg.link_latency);
        r.enqueue_packet(
            0,
            0,
            PendingPacket {
                pkt: 0,
                dst_router: 3,
                dst_local: 0,
                flits: 3,
            },
        );
        assert_eq!(r.ni_backlog(), 1);
        assert!(r.has_work(), "queued packet counts as work");
        r.phase_compute(&topo, &wires, 0);
        assert_eq!(r.buffered_flits(), 1);
        r.phase_compute(&topo, &wires, 1);
        // Cycle 1: NI injects body; head may also have moved to the switch,
        // so the buffer holds at most 2 flits and at least 1.
        assert!(r.buffered_flits() >= 1);
        assert!(r.net_started.len() == 1, "head logged once");
        assert_eq!(r.compute_invocations(), 2);
    }

    #[test]
    fn local_delivery_completes_without_links() {
        // Packet from node 0 to node 0: injected on the local port, routed
        // straight back out of the local port.
        let (mut r, topo, cfg) = mini_router();
        let wires = Wires::new(topo.routers(), topo.ports(), cfg.link_latency);
        r.enqueue_packet(
            0,
            0,
            PendingPacket {
                pkt: 7,
                dst_router: 0,
                dst_local: 0,
                flits: 1,
            },
        );
        let mut delivered_at = None;
        for now in 0..10 {
            r.phase_compute(&topo, &wires, now);
            if let Some(&(pkt, at)) = r.delivered.first() {
                assert_eq!(pkt, 7);
                delivered_at = Some(at);
                break;
            }
        }
        // Inject @0, RC @0, VA @1, ST @2.
        assert_eq!(delivered_at, Some(2));
    }

    #[test]
    fn work_counters_return_to_zero_after_delivery() {
        let (mut r, topo, cfg) = mini_router();
        let wires = Wires::new(topo.routers(), topo.ports(), cfg.link_latency);
        r.enqueue_packet(
            0,
            0,
            PendingPacket {
                pkt: 7,
                dst_router: 0,
                dst_local: 0,
                flits: 2,
            },
        );
        for now in 0..10 {
            r.phase_compute(&topo, &wires, now);
        }
        assert!(!r.delivered.is_empty());
        assert!(!r.has_work(), "delivered router must be gate-able");
        r.audit().unwrap();
    }

    #[test]
    fn gated_wakeup_matches_ungated_va_rotation() {
        // Two identical routers; one is "gated off" for idle cycles, the
        // other stepped every cycle. After the same traffic they must be in
        // the same allocator state — the delivery times of a later packet
        // prove it indirectly.
        let (mut gated, topo, cfg) = mini_router();
        let (mut free, _, _) = mini_router();
        let wires = Wires::new(topo.routers(), topo.ports(), cfg.link_latency);
        let pkt = PendingPacket {
            pkt: 1,
            dst_router: 0,
            dst_local: 0,
            flits: 2,
        };
        // Ungated: step every cycle 0..20, inject at 12.
        for now in 0..12 {
            free.phase_compute(&topo, &wires, now);
        }
        free.enqueue_packet(0, 0, pkt);
        for now in 12..24 {
            free.phase_compute(&topo, &wires, now);
        }
        // Gated: skip the idle prefix entirely.
        gated.enqueue_packet(0, 0, pkt);
        for now in 12..24 {
            gated.phase_compute(&topo, &wires, now);
        }
        assert_eq!(
            free.delivered, gated.delivered,
            "gating must not shift timing"
        );
    }

    #[test]
    fn rotated_words_visit_bits_in_modular_scan_order() {
        for words in 1..4u32 {
            let bits = 64 * words;
            // A sparse, irregular bitmap spanning every word.
            let map: Vec<u64> = (0..words as u64)
                .map(|w| 0x8000_0000_0000_0421u64.rotate_left(7 * w as u32) | (w << 17))
                .collect();
            let set = |b: u32| map[(b / 64) as usize] >> (b % 64) & 1 == 1;
            for start in 0..bits {
                let expect: Vec<u32> = (0..bits)
                    .map(|k| (start + k) % bits)
                    .filter(|&b| set(b))
                    .collect();
                let mut got = Vec::new();
                for (w, keep) in rotated_words(words, start) {
                    let mut m = map[w] & keep;
                    while m != 0 {
                        got.push(w as u32 * 64 + m.trailing_zeros());
                        m &= m - 1;
                    }
                }
                assert_eq!(got, expect, "words {words} start {start}");
            }
        }
    }

    #[test]
    fn audit_catches_a_stale_vc_mask_bit() {
        let (mut r, _, _) = mini_router();
        r.vc_mask[0].nonempty |= 1;
        let err = r.audit().unwrap_err();
        assert!(err.contains("nonempty"), "unexpected audit message: {err}");
        r.vc_mask[0].nonempty = 0;
        r.vc_mask[0].active |= 1 << 63;
        let err = r.audit().unwrap_err();
        assert!(err.contains("beyond"), "unexpected audit message: {err}");
    }

    #[test]
    fn audit_passes_fresh_and_catches_corruption() {
        let (mut r, _, _) = mini_router();
        assert!(r.audit().is_ok());
        assert!(r.take_invariant().is_none());
        r.debug_corrupt_credits();
        let err = r.audit().unwrap_err();
        assert!(err.contains("credits"), "unexpected audit message: {err}");
    }

    #[test]
    fn stalled_router_freezes_then_recovers() {
        use crate::fault::FaultPlan;
        let cfg = NocConfig::new(2, 2)
            .with_vcs_per_vnet(2)
            .with_vc_depth(2)
            .with_faults(FaultPlan::new().stall_router(0, 0, 5));
        let topo = TopologyMap::new(&cfg);
        let mut r = Router::new(0, &cfg, &topo, 1);
        let wires = Wires::new(topo.routers(), topo.ports(), cfg.link_latency);
        r.enqueue_packet(
            0,
            0,
            PendingPacket {
                pkt: 0,
                dst_router: 0,
                dst_local: 0,
                flits: 1,
            },
        );
        for now in 0..5 {
            r.phase_compute(&topo, &wires, now);
        }
        assert_eq!(r.buffered_flits(), 0, "stalled router injects nothing");
        assert_eq!(r.take_fault_events().stall_cycles, 5);
        for now in 5..15 {
            r.phase_compute(&topo, &wires, now);
        }
        assert!(!r.delivered.is_empty(), "delivers once the stall lifts");
    }

    #[test]
    fn multi_flit_local_delivery_serializes() {
        let (mut r, topo, cfg) = mini_router();
        let wires = Wires::new(topo.routers(), topo.ports(), cfg.link_latency);
        r.enqueue_packet(
            0,
            0,
            PendingPacket {
                pkt: 1,
                dst_router: 0,
                dst_local: 0,
                flits: 4,
            },
        );
        let mut delivered_at = None;
        for now in 0..20 {
            r.phase_compute(&topo, &wires, now);
            if let Some(&(_, at)) = r.delivered.first() {
                delivered_at = Some(at);
                break;
            }
        }
        // Head: inject@0, RC@0, VA@1, ST@2; tail injected @3 (1 flit/cycle),
        // streams through ST @5 (one per cycle behind the head).
        assert_eq!(delivered_at, Some(5));
    }
}
