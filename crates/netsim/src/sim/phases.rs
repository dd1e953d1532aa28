//! The phases of one tick around the router pipelines: 1 — clocks, island
//! dividers, the gating and fault state machines; 2 — packet generation
//! (one [`TrafficSpec::generate_tick`](crate::TrafficSpec::generate_tick)
//! call, which owns the RNG draw order — made here, or ahead of time on the
//! generation helper of a long call, whose batch for the tick is drained
//! instead; a source is touched only when a packet is emitted for it);
//! 3 — credit delivery; 5 — flit delivery;
//! 6 — injection from the pending-source worklist. A delivery phase is one
//! linear pass over the wheel slot due this cycle: there is no second place
//! a flit or credit in flight could be found. The worklist updates spread
//! over these phases — arrivals, deaths, recoveries, wakeups, fences — are
//! what [`check_invariants`](NocSimulation::check_invariants) recounts.

use super::pipeline::credit_receiver;
use super::{advance_island_clocks, Ahead, FlitInFlight, NocSimulation, Tick};
use crate::fault::{FaultState, FaultTransition};
use crate::flit::PacketId;
use crate::router::{CreditReturn, VcState, LOCAL_PORT};

impl NocSimulation {
    /// The power-gating state machine's per-cycle work, between the clock
    /// advance and the traffic phases: wakeups due this tick complete, sleep
    /// timers due this tick move still-idle routers into DrainWait, and
    /// DrainWait routers whose inbound channels have fully drained close
    /// their power gate.
    fn gating_phase(&mut self) {
        let NocSimulation {
            sources, inbound_flits, pending_sources, touched, islands, gating, ..
        } = self;
        for (island, domain) in islands.iter().enumerate() {
            if !domain.fires {
                continue;
            }
            gating.complete_wakeups(island, domain.local_cycle, |node| {
                if sources[node].has_pending_flits() {
                    pending_sources.insert(node);
                }
            });
        }
        for (island, domain) in islands.iter().enumerate() {
            if !domain.fires {
                continue;
            }
            gating.start_drains(island, domain.local_cycle, |node| {
                sources[node].has_pending_flits()
            });
        }
        // A router gates only when no flit can still reach it: nothing is in
        // flight towards it on a link or its injection channel. Fenced sends
        // can never change that, so gating is race-free within the cycle.
        gating.complete_drains(
            |island| islands[island].fires,
            |node| inbound_flits[node] == 0,
            |node| sources[node].has_pending_flits(),
            |island| islands[island].local_cycle,
            |node| touched.insert(node),
        );
    }

    /// The fault-injection machinery's per-cycle work, right after the
    /// gating phase: the fault state machine ticks on the base clock, then
    /// each transition is acted on. Link transitions need no action here —
    /// the blocked-port masks fence both directed channels and flits already
    /// on the wire still deliver. A router death purges the victim (every lost flit counted as
    /// dropped, one credit returned upstream per purged flit over the credit
    /// wheel, so neighbour and source credit accounting stays exact) and
    /// takes the flits to and from it off the wheel; a recovery discards
    /// stale inbound credits and resynchronises the victim's output credits
    /// against its neighbours' input VCs (retiring any output VC whose
    /// downstream input still holds pre-fault flits).
    fn fault_phase(&mut self, now: u64) {
        let NocSimulation {
            cfg,
            topo,
            routers,
            sources,
            flits_in_flight,
            credits_in_flight,
            inbound_flits,
            neighbor_table,
            window,
            islands,
            regions,
            active,
            touched,
            pending_sources,
            gating,
            faults,
            fault_transitions,
            total_dropped,
            tenants,
            telemetry,
            ..
        } = self;
        let Some(faults) = faults.as_mut() else { return };
        fault_transitions.clear();
        faults.tick(now, topo, fault_transitions);
        if fault_transitions.is_empty() {
            return;
        }
        let vcs = cfg.virtual_channels();
        let island_of = regions.assignments();
        let mut purge_credits: Vec<CreditReturn> = Vec::new();
        for &transition in fault_transitions.iter() {
            if let Some(t) = telemetry.as_deref_mut() {
                let (node, link, down) = match transition {
                    FaultTransition::LinkDown { node, .. } => (node, true, true),
                    FaultTransition::LinkUp { node, .. } => (node, true, false),
                    FaultTransition::RouterDown { node } => (node, false, true),
                    FaultTransition::RouterUp { node } => (node, false, false),
                };
                t.on_fault_transition(node as u32, link, down, now);
            }
            match transition {
                FaultTransition::LinkDown { .. } | FaultTransition::LinkUp { .. } => {}
                FaultTransition::RouterDown { node } => {
                    // The victim's buffers: drop everything; each purged flit
                    // returns a credit to whoever sent it.
                    purge_credits.clear();
                    let mut dropped = routers[node].purge_all(&mut purge_credits);
                    for cr in purge_credits.drain(..) {
                        let to = credit_receiver(neighbor_table, node, cr.in_port, cr.vc);
                        credits_in_flight.send(now, to);
                    }
                    // Flits in flight towards the dead router can no longer
                    // be delivered: drop them, crediting the sender. Flits
                    // the victim put on the wire before dying go down with
                    // it (their credits would flow back into the reset
                    // victim, so none are returned — the downstream side
                    // only credits flits it actually receives).
                    let sent_by_victim = |f: &FlitInFlight| {
                        usize::from(f.in_port) != LOCAL_PORT
                            && neighbor_table[f.dest as usize][usize::from(f.in_port)]
                                .is_some_and(|(sender, _)| sender == node)
                    };
                    flits_in_flight.extract(
                        now,
                        |f| f.dest as usize == node || sent_by_victim(f),
                        |f| {
                            dropped += 1;
                            inbound_flits[f.dest as usize] -= 1;
                            if f.dest as usize == node {
                                let to = credit_receiver(
                                    neighbor_table,
                                    node,
                                    usize::from(f.in_port),
                                    f.flit.vc(),
                                );
                                credits_in_flight.send(now, to);
                            }
                        },
                    );
                    *total_dropped += dropped;
                    window.flits_dropped += dropped;
                    islands[island_of[node] as usize].window.flits_dropped += dropped;
                    if let Some(t) = tenants.as_mut() {
                        t.windows[t.map.slot_of(node) as usize].flits_dropped += dropped;
                    }
                    if let Some(t) = telemetry.as_deref_mut() {
                        t.routers[node].dropped += dropped;
                    }
                    // Worklists: the purged router is quiescent and its
                    // source is parked.
                    active.set_to(node, false);
                    touched.insert(node);
                    pending_sources.set_to(node, false);
                }
                FaultTransition::RouterUp { node } => {
                    // Credits still heading for the reset router would
                    // overflow its fresh full-credit outputs: discard.
                    credits_in_flight.extract(
                        now,
                        |c| c.target as usize == node && usize::from(c.out_port) != LOCAL_PORT,
                        |_| {},
                    );
                    for (port, link) in neighbor_table[node].iter().enumerate() {
                        let Some((nbr, nbr_in_port)) = *link else {
                            continue;
                        };
                        // Resynchronise this output against the neighbour's
                        // input VCs: an idle VC gets the full refill the
                        // factory reset already assumed; a VC still holding
                        // pre-fault flits is retired so a fresh packet can
                        // never interleave with the stranded remainder.
                        for vc in 0..vcs {
                            let idle =
                                routers[nbr].input_vc_state(nbr_in_port, vc) == VcState::Idle;
                            routers[node].resync_output(port, vc, !idle);
                        }
                    }
                    // Un-park the source. If the router slept through the
                    // outage the source goes back on the worklist rather
                    // than straight into the gating fence: phase 6 re-fences
                    // it at the island's next firing tick *and raises the
                    // wakeup request*. (Fencing it here without a request
                    // would leave a gated router asleep forever: the
                    // pending-set clause of `check_invariants`.)
                    gating.fenced_sources[node] = false;
                    if sources[node].has_pending_flits() {
                        pending_sources.insert(node);
                    }
                }
            }
        }
    }

    /// Phases 1–3. Returns the per-tick context the later phases need.
    pub(super) fn pre_pipeline_phases(&mut self, ahead: &mut Option<Ahead<'_>>) -> Tick {
        // 1. Clock: how many node-clock cycles complete during this NoC cycle?
        //    The base tick then advances each island's clock divider; islands
        //    that complete a domain cycle "fire" and are processed below.
        //    The gating state machine runs right after the clocks, then the
        //    fault machinery.
        let node_cycles = self.clock.advance_noc_cycle();
        // The absolute node cycle the generation batch below starts at: the
        // clock has already emitted this tick's cycles, so the batch covers
        // `emitted - node_cycles .. emitted`.
        let start_node_cycle = self.clock.node_cycles_emitted() - node_cycles;
        let now = self.clock.noc_cycle();
        self.window.noc_cycles += 1;
        advance_island_clocks(&mut self.islands);
        if self.gating.enabled {
            self.gating_phase();
            if self.telemetry.is_some() {
                self.drain_gate_transitions(now);
            }
        }
        if self.faults.is_some() {
            self.fault_phase(now);
        }
        let tick = self.tick_ctx();
        if !tick.all_fire {
            // The sparse gate for phases 4 and 6: the union of the firing
            // islands' node masks. Only rebuilt on ticks where some island
            // idles.
            let NocSimulation { islands, island_masks, fire_words, .. } = self;
            fire_words.iter_mut().for_each(|w| *w = 0);
            for (island, mask) in islands.iter().zip(island_masks.iter()) {
                if island.fires {
                    for (w, &m) in fire_words.iter_mut().zip(mask.iter()) {
                        *w |= m;
                    }
                }
            }
        }

        // 2. Packet generation in the node clock domain: one
        //    `generate_tick` call covers every node and every node cycle of
        //    this tick, in the draw order that method's contract fixes — the
        //    phase is *never* made sparse, because skipping a draw would
        //    shift the random stream of every later node. Only a generated
        //    packet touches engine state: it takes the next packet id, is
        //    queued on its source, counted in the global / island / tenant
        //    windows, and puts the source on the injection worklist. When
        //    the NoC outpaces the node clock, zero node cycles complete and
        //    the whole phase is provably dead (no draw), so it is
        //    short-circuited. While a helper holds the spec (`ahead`), the
        //    call was made on its thread and this tick's batch of emits is
        //    drained instead; either way `queue_packet` sees the same
        //    sequence.
        if node_cycles > 0 {
            let helper = if self.helper_holds_spec(ahead) { ahead.as_mut() } else { None };
            let NocSimulation {
                topo,
                sources,
                traffic,
                rng,
                next_packet_id,
                window,
                pending_sources,
                regions,
                islands,
                tenants,
                ..
            } = self;
            let island_of = regions.assignments();
            let nodes = sources.len();
            let packet_length =
                helper.as_ref().map_or_else(|| traffic.packet_length(), |h| h.packet_length);
            let mut queue_packet = |src: usize, dst: usize| {
                let id = PacketId::new(*next_packet_id);
                *next_packet_id += 1;
                let flits =
                    sources[src].push_packet(id, dst, packet_length, tick.now, tick.wall_ps);
                window.flits_generated += flits;
                islands[island_of[src] as usize].window.flits_generated += flits;
                if let Some(t) = tenants.as_mut() {
                    t.windows[t.map.slot_of(src) as usize].flits_generated += flits;
                }
                pending_sources.insert(src);
            };
            match helper {
                Some(helper) => helper.drain_tick(start_node_cycle, &mut queue_packet),
                None => traffic.generate_tick(
                    nodes,
                    start_node_cycle,
                    node_cycles,
                    topo,
                    rng,
                    &mut |src, _, dst| queue_packet(src, dst),
                ),
            }
        }

        self.deliver_credits(tick);
        tick
    }

    /// The context of the tick the clocks currently stand on. Island workers
    /// rebuild it from the shared state instead of being handed it.
    pub(super) fn tick_ctx(&self) -> Tick {
        Tick {
            now: self.clock.noc_cycle(),
            wall_ps: self.clock.wall_time().as_ps(),
            all_fire: self.islands.iter().all(|island| island.fires),
            fault_block: self.faults.as_ref().is_some_and(|f| f.any_active()),
            gate_fencing: self.gating.enabled && self.gating.fenced_count > 0,
        }
    }

    /// Phases 5–6.
    pub(super) fn post_pipeline_phases(&mut self, tick: Tick) {
        self.deliver_flits(tick);
        self.inject(tick);
    }

    /// Phase 3: credit delivery — the credits sent `credit_latency` cycles
    /// ago arrive now, in one pass over their wheel slot. A credit bound for
    /// a dead router is discarded: the death reset its outputs to full
    /// credits, so a late return would overflow.
    fn deliver_credits(&mut self, Tick { now, fault_block, .. }: Tick) {
        let NocSimulation { routers, sources, credits_in_flight, faults, .. } = self;
        let faults: Option<&FaultState> = faults.as_ref();
        for credit in credits_in_flight.deliver(now) {
            let (target, out_port, vc) =
                (credit.target as usize, usize::from(credit.out_port), usize::from(credit.vc));
            if out_port == LOCAL_PORT {
                sources[target].return_credit(vc);
            } else if !(fault_block && faults.is_some_and(|f| f.router_dead(target))) {
                routers[target].accept_credit(out_port, vc);
            }
        }
    }

    /// Phase 5: flit delivery — the link flits sent `link_latency` cycles
    /// ago, then the flits injected then (phase 6 pushes behind the same
    /// tick's link sends), arrive now, in one pass over their wheel slot.
    /// An arrival re-activates the receiving router and, under gating, ends
    /// its idle span. No flit is ever due at a dead router: its death took
    /// them off the wheel and the fault fences let none be sent since.
    fn deliver_flits(&mut self, Tick { now, .. }: Tick) {
        let NocSimulation { routers, flits_in_flight, inbound_flits, active, gating, faults, .. } =
            self;
        for FlitInFlight { dest, in_port, flit } in flits_in_flight.deliver(now) {
            let node = dest as usize;
            debug_assert!(
                !faults.as_ref().is_some_and(|f| f.router_dead(node)),
                "a flit reached dead router {node}"
            );
            inbound_flits[node] -= 1;
            routers[node].accept_flit(usize::from(in_port), flit);
            if gating.enabled {
                gating.on_flit_arrival(node);
            }
            active.insert(node);
        }
    }

    /// Phase 6: each source with queued flits hands over at most one
    /// flit for the next cycle. Sources without queued flits are skipped —
    /// they would refuse (`try_inject` → `None`) without side effects. The
    /// local injection port is island-clocked, so sources of non-firing
    /// islands are masked out and stay pending. A source whose router is
    /// fenced (gated or waking) raises one wakeup request and leaves the
    /// worklist until the router powers on.
    fn inject(&mut self, tick: Tick) {
        let Tick { now, all_fire, fault_block, gate_fencing, .. } = tick;
        let NocSimulation {
            sources,
            flits_in_flight,
            inbound_flits,
            window,
            pending_sources,
            touched,
            regions,
            islands,
            fire_words,
            gating,
            faults,
            tenants,
            ..
        } = self;
        let island_of = regions.assignments();
        let faults: Option<&FaultState> = faults.as_ref();
        for (widx, word) in pending_sources.words.iter_mut().enumerate() {
            let gate = if all_fire { u64::MAX } else { fire_words[widx] };
            let mut w = *word & gate;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                let node = (widx << 6) | bit;
                if fault_block && faults.is_some_and(|f| f.router_dead(node)) {
                    // Parked: the source keeps generating (the RNG draw
                    // order is sacred) but cannot inject into a dead
                    // router; it rejoins the worklist on recovery.
                    *word &= !(1u64 << bit);
                    continue;
                }
                if gate_fencing && gating.states[node].is_fenced() {
                    if gating.request_wakeup(node, islands[island_of[node] as usize].local_cycle) {
                        touched.insert(node);
                    }
                    gating.fenced_sources[node] = true;
                    *word &= !(1u64 << bit);
                    continue;
                }
                if let Some(flit) = sources[node].try_inject() {
                    inbound_flits[node] += 1;
                    flits_in_flight.send(
                        now,
                        FlitInFlight { dest: node as u32, in_port: LOCAL_PORT as u8, flit },
                    );
                    window.flits_injected += 1;
                    islands[island_of[node] as usize].window.flits_injected += 1;
                    if let Some(t) = tenants.as_mut() {
                        t.windows[t.map.slot_of(node) as usize].flits_injected += 1;
                    }
                }
                if !sources[node].has_pending_flits() {
                    *word &= !(1u64 << bit);
                }
            }
        }
    }
}
