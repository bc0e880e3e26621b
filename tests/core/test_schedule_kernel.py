"""Differential tests for the incremental schedule kernel (StageSchedule).

The kernel's contract: delta-evaluated move pricing and the maintained
running total must equal a from-scratch recomputation after *any* move
sequence, the live PO boundary must never go stale, and the kernel-based
heuristic must reproduce the seed scan-and-rebuild sweeps bit for bit
from ASAP starts (pinned against the retained reference implementation).
"""

import hashlib
import random

import pytest

from repro.core.dff_insertion import insert_dffs
from repro.core.phase_assignment import (
    _candidate_stages,
    _move_window,
    _net_cost,
    assign_stages_heuristic,
    assign_stages_ilp,
    assign_stages_rescan_reference,
    assign_stages,
    t1_stagger_cost,
)
from repro.core.schedule import INF, StageSchedule
from repro.errors import TimingError
from repro.network.gates import Gate
from repro.sfq.multiphase import edge_dffs
from repro.sfq.netlist import OUT, CellKind, SFQNetlist


def random_netlist(seed, n_phases, n_pi=4, n_gates=12, n_t1=2, n_po=3):
    """A random mapped netlist (gates + optional T1 blocks + POs)."""
    rng = random.Random(seed)
    nl = SFQNetlist(f"rand{seed}", n_phases=n_phases)
    sigs = [(nl.add_pi(), OUT) for _ in range(n_pi)]
    for _ in range(n_gates):
        fins = [rng.choice(sigs) for _ in range(rng.choice([1, 2, 2, 3]))]
        sigs.append((nl.add_gate(Gate.AND, fins), OUT))
    if n_phases >= 3:
        for _ in range(n_t1):
            a, b, c = (rng.choice(sigs) for _ in range(3))
            t = nl.add_t1(a, b, c)
            for port in ("S", "C", "Q"):
                if rng.random() < 0.7:
                    sigs.append((t, port))
    for _ in range(n_po):
        nl.add_po(rng.choice(sigs))
    return nl


def mapped_netlist(source, name):
    """Run the standard pipeline on *source* up to (excluding) phase
    assignment."""
    from repro.pipeline import Pipeline
    from repro.pipeline.context import FlowContext

    pipe = Pipeline.standard(n_phases=4, use_t1=True, verify="none")
    ctx = FlowContext(source=source, name=name, verify="none")
    for p in pipe.passes:
        if p.name == "phase_assign":
            break
        ctx = p.run(ctx) or ctx
    return ctx.netlist


def mapped_registry_netlist(name):
    from repro.circuits import build

    return mapped_netlist(build(name, "ci"), name)


def probe_then_apply(k, x, s):
    """Probe a move, commit it, and check the probe predicted the
    committed state — the (infeasible count, finite sum) pair, not only
    the collapsed total."""
    predicted = k.state_if_moved(x, s)
    k.apply_move(x, s)
    assert k.state() == predicted
    assert k.total() == k.recompute_total()


class TestDeltaEquivalence:
    """Delta evaluation == from-scratch recomputation, always."""

    @pytest.mark.parametrize("n_phases", [1, 2, 3, 4])
    def test_random_move_sequences(self, n_phases):
        nl = random_netlist(7 + n_phases, n_phases)
        k = StageSchedule(nl)
        st = nl.structure()
        movable = [i for i in range(len(nl.cells)) if st.clocked[i]]
        rng = random.Random(99)
        for _ in range(300):
            x = rng.choice(movable)
            probe_then_apply(k, x, max(1, k.stages[x] + rng.randint(-3, 3)))
        k.check_invariants()

    @pytest.mark.parametrize("n_phases", [1, 2, 3, 4])
    def test_boundary_shifting_move_sequences(self, n_phases):
        """Move the deepest clocked cell up and down so that most probes
        shift the PO boundary (the aggregate PO repricing path)."""
        nl = random_netlist(40 + n_phases, n_phases, n_gates=16, n_po=6)
        k = StageSchedule(nl)
        st = nl.structure()
        movable = [i for i in range(len(nl.cells)) if st.clocked[i]]
        rng = random.Random(5 + n_phases)
        for step in range(300):
            if step % 3:
                x = max(movable, key=lambda i: (k.stages[i], i))
            else:
                x = rng.choice(movable)
            probe_then_apply(k, x, max(1, k.stages[x] + rng.randint(-4, 4)))
            if step % 25 == 0:
                k.check_invariants()
        assert k.boundary_shifts > 100
        k.check_invariants()

    def test_free_phase_pi_driving_bare_po_clamps(self):
        """n=4: a PI at stage 3 drives a PO with no consumers.  Its PO
        term is max(0, (b − 3 − 1)//4), which clamps at zero once the
        boundary reaches stage 3 or drops below it."""
        nl = SFQNetlist("clamp", n_phases=4)
        p = nl.add_pi()
        nl.add_po((p, OUT))
        q = (nl.add_pi(), OUT)
        g1 = nl.add_gate(Gate.AND, [q])
        g2 = nl.add_gate(Gate.AND, [(g1, OUT)])
        nl.add_po((g2, OUT))
        k = StageSchedule(nl)
        k.apply_move(p, 3)
        k.apply_move(g2, 11)  # boundary 12: the bare PO needs 2 DFFs
        assert k.boundary() == 12
        k.check_invariants()
        # the deepest cell walks down through the clamp and back up
        for s in (8, 6, 4, 3, 2, 3, 5, 9, 13, 2, 12):
            b0 = k.boundary()
            probe_then_apply(k, g2, s)
            assert k.boundary() == s + 1 != b0
            k.check_invariants()
        assert k.boundary_shifts == 11
        # a PI moving under a fixed boundary re-enters the counts
        for s in (0, 2, 3):
            probe_then_apply(k, p, s)
            k.check_invariants()
        probe_then_apply(k, g2, 2)  # boundary 3: PI gap 0
        probe_then_apply(k, g2, 1)  # boundary 2: PI gap -1
        k.check_invariants()
        # a driver far above both boundaries (outside the free-phase
        # window, so only reachable by an explicit move) stays exact too
        probe_then_apply(k, p, 9)
        for s in (5, 1, 7, 3, 12, 1):
            probe_then_apply(k, g2, s)
        k.check_invariants()

    def test_registry_circuit_move_sequence(self):
        nl = mapped_registry_netlist("c6288")
        k = StageSchedule(nl)
        st = nl.structure()
        movable = [i for i in range(len(nl.cells)) if st.clocked[i]]
        rng = random.Random(3)
        for i in range(400):
            x = rng.choice(movable)
            probe_then_apply(k, x, max(1, k.stages[x] + rng.randint(-2, 4)))
        k.check_invariants()

    def test_peek_does_not_mutate(self):
        nl = random_netlist(1, 4)
        k = StageSchedule(nl)
        before = (list(k.stages), k.state(), k.boundary())
        st = nl.structure()
        for x in range(len(nl.cells)):
            if st.clocked[x]:
                k.cost_if_moved(x, k.stages[x] + 2)
        assert (list(k.stages), k.state(), k.boundary()) == before

    def test_invariants_catch_stale_po_counts(self):
        nl = random_netlist(3, 4)
        k = StageSchedule(nl)
        k.check_invariants()
        k._po_by_residue[0] += 1
        with pytest.raises(TimingError, match="residue"):
            k.check_invariants()
        k._po_by_residue[0] -= 1
        k._po_by_stage.append(1)
        with pytest.raises(TimingError, match="per-stage"):
            k.check_invariants()

    def test_negative_stage_rejected(self):
        nl = random_netlist(3, 4)
        k = StageSchedule(nl)
        with pytest.raises(TimingError, match="negative stage"):
            k.apply_move(0, -1)  # cell 0 is a PI

    def test_asap_start_total_matches_recompute(self):
        for name in ("adder", "voter", "multiplier"):
            nl = mapped_registry_netlist(name)
            k = StageSchedule(nl)
            assert k.total() == k.recompute_total()
            k.check_invariants()


def incident_infeasible(k, x):
    """From scratch: is any net or T1 term incident to cell *x*
    infeasible at the live boundary?  The incident set is the seed
    heuristic's: the nets x drives, the nets behind its fanins, and the
    T1 terms touching x."""
    st, stages, b = k.st, k.stages, k.boundary()
    for sig in set(st.signals_of_cell[x]) | set(st.fanin_signals[x]):
        cons = st.nets.get(sig)
        if cons is None:
            continue  # feeds only T1 cells
        po_b = b if sig in st.po_signals else None
        cost = _net_cost(stages[sig[0]], [stages[c] for c in cons], k.n, po_b)
        if cost == INF:
            return True
    t1s = set(st.t1_consumers[x]) | ({x} if st.is_t1[x] else set())
    return any(
        t1_stagger_cost(stages[t], [stages[d] for d in st.fanin_drivers[t]], k.n)
        == INF
        for t in t1s
    )


def brute_best_stage(k, x, cands):
    """Apply every candidate, read the state, move back: the heuristic's
    key (INF while an incident term is infeasible, the finite sum
    otherwise) with its strict ``< best − 1e-9`` tie-break.  Returns the
    winner, the committed state per priced candidate and the number of
    candidates that moved the boundary."""
    s0, b0 = k.stages[x], k.boundary()
    best = s0
    best_key = INF if incident_infeasible(k, x) else k.state()[1]
    states = {}
    shifting = 0
    for s in sorted(cands):
        if s == s0:
            continue
        k.apply_move(x, s)
        states[s] = k.state()
        shifting += k.boundary() != b0
        key = INF if incident_infeasible(k, x) else k.state()[1]
        k.apply_move(x, s0)
        if key < best_key - 1e-9:
            best_key, best = key, s
    return best, states, shifting


def check_best_stage(k, x, cands):
    """best_stage == brute force; the call mutates nothing and counts
    exactly the candidates it priced and the ones that shifted.  The
    same pricing pass, one candidate at a time, predicts each committed
    state."""
    want, states, shifting = brute_best_stage(k, x, cands)
    before = (list(k.stages), k.state(), k.boundary(), k.moves_applied)
    evaluated, shifts = k.moves_evaluated, k.boundary_shifts
    assert k.best_stage(x, cands) == want
    assert (list(k.stages), k.state(), k.boundary(), k.moves_applied) == before
    assert k.moves_evaluated - evaluated == len(states)
    assert k.boundary_shifts - shifts == shifting
    k.check_invariants()
    for s, state in states.items():
        assert k.state_if_moved(x, s) == state
    return want


def window_candidates(k, x, extra_above=0):
    """The heuristic's candidate set for x, plus *extra_above* stages
    past the top of its window (beyond the boundary for a cell with no
    consumers)."""
    st = k.st
    is_pi = k.netlist.cells[x].kind is CellKind.PI
    lb, ub = _move_window(st, k.stages, x, is_pi, k.boundary(), k.n)
    if ub < lb:
        return set()
    cands = _candidate_stages(st, k.stages, x, lb, ub, is_pi, k.n, 160)
    cands.update(range(ub + 1, ub + 1 + extra_above))
    return cands


class TestBestStage:
    """One best_stage call == brute force over the same candidates."""

    @pytest.mark.parametrize("include_po", [True, False])
    @pytest.mark.parametrize("n_phases", [1, 2, 3, 4])
    def test_random_states_match_brute_force(self, n_phases, include_po):
        nl = random_netlist(60 + n_phases, n_phases, n_gates=16, n_t1=3, n_po=5)
        k = StageSchedule(nl, include_po_balancing=include_po)
        st = k.st
        cells = [
            i for i in range(len(nl.cells))
            if st.clocked[i] or nl.cells[i].kind is CellKind.PI
        ]
        movable = [i for i in cells if st.clocked[i]]
        rng = random.Random(n_phases)
        seen = set()
        for step in range(120):
            # wander through feasible and infeasible states
            y = rng.choice(movable)
            k.apply_move(y, max(1, k.stages[y] + rng.randint(-2, 3)))
            x = rng.choice(cells)
            cands = window_candidates(k, x, extra_above=step % 3)
            if not cands:
                continue
            before = k.boundary_shifts
            best = check_best_stage(k, x, cands)
            seen.add("moved" if best != k.stages[x] else "stayed")
            if k.boundary_shifts != before:
                seen.add("shift")
            if k.state()[0]:
                seen.add("infeasible state")
            if nl.cells[x].kind is CellKind.PI:
                seen.add("pi")
            if st.is_t1[x]:
                seen.add("t1")
            if st.t1_consumers[x]:
                seen.add("feeds t1")
        want = {"moved", "stayed", "infeasible state", "pi"}
        if include_po:
            want.add("shift")
        if n_phases >= 3:
            want |= {"t1", "feeds t1"}
        assert want <= seen

    def test_sole_extreme_with_multiplicity_two(self):
        """g2 consumes g1's net on both fanins and alone holds the net's
        min, then its max: every candidate drains that extreme; g6 is
        the whole of g5's consumer bag."""
        nl = SFQNetlist("mult2", n_phases=4)
        a = (nl.add_pi(), OUT)
        g1 = (nl.add_gate(Gate.AND, [a]), OUT)
        g2 = nl.add_gate(Gate.AND, [g1, g1])
        g3 = nl.add_gate(Gate.AND, [g1])
        g4 = nl.add_gate(Gate.AND, [(g3, OUT), (g2, OUT)])
        nl.add_po((g4, OUT))
        # g6 is the only consumer of g5's net, on both fanins
        g5 = (nl.add_gate(Gate.AND, [a]), OUT)
        g6 = nl.add_gate(Gate.AND, [g5, g5])
        nl.add_po((g6, OUT))
        k = StageSchedule(nl)
        k.apply_move(g4, 9)
        k.apply_move(g3, 5)
        bag = k._bags[g1]
        assert (bag.counts[k.stages[g2]], bag.mn) == (2, k.stages[g2])
        for cands in (window_candidates(k, g2), {3, 4, 5, 6, 7, 8}):
            check_best_stage(k, g2, cands)
        k.apply_move(g2, 7)
        assert (bag.counts[7], bag.mx) == (2, 7)
        check_best_stage(k, g2, window_candidates(k, g2) | {2, 3, 5, 6})
        # the move takes every entry out of g5's consumer bag
        assert k._bags[g5].counts == {k.stages[g6]: 2}
        check_best_stage(k, g6, window_candidates(k, g6, 2) | {1, 2})

    def test_unique_deepest_cell_lowers_the_boundary(self):
        """The deepest cell drives a PO alone at the top of the stage
        histogram: a candidate below it lowers the boundary to the next
        stage down, one above it raises the boundary past the window."""
        nl = SFQNetlist("deep", n_phases=2)
        p = (nl.add_pi(), OUT)
        g1 = (nl.add_gate(Gate.AND, [p]), OUT)
        g2 = nl.add_gate(Gate.AND, [g1])
        h = nl.add_gate(Gate.AND, [g1])
        nl.add_po((g2, OUT))
        nl.add_po((h, OUT))
        k = StageSchedule(nl)
        k.apply_move(g2, 9)
        k.apply_move(h, 4)
        assert k.boundary() == 10 and k._stage_counts[9] == 1
        before = k.boundary_shifts
        assert check_best_stage(k, g2, window_candidates(k, g2, 3)) != 9
        assert k.boundary_shifts - before > 1
        # the deepest cell is the only clocked cell at its stage and the
        # next one down sits right below it
        k.apply_move(h, 8)
        check_best_stage(k, g2, set(range(2, 14)))
        # ... and a tie at the top keeps the boundary where it is
        k.apply_move(h, 9)
        before = k.boundary_shifts
        check_best_stage(k, g2, set(range(2, 9)))
        assert k.boundary_shifts == before

    def test_current_stage_only_prices_nothing(self):
        nl = random_netlist(2, 4)
        k = StageSchedule(nl)
        x = next(i for i in range(len(nl.cells)) if k.st.clocked[i])
        assert k.best_stage(x, {k.stages[x]}) == k.stages[x]
        assert k.best_stage(x, ()) == k.stages[x]
        assert k.moves_evaluated == 0


class TestLiveBoundary:
    """The PO boundary is maintained across moves, never per sweep."""

    def chain_with_dangler(self):
        # p -> g1 -> g2 -> g3 -> g4 (PO), plus h(g2) driving only a PO
        nl = SFQNetlist("bnd", n_phases=2)
        p = (nl.add_pi(), OUT)
        cur = p
        mids = []
        for _ in range(4):
            cur = (nl.add_gate(Gate.AND, [cur]), OUT)
            mids.append(cur)
        nl.add_po(cur)
        h = (nl.add_gate(Gate.AND, [mids[1]]), OUT)
        nl.add_po(h)
        return nl, cur[0], h[0]

    def test_boundary_tracks_max_stage(self):
        nl, g4, h = self.chain_with_dangler()
        k = StageSchedule(nl)
        assert k.boundary() == 5  # deepest cell g4 at stage 4
        k.apply_move(g4, 6)
        assert k.boundary() == 7
        k.check_invariants()
        k.apply_move(g4, 4)
        assert k.boundary() == 5
        k.check_invariants()

    def test_stale_boundary_mispriced_move(self):
        """Regression: the seed priced PO balancing against a boundary
        snapshotted at sweep start.  After a mid-sweep move deepens the
        schedule (boundary 5 -> 7), the snapshot still prices the
        dangler's PO chain at zero DFFs, while the true cost against the
        live boundary is one chain DFF — the kernel's delta and running
        total both account for it."""
        nl, g4, h = self.chain_with_dangler()
        k = StageSchedule(nl)
        stale_boundary = k.boundary()
        assert stale_boundary == 5
        assert k.stages[h] == 3  # ASAP: fed by g2 at stage 2
        before = k.total()
        # deepening g4 to 6 costs: +1 on the g3->g4 chain, +1 on h's PO
        # chain (live boundary 7) — the stale snapshot sees only the first
        assert k.cost_if_moved(g4, 6) - before == 2.0
        k.apply_move(g4, 6)
        assert k.boundary() == 7
        assert k.total() == k.recompute_total() == before + 2.0
        # the seed's pricing of h's PO net with the stale snapshot calls
        # the dangler's position free (boundary gap 2, n=2 -> 0 DFFs) ...
        assert _net_cost(k.stages[h], [], 2, stale_boundary) == 0.0
        # ... but against the live boundary it costs one chain DFF
        assert _net_cost(k.stages[h], [], 2, k.boundary()) == 1.0

    def test_heuristic_final_boundary_consistent(self):
        nl = mapped_registry_netlist("square")
        assign_stages_heuristic(nl)
        stages = [c.stage for c in nl.cells if c.clocked]
        k = StageSchedule(nl, stages=[c.stage for c in nl.cells])
        assert k.boundary() == max(stages) + 1


class TestHeuristicEquivalence:
    """Kernel-based sweeps == the seed scan-and-rebuild reference."""

    @pytest.mark.parametrize("name", ["adder", "c6288", "voter", "square"])
    def test_registry_stage_vectors_identical(self, name):
        nl_kernel = mapped_registry_netlist(name)
        nl_ref = mapped_registry_netlist(name)
        assign_stages_heuristic(nl_kernel)
        assign_stages_rescan_reference(nl_ref)
        got = [c.stage for c in nl_kernel.cells]
        want = [c.stage for c in nl_ref.cells]
        assert got == want

    @pytest.mark.parametrize("n_phases", [1, 2, 3, 4])
    def test_random_netlists_identical(self, n_phases):
        for seed in range(12):
            nl_kernel = random_netlist(seed, n_phases)
            nl_ref = random_netlist(seed, n_phases)
            assign_stages_heuristic(nl_kernel, sweeps=5)
            assign_stages_rescan_reference(nl_ref, sweeps=5)
            assert [c.stage for c in nl_kernel.cells] == (
                [c.stage for c in nl_ref.cells]
            ), f"divergence at seed {seed}"

    def test_reports_agree_on_applied_moves(self):
        nl_kernel = mapped_registry_netlist("c7552")
        nl_ref = mapped_registry_netlist("c7552")
        rk = assign_stages_heuristic(nl_kernel)
        rr = assign_stages_rescan_reference(nl_ref)
        assert rk.moves_applied == rr.moves_applied
        assert rk.sweeps_run == rr.sweeps_run
        assert rk.moves_evaluated > 0


class TestDatapathPins:
    """The heuristic on mapped 2k-node datapaths, pinned to the values of
    the per-net PO repricing it replaced.  Each run has about 1k probes
    that shift the PO boundary, far more than the registry circuits."""

    # seed: (moves_evaluated, moves_applied, boundary_shifts,
    #        final state(), sha256 of the stage vector, first 16 hex)
    PINS = {
        1: (21038, 417, 1044, (5, 1953.0), "94bff22a418bd408"),
        2: (16068, 361, 975, (5, 1293.0), "6bae895b79fff4c9"),
        3: (20045, 423, 1026, (4, 1721.0), "230c2848bd1f1709"),
    }

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_datapath_2k_pinned(self, seed):
        from repro.circuits import build_synthetic

        nl = mapped_netlist(build_synthetic("datapath", 2000, seed), "dp")
        rep = assign_stages_heuristic(nl)
        stages = [c.stage for c in nl.cells]
        final = StageSchedule(nl, stages=stages)
        final.check_invariants()
        evaluated, applied, shifts, state, digest = self.PINS[seed]
        assert rep.moves_evaluated == evaluated
        assert rep.moves_applied == applied
        assert rep.boundary_shifts == shifts
        assert rep.final_cost == final.total() == float("inf")
        assert final.state() == state
        assert hashlib.sha256(repr(stages).encode()).hexdigest()[:16] == digest


class TestHeuristicQuality:
    """Final cost <= ASAP cost; exact ILP stays the proxy lower bound."""

    @staticmethod
    def _proxy_objective(nl):
        total = 0
        for cell in nl.cells:
            if not cell.clocked:
                continue
            for sig in cell.fanins:
                total += edge_dffs(
                    cell.stage - nl.cells[sig[0]].stage, nl.n_phases
                )
        return total

    @pytest.mark.parametrize("n_phases", [1, 2, 3, 4])
    def test_heuristic_not_worse_than_asap(self, n_phases):
        for seed in range(8):
            nl = random_netlist(100 + seed, n_phases)
            asap_cost = StageSchedule(nl).total()
            assign_stages_heuristic(nl)
            final = StageSchedule(
                nl, stages=[c.stage for c in nl.cells]
            ).total()
            assert final <= asap_cost

    @pytest.mark.parametrize("n_phases", [1, 2, 3, 4])
    def test_ilp_proxy_bounds_heuristic(self, n_phases):
        for seed in range(6):
            t1 = 1 if (n_phases >= 3 and seed % 2 == 0) else 0
            nl_h = random_netlist(
                seed, n_phases, n_pi=3, n_gates=6, n_t1=t1, n_po=2
            )
            nl_i = random_netlist(
                seed, n_phases, n_pi=3, n_gates=6, n_t1=t1, n_po=2
            )
            assign_stages_heuristic(nl_h, free_pi_phases=False)
            assign_stages_ilp(nl_i)
            assert self._proxy_objective(nl_i) <= self._proxy_objective(nl_h)

    @pytest.mark.parametrize("n_phases", [1, 2, 3, 4])
    def test_heuristic_matches_ilp_on_chains(self, n_phases):
        def chain(n):
            nl = SFQNetlist("chain", n_phases=n)
            cur = (nl.add_pi(), OUT)
            for _ in range(5):
                cur = (nl.add_gate(Gate.AND, [cur]), OUT)
            nl.add_po(cur)
            return nl

        nl_h, nl_i = chain(n_phases), chain(n_phases)
        assign_stages_heuristic(nl_h, free_pi_phases=False)
        assign_stages_ilp(nl_i)
        assert insert_dffs(nl_h).total == insert_dffs(nl_i).total


class TestAutoMethod:
    def test_auto_small_uses_ilp(self):
        a = random_netlist(5, 2, n_pi=3, n_gates=6, n_t1=0, n_po=2)
        b = random_netlist(5, 2, n_pi=3, n_gates=6, n_t1=0, n_po=2)
        assign_stages(a, method="auto")
        assign_stages_ilp(b)
        assert [c.stage for c in a.cells] == [c.stage for c in b.cells]

    def test_auto_large_uses_heuristic(self):
        a = mapped_registry_netlist("sin")
        b = mapped_registry_netlist("sin")
        assign_stages(a, method="auto", sweeps=4, free_pi_phases=True)
        assign_stages_heuristic(b, sweeps=4, free_pi_phases=True)
        assert [c.stage for c in a.cells] == [c.stage for c in b.cells]

    def test_unknown_method_raises(self):
        from repro.errors import SolverError

        nl = random_netlist(1, 2)
        with pytest.raises(SolverError):
            assign_stages(nl, method="simulated-annealing")


class TestT1CostCacheScoping:
    def test_kernel_memo_is_per_instance(self):
        nl = random_netlist(11, 4)
        k1 = StageSchedule(nl)
        assert k1._t1_memo  # populated during construction
        k2 = StageSchedule(nl)
        assert k1._t1_memo is not k2._t1_memo

    def test_module_cache_is_bounded_and_clearable(self):
        from repro.core import phase_assignment as pa

        assert (
            pa._t1_cost_cached.cache_info().maxsize == pa.T1_COST_CACHE_SIZE
        )
        pa.t1_stagger_cost(5, [1, 2, 3], 4)
        assert pa._t1_cost_cached.cache_info().currsize > 0
        pa.clear_t1_cost_cache()
        assert pa._t1_cost_cached.cache_info().currsize == 0
