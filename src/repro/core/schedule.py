"""Incremental schedule kernel (§II-B): delta-evaluated stage moves.

The coordinate-descent heuristic of :mod:`repro.core.phase_assignment`
optimises the *true* insertion cost

    Σ_nets  max_v ⌈(σ_v − σ_d)/n⌉ − 1    (shared per-net chains, eq. 5)
  + Σ_T1    c_T1(σ_T1, fanin stages)     (staggering cost, eq. 4)
  + PO balancing against the boundary σ_max + 1.

The seed implementation re-summed every incident term from scratch for
every candidate stage of every cell.  :class:`StageSchedule` maintains
the cost terms instead, exploiting three structural facts:

* a net's chain cost is **monotone in its consumer stages** —
  ``max_v edge_dffs(σ_v − σ_d, n) == edge_dffs(max_v σ_v − σ_d, n)`` and
  feasibility only needs ``min_v σ_v − σ_d ≥ 1`` — so one min/max
  multiset of consumer stages per net prices a *driver* move in O(1) and
  a *consumer* move in amortised O(1);
* the PO boundary is ``max stage + 1``, so a maintained stage histogram
  keeps it current across moves instead of once per sweep (the seed's
  per-sweep snapshot let `local_cost` price PO balancing against a stale
  boundary);
* every consumer of a PO net sits below the boundary ``b``, so a
  feasible PO net's term is ``f(b − σ_d)`` with
  ``f(g) = max(0, (g − 1)//n)`` — it depends on its driver stage alone —
  and its feasibility does not depend on ``b`` at all.  The kernel keeps
  the feasible PO nets counted by driver-stage residue ``σ_d mod n`` and
  by exact driver stage, and prices a boundary shift from those counts
  (a cumulative per-stage profile instead of per-net repricing).

:meth:`best_stage` picks a cell's move without mutating anything and
:meth:`apply_move` commits it.  One call gathers the terms incident to
the cell once — its driven nets' consumer extremes, the other
consumers' extremes of the nets it consumes, its T1 terms and the top of
the stage histogram — and then prices each candidate stage from that
gather alone, plus O(n + |Δb|) count lookups when a candidate shifts
the PO boundary.  A sweep costs O(cells × (incident terms + candidates
× changed terms)) instead of O(moves × candidates × incident-edges).
:meth:`state_if_moved` / :meth:`cost_if_moved` price a single candidate
through the same pass.

The T1 staggering cost is memoised *per kernel instance* (the memo dies
with the schedule), unlike the seed's unbounded module-global cache.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import TimingError
from repro.sfq.multiphase import edge_dffs_unchecked
from repro.sfq.netlist import CellKind, NetlistStructure, SFQNetlist, Signal

INF = float("inf")

#: extremes of an emptied consumer-stage multiset (beyond any stage)
_NO_MIN = 1 << 62
_NO_MAX = -_NO_MIN


def t1_lower_bound(fanin_stages: Sequence[int]) -> int:
    """Eq. 3: σ(T1) ≥ max(σ(i1)+3, σ(i2)+2, σ(i3)+1), fanins sorted."""
    s = sorted(fanin_stages)
    return max(s[0] + 3, s[1] + 2, s[2] + 1)


def asap_stages(structure: NetlistStructure) -> List[Optional[int]]:
    """Earliest feasible stage per cell (PIs at 0)."""
    nl = structure.netlist
    stages: List[Optional[int]] = [None] * len(nl.cells)
    for idx in structure.order:
        cell = nl.cells[idx]
        if cell.kind is CellKind.PI:
            stages[idx] = 0
            continue
        if not cell.clocked:
            continue
        fin = [stages[d] for d in structure.fanin_drivers[idx]]
        if any(f is None for f in fin):
            raise TimingError(f"cell {idx} depends on an unstaged cell")
        if structure.is_t1[idx]:
            stages[idx] = t1_lower_bound(fin)  # type: ignore[arg-type]
        else:
            stages[idx] = (max(fin) + 1) if fin else 1  # type: ignore[arg-type]
    return stages


def _t1_eval(gaps: Tuple[int, ...], n: int, head: int) -> float:
    """Staggering cost for (sorted gaps, clamped window head).

    ``head = min(σ_T1, n)``: when the T1 sits closer than n stages to
    stage 0 the freshness window is clipped, which changes feasibility;
    beyond that the cost only depends on the gaps.
    """
    from repro.core.dff_insertion import t1_input_cost

    fanins = [head - g for g in gaps]
    if any(f < 0 for f in fanins):
        return INF
    return t1_input_cost(head, fanins, n)


class _StageBag:
    """Multiset of consumer stages with maintained min/max.

    ``add``/``remove`` are O(1) except when an extreme value drains,
    which rescans the (few) distinct stage values; ``without`` gives the
    extremes a move starts from, without mutating.
    """

    __slots__ = ("counts", "mn", "mx")

    def __init__(self, stages: Sequence[int] = ()):
        self.counts: Dict[int, int] = {}
        self.mn: Optional[int] = None
        self.mx: Optional[int] = None
        for s in stages:
            self.add(s)

    def add(self, s: int, k: int = 1) -> None:
        c = self.counts
        c[s] = c.get(s, 0) + k
        if self.mx is None or s > self.mx:
            self.mx = s
        if self.mn is None or s < self.mn:
            self.mn = s

    def remove(self, s: int, k: int = 1) -> None:
        c = self.counts
        left = c[s] - k
        if left:
            c[s] = left
            return
        del c[s]
        if not c:
            self.mn = self.mx = None
            return
        if s == self.mx:
            self.mx = max(c)
        if s == self.mn:
            self.mn = min(c)

    def without(self, old: int, k: int = 1) -> Tuple[int, int]:
        """(min, max) of the entries left once *k* occurrences of *old*
        are taken out, or ``(_NO_MIN, _NO_MAX)`` when none are left.

        A move of those entries to stage ``s`` then has extremes
        ``min(mn, s)`` and ``max(mx, s)`` for every ``s``.
        """
        mn = self.mn
        mx = self.mx
        c = self.counts
        if c[old] == k and (old == mn or old == mx):
            rest = [v for v in c if v != old]
            if not rest:
                return _NO_MIN, _NO_MAX
            if old == mn:
                mn = min(rest)
            if old == mx:
                mx = max(rest)
        return mn, mx  # type: ignore[return-value]


def _net_term_cost(
    ds: int, mn: Optional[int], mx: Optional[int], boundary: Optional[int], n: int
) -> float:
    """Shared-chain DFFs of one net from its consumer-stage extremes.

    INF when any consumer is not strictly later than the driver; the PO
    boundary contributes only when it lies past the driver (matching the
    seed's `_net_cost`).
    """
    worst = 0
    if mx is not None:
        if mn - ds < 1:  # type: ignore[operator]
            return INF
        worst = edge_dffs_unchecked(mx - ds, n)
    if boundary is not None:
        gap = boundary - ds
        if gap >= 1:
            w = edge_dffs_unchecked(gap, n)
            if w > worst:
                worst = w
    return float(worst)


class StageSchedule:
    """Maintained stage vector + per-net / per-T1 cost terms.

    Owns ``stages`` (read it freely, mutate only through
    :meth:`apply_move`), the running total cost, and — when
    ``include_po_balancing`` — the PO boundary, kept current across
    every move.  ``moves_evaluated`` counts the candidate stages priced
    by :meth:`best_stage` and :meth:`state_if_moved`, and
    ``boundary_shifts`` those of them that moved the boundary.
    """

    def __init__(
        self,
        netlist: SFQNetlist,
        *,
        include_po_balancing: bool = True,
        stages: Optional[Sequence[Optional[int]]] = None,
        structure: Optional[NetlistStructure] = None,
    ):
        st = structure if structure is not None else netlist.structure()
        self.netlist = netlist
        self.st = st
        self.n = st.n
        self.include_po = include_po_balancing
        self.stages: List[Optional[int]] = (
            list(stages) if stages is not None else asap_stages(st)
        )
        self.moves_evaluated = 0
        self.moves_applied = 0
        self.boundary_shifts = 0
        self._t1_memo: Dict[Tuple[Tuple[int, ...], int], float] = {}

        cells = netlist.cells
        # consumer-stage multiset per net + consumer multiplicity per net
        self._bags: Dict[Signal, _StageBag] = {}
        self._net_mult: Dict[Signal, Dict[int, int]] = {}
        for sig, cons in st.nets.items():
            mult: Dict[int, int] = {}
            for c in cons:
                mult[c] = mult.get(c, 0) + 1
            self._net_mult[sig] = mult
            self._bags[sig] = _StageBag(
                [self.stages[c] for c in cons]  # type: ignore[list-item]
            )
        # per-cell: nets consumed as an ordinary consumer, with multiplicity
        self._consumed: List[Dict[Signal, int]] = [{} for _ in cells]
        for sig, mult in self._net_mult.items():
            for c, k in mult.items():
                self._consumed[c][sig] = k
        # stage histogram of the clocked cells -> live PO boundary
        self._stage_counts: Dict[int, int] = {}
        self._max_clocked = 0
        if include_po_balancing:
            counts = self._stage_counts
            for i, c in enumerate(cells):
                s = self.stages[i]
                if st.clocked[i] and s is not None:
                    counts[s] = counts.get(s, 0) + 1
            if counts:
                self._max_clocked = max(counts)
        # cost terms and running total
        self._net_cost: Dict[Signal, float] = {}
        self._t1_cost: Dict[int, float] = {}
        self._inf_terms = 0
        self._finite = 0.0
        b = self.boundary()
        for sig, bag in self._bags.items():
            ds = self.stages[sig[0]]
            if ds is None:
                raise TimingError(f"net driver {sig[0]} has no stage")
            cost = _net_term_cost(
                ds, bag.mn, bag.mx, b if sig in st.po_signals else None, self.n
            )
            self._net_cost[sig] = cost
            if cost == INF:
                self._inf_terms += 1
            else:
                self._finite += cost
        for i, is_t1 in enumerate(st.is_t1):
            if not is_t1:
                continue
            cost = self._t1(
                self.stages[i],  # type: ignore[arg-type]
                [self.stages[d] for d in st.fanin_drivers[i]],  # type: ignore[misc]
            )
            self._t1_cost[i] = cost
            if cost == INF:
                self._inf_terms += 1
            else:
                self._finite += cost
        # feasible PO nets by driver-stage residue and by driver stage
        # (trailing zeros trimmed): the boundary-shift aggregate
        self._po_by_residue: List[int] = [0] * self.n
        self._po_by_stage: List[int] = []
        for sig in st.po_signals:
            if self._net_cost[sig] != INF:
                self._count_po(self.stages[sig[0]], 1)  # type: ignore[arg-type]

    # -- cost primitives ----------------------------------------------------

    def _t1(self, t_stage: int, fanin_stages: Sequence[int]) -> float:
        """Memoised staggering cost of one T1 term (eq. 4)."""
        gaps = tuple(sorted(t_stage - s for s in fanin_stages))
        if gaps[0] < 1:
            return INF
        key = (gaps, min(t_stage, self.n))
        memo = self._t1_memo
        cost = memo.get(key)
        if cost is None:
            cost = _t1_eval(gaps, self.n, key[1])
            memo[key] = cost
        return cost

    def total(self) -> float:
        """The maintained schedule cost (INF while any term is infeasible)."""
        return INF if self._inf_terms else self._finite

    def state(self) -> Tuple[int, float]:
        """(infeasible term count, finite cost sum) — the move-comparison key.

        Comparing states lexicographically reproduces the seed's local
        comparison: a move that improves its incident terms is accepted
        even while some *other* term is still infeasible (the collapsed
        :meth:`total` is INF on both sides of such a comparison and could
        never accept it).
        """
        return self._inf_terms, self._finite

    def boundary(self) -> Optional[int]:
        """The live PO-balancing boundary (max clocked stage + 1)."""
        if not self.include_po:
            return None
        return self._max_clocked + 1

    def _count_po(self, ds: int, k: int) -> None:
        """Add *k* feasible PO nets driven from stage *ds* to the counts."""
        self._po_by_residue[ds % self.n] += k
        at = self._po_by_stage
        if ds >= len(at):
            at.extend([0] * (ds + 1 - len(at)))
        at[ds] += k
        while at and not at[-1]:
            at.pop()

    def _po_shift_delta(self, b0: int, b1: int, skip: Sequence[int]) -> int:
        """Finite-cost change of the feasible PO nets when the boundary
        shifts ``b0 -> b1``, leaving out one net per driver stage in
        *skip* (the moved cell's own PO nets, which the probe prices).

        Every consumer of a PO net away from the moved cell sits below
        both boundaries, so its term is ``f(b − σ_d)`` with
        ``f(g) = max(0, (g − 1)//n)`` and its feasibility is fixed.  For
        ``σ_d < min(b0, b1)`` both gaps are positive and, with
        ``σ_d = q·n + r``, ``(b − σ_d − 1)//n`` is ``(b − r − 1)//n − q``:
        the change depends on the residue ``r`` alone.  Drivers at or
        above ``min(b0, b1)`` — the moved cell itself, and PIs at a free
        phase where ``f`` clamps at zero — are corrected from the
        exact-stage counts.
        """
        n = self.n
        delta = 0
        for r, c in enumerate(self._po_by_residue):
            if c:
                delta += c * ((b1 - r - 1) // n - (b0 - r - 1) // n)
        at = self._po_by_stage
        for d in range(min(b0, b1), len(at)):
            c = at[d]
            if c:
                # clamped change minus the unclamped one summed above
                q0 = (b0 - d - 1) // n
                q1 = (b1 - d - 1) // n
                delta += c * (min(q0, 0) - min(q1, 0))
        for ds in skip:
            delta -= max(0, (b1 - ds - 1) // n) - max(0, (b0 - ds - 1) // n)
        return delta

    # -- move evaluation ----------------------------------------------------

    def cost_if_moved(self, x: int, s: int) -> float:
        """Total schedule cost if cell *x* moved to stage *s* (no mutation)."""
        inf, fin = self.state_if_moved(x, s)
        return INF if inf else fin

    def state_if_moved(self, x: int, s: int) -> Tuple[int, float]:
        """:meth:`state` if cell *x* moved to stage *s* (no mutation).

        A one-candidate :meth:`best_stage` pricing pass.
        """
        if s == self.stages[x]:
            return self.state()
        return self._price(x, (s,))[1]

    def best_stage(self, x: int, candidates: Iterable[int]) -> int:
        """The stage the coordinate-descent heuristic moves cell *x* to.

        Prices the distinct *candidates* in ascending order (the current
        stage is skipped and never counted) without mutating anything, and
        returns the first one whose key beats the current position's by
        more than 1e-9 and every earlier winner's — the current stage
        when none does.  The key is the seed heuristic's local
        comparison: INF while any term incident to *x* is infeasible,
        the finite cost sum otherwise.  The incident set is the seed's
        "affected" set: the nets *x* drives, the nets behind its fanins
        (even when *x* is a T1 and its own fanins are not part of those
        nets), and the T1 terms touching *x*.
        """
        s0: int = self.stages[x]  # type: ignore[assignment]
        moves = sorted(s for s in candidates if s != s0)
        return self._price(x, moves)[0] if moves else s0

    def _price(
        self, x: int, cands: Sequence[int]
    ) -> Tuple[int, Tuple[int, float]]:
        """Price the ascending stages *cands* of cell *x* (none of them
        its current stage) in one gather.

        Returns the :meth:`best_stage` winner and the :meth:`state` after
        the last priced candidate.  The terms incident to *x* are read
        once; each candidate then costs O(incident terms), plus
        O(n + |Δb|) count lookups when it shifts the PO boundary (see
        :meth:`_po_shift_delta`).  Counts one :attr:`moves_evaluated` per
        priced candidate and one :attr:`boundary_shifts` per candidate
        that moves the boundary.
        """
        st = self.st
        stages = self.stages
        n = self.n
        s0: int = stages[x]  # type: ignore[assignment]
        net_cost = self._net_cost
        t1_cost = self._t1_cost
        bags = self._bags
        po_signals = st.po_signals if self.include_po else ()
        # -- gather: every incident term, with its current cost
        old_inf = 0  # infeasible terms among those a move reprices
        old_fin = 0.0  # their finite sum
        po_ds: List[int] = []  # driver stages of x's feasible PO nets
        driven = []  # (consumer min, max or None, PO?) per net x drives
        for sig in st.signals_of_cell[x]:
            bag = bags[sig]
            po = sig in po_signals
            driven.append((bag.mn, bag.mx, po))
            c = net_cost[sig]
            if c == INF:
                old_inf += 1
            else:
                old_fin += c
                if po:
                    po_ds.append(s0)
        consumed = []  # (driver stage, other consumers' min, max, PO?)
        for sig, k in self._consumed[x].items():
            ds: int = stages[sig[0]]  # type: ignore[assignment]
            po = sig in po_signals
            consumed.append((ds, *bags[sig].without(s0, k), po))
            c = net_cost[sig]
            if c == INF:
                old_inf += 1
            else:
                old_fin += c
                if po:
                    po_ds.append(ds)
        fed = []  # (T1 stage, its other fanin stages, fanins x drives)
        for t in st.t1_consumers[x]:
            drivers = st.fanin_drivers[t]
            fed.append(
                (
                    stages[t],
                    [stages[d] for d in drivers if d != x],
                    drivers.count(x),
                )
            )
            c = t1_cost[t]
            if c == INF:
                old_inf += 1
            else:
                old_fin += c
        own_fins = None
        fixed_inf = 0  # infeasible nets behind a T1's fanins: never repriced
        if st.is_t1[x]:
            own_fins = [stages[d] for d in st.fanin_drivers[x]]
            c = t1_cost[x]
            if c == INF:
                old_inf += 1
            else:
                old_fin += c
            for sig in set(st.fanin_signals[x]):
                if net_cost.get(sig) == INF:
                    fixed_inf += 1
        # the stage-histogram top the boundary follows
        b0 = self.boundary()
        track = self.include_po and st.clocked[x]
        top = self._max_clocked
        below_top: Optional[int] = None  # next stage down when x alone is top
        if track and s0 == top and self._stage_counts[s0] == 1:
            below_top = max(
                (v for v in self._stage_counts if v != s0), default=_NO_MAX
            )
        t1 = self._t1
        g_inf = self._inf_terms
        g_fin = self._finite
        best = s0
        best_key = INF if old_inf + fixed_inf else g_fin
        last = (g_inf, g_fin)
        shifts = 0
        shift_b1 = shift_delta = None  # the last boundary shift priced
        for s in cands:
            b1 = b0
            if track:
                if s >= top:
                    b1 = s + 1
                elif below_top is not None:
                    b1 = (s if s > below_top else below_top) + 1
            inf = 0
            fin = 0.0
            for mn, mx, po in driven:
                worst = 0
                if mx is not None:
                    if mn - s < 1:
                        inf += 1
                        continue
                    worst = (mx - s - 1) // n
                if po:
                    gap = b1 - s  # type: ignore[operator]
                    if gap >= 1:
                        w = (gap - 1) // n
                        if w > worst:
                            worst = w
                fin += worst
            for ds, mn, mx, po in consumed:
                if (s if s < mn else mn) - ds < 1:
                    inf += 1
                    continue
                worst = ((s if s > mx else mx) - ds - 1) // n
                if po:
                    gap = b1 - ds  # type: ignore[operator]
                    if gap >= 1:
                        w = (gap - 1) // n
                        if w > worst:
                            worst = w
                fin += worst
            for ts, others, k in fed:
                c = t1(ts, others + [s] * k)  # type: ignore[arg-type]
                if c == INF:
                    inf += 1
                else:
                    fin += c
            if own_fins is not None:
                c = t1(s, own_fins)  # type: ignore[arg-type]
                if c == INF:
                    inf += 1
                else:
                    fin += c
            c_fin = g_fin - old_fin + fin
            if b1 != b0:
                shifts += 1
                if b1 != shift_b1:
                    shift_b1 = b1
                    shift_delta = self._po_shift_delta(
                        b0, b1, po_ds  # type: ignore[arg-type]
                    )
                c_fin += shift_delta  # type: ignore[operator]
            last = (g_inf - old_inf + inf, c_fin)
            key = INF if fixed_inf + inf else c_fin
            if key < best_key - 1e-9:
                best_key = key
                best = s
        self.moves_evaluated += len(cands)
        self.boundary_shifts += shifts
        return best, last

    def apply_move(self, x: int, s: int) -> None:
        """Commit the move of cell *x* to stage *s*, updating every term."""
        s0 = self.stages[x]
        if s == s0:
            return
        if s < 0:
            raise TimingError(f"cell {x}: negative stage {s}")
        self.moves_applied += 1
        st = self.st
        n = self.n
        b0 = self.boundary()
        po_signals = st.po_signals
        net_cost = self._net_cost
        # x's PO nets leave the feasible-PO counts and re-enter below
        # with their new driver stage / feasibility
        incident_po = [
            sig
            for sig in chain(st.signals_of_cell[x], self._consumed[x])
            if sig in po_signals
        ]
        for sig in incident_po:
            if net_cost[sig] != INF:
                self._count_po(self.stages[sig[0]], -1)  # type: ignore[arg-type]
        if self.include_po and st.clocked[x]:
            counts = self._stage_counts
            counts[s] = counts.get(s, 0) + 1
            left = counts[s0] - 1  # type: ignore[index]
            if left:
                counts[s0] = left  # type: ignore[index]
            else:
                del counts[s0]  # type: ignore[arg-type]
            if s > self._max_clocked:
                self._max_clocked = s
            elif s0 == self._max_clocked and s0 not in counts:
                self._max_clocked = max(counts)
        b1 = self.boundary()
        self.stages[x] = s
        stages = self.stages
        for sig in st.signals_of_cell[x]:
            bag = self._bags[sig]
            self._set_net_cost(
                sig,
                _net_term_cost(
                    s, bag.mn, bag.mx, b1 if sig in po_signals else None, n
                ),
            )
        for sig, k in self._consumed[x].items():
            bag = self._bags[sig]
            bag.remove(s0, k)  # type: ignore[arg-type]
            bag.add(s, k)
            self._set_net_cost(
                sig,
                _net_term_cost(
                    stages[sig[0]],  # type: ignore[arg-type]
                    bag.mn,
                    bag.mx,
                    b1 if sig in po_signals else None,
                    n,
                ),
            )
        for t in st.t1_consumers[x]:
            fins = [stages[d] for d in st.fanin_drivers[t]]
            self._set_t1_cost(t, self._t1(stages[t], fins))  # type: ignore[arg-type]
        if st.is_t1[x]:
            fins = [stages[d] for d in st.fanin_drivers[x]]
            self._set_t1_cost(x, self._t1(s, fins))  # type: ignore[arg-type]
        # applied moves rarely shift the boundary: reprice per net (a
        # shift changes no driver stage or feasibility outside x's nets)
        if b1 != b0:
            for sig in po_signals:
                bag = self._bags[sig]
                self._set_net_cost(
                    sig,
                    _net_term_cost(
                        stages[sig[0]], bag.mn, bag.mx, b1, n  # type: ignore[arg-type]
                    ),
                )
        for sig in incident_po:
            if net_cost[sig] != INF:
                self._count_po(stages[sig[0]], 1)  # type: ignore[arg-type]

    def _set_term_cost(self, store: Dict, key, new: float) -> None:
        """Replace one cost term in *store*, adjusting the running totals.

        :meth:`_price` reprices the incident terms with the net-term
        arithmetic of :func:`_net_term_cost` inlined, and
        :meth:`_po_shift_delta` prices every other PO term from the
        feasible-PO counts, which :meth:`apply_move` updates around this
        call for x's PO nets — keep all three in lockstep or probes
        diverge from the committed :meth:`state`.
        """
        old = store[key]
        if old == new:
            return
        if old == INF:
            self._inf_terms -= 1
        else:
            self._finite -= old
        if new == INF:
            self._inf_terms += 1
        else:
            self._finite += new
        store[key] = new

    def _set_net_cost(self, sig: Signal, new: float) -> None:
        self._set_term_cost(self._net_cost, sig, new)

    def _set_t1_cost(self, t: int, new: float) -> None:
        self._set_term_cost(self._t1_cost, t, new)

    # -- verification / finalisation ----------------------------------------

    def recompute_total(self) -> float:
        """From-scratch recomputation of the schedule cost (test oracle)."""
        st = self.st
        stages = self.stages
        b = None
        if self.include_po:
            mx = max(
                (
                    stages[i]
                    for i in range(len(self.netlist.cells))
                    if st.clocked[i] and stages[i] is not None
                ),
                default=0,
            )
            b = mx + 1
        inf = 0
        fin = 0.0
        for sig, cons in st.nets.items():
            ds = stages[sig[0]]
            cs = [stages[c] for c in cons]
            cost = _net_term_cost(
                ds,  # type: ignore[arg-type]
                min(cs) if cs else None,  # type: ignore[type-var]
                max(cs) if cs else None,  # type: ignore[type-var]
                b if sig in st.po_signals else None,
                self.n,
            )
            if cost == INF:
                inf += 1
            else:
                fin += cost
        for i, is_t1 in enumerate(st.is_t1):
            if not is_t1:
                continue
            cost = self._t1(
                stages[i],  # type: ignore[arg-type]
                [stages[d] for d in st.fanin_drivers[i]],  # type: ignore[misc]
            )
            if cost == INF:
                inf += 1
            else:
                fin += cost
        return INF if inf else fin

    def check_invariants(self) -> None:
        """Raise TimingError when a maintained value diverged from scratch.

        Compares the running total, every net/T1 term, the boundary and
        the feasible-PO residue and per-stage counts against a
        from-scratch recomputation.
        """
        st = self.st
        stages = self.stages
        b = self.boundary()
        if self.include_po:
            mx = max(
                (
                    stages[i]
                    for i in range(len(self.netlist.cells))
                    if st.clocked[i] and stages[i] is not None
                ),
                default=0,
            )
            if b != mx + 1:
                raise TimingError(f"stale boundary: kept {b}, actual {mx + 1}")
        by_residue = [0] * self.n
        by_stage: Dict[int, int] = {}
        for sig, cons in st.nets.items():
            cs = [stages[c] for c in cons]
            want = _net_term_cost(
                stages[sig[0]],  # type: ignore[arg-type]
                min(cs) if cs else None,  # type: ignore[type-var]
                max(cs) if cs else None,  # type: ignore[type-var]
                b if sig in st.po_signals else None,
                self.n,
            )
            if self._net_cost[sig] != want:
                raise TimingError(
                    f"net {sig}: kept cost {self._net_cost[sig]}, actual {want}"
                )
            if sig in st.po_signals and want != INF:
                ds = stages[sig[0]]
                by_residue[ds % self.n] += 1  # type: ignore[operator]
                by_stage[ds] = by_stage.get(ds, 0) + 1  # type: ignore[index]
        if by_residue != self._po_by_residue:
            raise TimingError(
                f"PO residue counts: kept {self._po_by_residue}, "
                f"actual {by_residue}"
            )
        want_at = [by_stage.get(d, 0) for d in range(max(by_stage, default=-1) + 1)]
        if want_at != self._po_by_stage:
            raise TimingError(
                f"PO per-stage counts: kept {self._po_by_stage}, "
                f"actual {want_at}"
            )
        for i, is_t1 in enumerate(st.is_t1):
            if is_t1:
                want = self._t1(
                    stages[i],  # type: ignore[arg-type]
                    [stages[d] for d in st.fanin_drivers[i]],  # type: ignore[misc]
                )
                if self._t1_cost[i] != want:
                    raise TimingError(
                        f"T1 {i}: kept cost {self._t1_cost[i]}, actual {want}"
                    )
        want_total = self.recompute_total()
        if self.total() != want_total:
            raise TimingError(
                f"running total {self.total()} != recomputed {want_total}"
            )

    def write_stages(self) -> None:
        """Write the stage vector back onto the netlist's clocked cells."""
        for cell in self.netlist.cells:
            if cell.clocked or cell.kind is CellKind.PI:
                cell.stage = self.stages[cell.index]
