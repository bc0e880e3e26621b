"""Output check of mapped netlists, independent of the flow that made them.

For every mapped netlist the benchmark produces it runs the static timing
rules (``assert_timing``) and streams random waves through the
pulse-level simulator, comparing each wave against logic simulation of
the *source* network (``verify_streaming``).  The flow's own
``verify`` setting plays no part, and the check always runs outside the
timed region.

:func:`self_test` shows that the check catches corrupted netlists (a
dropped DFF, a complemented gate); every benchmark run calls it, and
``python3 flowbench/check.py`` runs it alone.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional

#: waves streamed per netlist.  The pulse simulator's cost grows
#: linearly with it (about 1 s per 30k-cell netlist at 4 waves), and the
#: timing rules, not the stream, are what catch a misplaced DFF
WAVES = 4


def check_netlist(source, netlist, seed: int) -> Optional[str]:
    """``None`` when *netlist* passes, else a one-line reason."""
    from repro.pipeline.passes import verify_streaming
    from repro.sfq.timing import assert_timing

    try:
        assert_timing(netlist)
        verify_streaming(source, netlist, waves=WAVES, seed=seed)
    except Exception as exc:  # any failure of the check is a finding
        return f"{type(exc).__name__}: {str(exc).splitlines()[0][:160]}"
    return None


def drop_one_dff(netlist) -> None:
    """Corrupt *netlist*: bypass the first DFF that drives another cell."""
    from repro.sfq.netlist import OUT, CellKind

    for cell in netlist.cells:
        if cell.kind is not CellKind.DFF:
            continue
        consumers = netlist.consumers_of((cell.index, OUT))
        if not consumers:
            continue
        for consumer in consumers:
            fanins = netlist.cells[consumer].fanins
            for slot, sig in enumerate(fanins):
                if sig == (cell.index, OUT):
                    netlist.replace_fanin(consumer, slot, cell.fanins[0])
        return
    raise RuntimeError("netlist has no DFF feeding a cell")


def complement_one_gate(netlist) -> None:
    """Corrupt *netlist*: turn the first AND gate into a NAND.

    A complemented gate changes its output on every wave, so the stream
    sees it whenever the gate is observable.  Subtler swaps are caught
    only by chance: turning the same gate into an OR, which differs only
    when its inputs differ, escaped 4 random waves on 4 of 60 seeds
    (and 8 waves on 2 of 60).
    """
    from repro.network.gates import Gate
    from repro.sfq.netlist import CellKind

    for cell in netlist.cells:
        if cell.kind is CellKind.GATE and cell.op is Gate.AND:
            cell.op = Gate.NAND
            return
    raise RuntimeError("netlist has no AND gate")


def self_test(seed: int = 1) -> List[str]:
    """Problems found with the check itself; empty when it works."""
    from repro.circuits import build
    from repro.pipeline import Pipeline

    net = build("adder", "ci")
    problems: List[str] = []
    clean = Pipeline.standard(verify="none").run(net)
    reason = check_netlist(net, clean.netlist, seed)
    if reason is not None:
        problems.append(f"clean netlist rejected: {reason}")
    for corrupt in (drop_one_dff, complement_one_gate):
        ctx = Pipeline.standard(verify="none").run(net)
        corrupt(ctx.netlist)
        if check_netlist(net, ctx.netlist, seed) is None:
            problems.append(f"{corrupt.__name__} not caught")
    return problems


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    problems = self_test()
    for p in problems:
        print(f"self-test: {p}")
    print("self-test:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
