"""Library decomposition + structural cleanup (flow stage 1)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.cleanup import strash
from repro.pipeline.context import FlowContext
from repro.sfq.mapping import decompose_to_library


@dataclass
class DecomposePass:
    """Normalise the network to the cell library and structurally hash it."""

    name: str = "decompose"

    def run(self, ctx: FlowContext) -> FlowContext:
        work = decompose_to_library(ctx.network, ctx.library)
        work, _ = strash(work)
        ctx.network = work
        ctx.log(f"decompose: {work.num_gates()} gates after strash")
        return ctx


@dataclass
class BalancePass:
    """Depth-rebalance associative trees (optional, before detection).

    Depth equals DFFs in gate-level-pipelined SFQ, so rebalancing is an
    area optimisation here; insert it after ``decompose`` to reproduce
    ``Pipeline.standard(balance_network=True)``.
    """

    name: str = "balance"

    def run(self, ctx: FlowContext) -> FlowContext:
        from repro.network.balance import balance

        work, _ = balance(ctx.network)
        work, _ = strash(work)
        ctx.network = work
        ctx.log(f"balance: {work.num_gates()} gates after rebalancing")
        return ctx


@dataclass
class RefactorPass:
    """Cut-based MFFC refactoring (optional, before detection).

    Runs the :func:`~repro.network.transforms.refactor` rewrite kernel —
    resynthesise each node's best cut as an ISOP and accept rewrites
    that shrink the MFFC.  Area-reducing and equivalence-preserving;
    insert it after ``decompose`` (or ``balance``) with
    ``Pipeline.with_pass(RefactorPass(), after="decompose")``.

    ``rewrite_passes`` > 1 iterates the kernel, carrying cut/MFFC
    analyses incrementally across the inter-pass strash; ``priority``
    selects the queue order ("topo" = the pinned reference order,
    "gain" = greedy max-gain).
    """

    name: str = "refactor"
    cut_size: int = 4
    cuts_per_node: int = 8
    rewrite_passes: int = 1
    priority: str = "topo"

    def run(self, ctx: FlowContext) -> FlowContext:
        from repro.network.transforms import refactor

        work, accepted = refactor(
            ctx.network,
            cut_size=self.cut_size,
            cuts_per_node=self.cuts_per_node,
            passes=self.rewrite_passes,
            priority=self.priority,
        )
        ctx.network = work
        ctx.log(
            f"refactor: {accepted} rewrites accepted, "
            f"{work.num_gates()} gates"
        )
        return ctx
