"""Table-I style reporting: rows, ratios, averages, pretty printing.

The paper's table columns, per benchmark:

* T1 cells found / used;
* #DFF for 1φ / 4φ / T1, plus T1-vs-1φ and T1-vs-4φ ratios;
* area (JJ) for 1φ / 4φ / T1, plus ratios;
* depth (cycles) for 1φ / 4φ / T1, plus ratios;
* geometric-free arithmetic averages of the ratio columns (as in the
  paper's "Average" row).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.batch import ResumedResult
    from repro.pipeline.context import FlowContext

#: one finished flow run: fresh, or replayed from a batch journal
FlowRun = Union["FlowContext", "ResumedResult"]


def fmt_thousands(value: int) -> str:
    """The paper's 32'768-style thousands separator."""
    return f"{value:,}".replace(",", "'")


@dataclass
class TableRow:
    """One benchmark's results across the three flows."""

    name: str
    t1_found: int
    t1_used: int
    dff_1phi: int
    dff_nphi: int
    dff_t1: int
    area_1phi: int
    area_nphi: int
    area_t1: int
    depth_1phi: int
    depth_nphi: int
    depth_t1: int

    # -- ratio columns ------------------------------------------------------

    @property
    def dff_ratio_1phi(self) -> float:
        return self.dff_t1 / self.dff_1phi if self.dff_1phi else float("nan")

    @property
    def dff_ratio_nphi(self) -> float:
        return self.dff_t1 / self.dff_nphi if self.dff_nphi else float("nan")

    @property
    def area_ratio_1phi(self) -> float:
        return self.area_t1 / self.area_1phi if self.area_1phi else float("nan")

    @property
    def area_ratio_nphi(self) -> float:
        return self.area_t1 / self.area_nphi if self.area_nphi else float("nan")

    @property
    def depth_ratio_1phi(self) -> float:
        return self.depth_t1 / self.depth_1phi if self.depth_1phi else float("nan")

    @property
    def depth_ratio_nphi(self) -> float:
        return self.depth_t1 / self.depth_nphi if self.depth_nphi else float("nan")

    @staticmethod
    def from_results(name: str, results: Dict[str, FlowRun]) -> "TableRow":
        """Build a row from the ``"1phi"``/``"nphi"``/``"t1"`` flow runs."""
        one, multi, t1 = results["1phi"], results["nphi"], results["t1"]
        return TableRow(
            name=name,
            t1_found=t1.t1_found,
            t1_used=t1.t1_used,
            dff_1phi=one.num_dffs,
            dff_nphi=multi.num_dffs,
            dff_t1=t1.num_dffs,
            area_1phi=one.area_jj,
            area_nphi=multi.area_jj,
            area_t1=t1.area_jj,
            depth_1phi=one.depth_cycles,
            depth_nphi=multi.depth_cycles,
            depth_t1=t1.depth_cycles,
        )


@dataclass
class Table:
    """The full Table-I reproduction."""

    rows: List[TableRow]
    n_phases: int = 4

    def averages(self) -> Dict[str, float]:
        def avg(values: Sequence[float]) -> float:
            vals = [v for v in values if v == v]  # drop NaN
            return sum(vals) / len(vals) if vals else float("nan")

        return {
            "dff_ratio_1phi": avg([r.dff_ratio_1phi for r in self.rows]),
            "dff_ratio_nphi": avg([r.dff_ratio_nphi for r in self.rows]),
            "area_ratio_1phi": avg([r.area_ratio_1phi for r in self.rows]),
            "area_ratio_nphi": avg([r.area_ratio_nphi for r in self.rows]),
            "depth_ratio_1phi": avg([r.depth_ratio_1phi for r in self.rows]),
            "depth_ratio_nphi": avg([r.depth_ratio_nphi for r in self.rows]),
        }

    def format(self) -> str:
        n = self.n_phases
        header = (
            f"{'benchmark':<12} {'T1 found':>8} {'used':>6} "
            f"{'#DFF 1φ':>10} {f'#DFF {n}φ':>9} {'#DFF T1':>9} "
            f"{'r/1φ':>6} {f'r/{n}φ':>6} "
            f"{'Area 1φ':>10} {f'Area {n}φ':>10} {'Area T1':>10} "
            f"{'r/1φ':>6} {f'r/{n}φ':>6} "
            f"{'D 1φ':>6} {f'D {n}φ':>6} {'D T1':>6} "
            f"{'r/1φ':>6} {f'r/{n}φ':>6}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.name:<12} {r.t1_found:>8} {r.t1_used:>6} "
                f"{fmt_thousands(r.dff_1phi):>10} {fmt_thousands(r.dff_nphi):>9} "
                f"{fmt_thousands(r.dff_t1):>9} "
                f"{r.dff_ratio_1phi:>6.2f} {r.dff_ratio_nphi:>6.2f} "
                f"{fmt_thousands(r.area_1phi):>10} {fmt_thousands(r.area_nphi):>10} "
                f"{fmt_thousands(r.area_t1):>10} "
                f"{r.area_ratio_1phi:>6.2f} {r.area_ratio_nphi:>6.2f} "
                f"{r.depth_1phi:>6} {r.depth_nphi:>6} {r.depth_t1:>6} "
                f"{r.depth_ratio_1phi:>6.2f} {r.depth_ratio_nphi:>6.2f}"
            )
        a = self.averages()
        lines.append("-" * len(header))
        lines.append(
            f"{'Average':<12} {'':>8} {'':>6} {'':>10} {'':>9} {'':>9} "
            f"{a['dff_ratio_1phi']:>6.2f} {a['dff_ratio_nphi']:>6.2f} "
            f"{'':>10} {'':>10} {'':>10} "
            f"{a['area_ratio_1phi']:>6.2f} {a['area_ratio_nphi']:>6.2f} "
            f"{'':>6} {'':>6} {'':>6} "
            f"{a['depth_ratio_1phi']:>6.2f} {a['depth_ratio_nphi']:>6.2f}"
        )
        return "\n".join(lines)

    def as_dicts(self) -> List[Dict[str, object]]:
        out = []
        for r in self.rows:
            out.append(
                {
                    "benchmark": r.name,
                    "t1_found": r.t1_found,
                    "t1_used": r.t1_used,
                    "dff": (r.dff_1phi, r.dff_nphi, r.dff_t1),
                    "area": (r.area_1phi, r.area_nphi, r.area_t1),
                    "depth": (r.depth_1phi, r.depth_nphi, r.depth_t1),
                    "dff_ratio_nphi": r.dff_ratio_nphi,
                    "area_ratio_nphi": r.area_ratio_nphi,
                    "depth_ratio_nphi": r.depth_ratio_nphi,
                }
            )
        return out


#: the paper's Table I, used by EXPERIMENTS.md comparisons and tests
PAPER_TABLE1: Dict[str, Dict[str, object]] = {
    "adder": {
        "found": 127, "used": 127,
        "dff": (32768, 7963, 5958), "dff_r": (0.18, 0.75),
        "area": (238419, 64784, 48844), "area_r": (0.20, 0.75),
        "depth": (128, 32, 33), "depth_r": (0.26, 1.03),
    },
    "c7552": {
        "found": 17, "used": 9,
        "dff": (2489, 713, 765), "dff_r": (0.31, 1.07),
        "area": (32038, 19606, 19907), "area_r": (0.62, 1.02),
        "depth": (16, 4, 5), "depth_r": (0.31, 1.25),
    },
    "c6288": {
        "found": 142, "used": 142,
        "dff": (2625, 1431, 1349), "dff_r": (0.51, 0.94),
        "area": (47198, 38840, 35386), "area_r": (0.75, 0.91),
        "depth": (29, 8, 10), "depth_r": (0.34, 1.25),
    },
    "sin": {
        "found": 81, "used": 77,
        "dff": (13416, 4631, 4714), "dff_r": (0.35, 1.02),
        "area": (164938, 103443, 102806), "area_r": (0.62, 0.99),
        "depth": (88, 22, 25), "depth_r": (0.28, 1.14),
    },
    "voter": {
        "found": 252, "used": 252,
        "dff": (10651, 5779, 5584), "dff_r": (0.52, 0.97),
        "area": (222101, 187997, 182972), "area_r": (0.82, 0.97),
        "depth": (38, 10, 11), "depth_r": (0.29, 1.10),
    },
    "square": {
        "found": 861, "used": 806,
        "dff": (44675, 16645, 14304), "dff_r": (0.32, 0.86),
        "area": (525311, 329101, 301287), "area_r": (0.57, 0.92),
        "depth": (126, 32, 32), "depth_r": (0.25, 1.00),
    },
    "multiplier": {
        "found": 824, "used": 769,
        "dff": (58717, 14641, 13745), "dff_r": (0.23, 0.94),
        "area": (682792, 374260, 356984), "area_r": (0.52, 0.95),
        "depth": (136, 33, 36), "depth_r": (0.26, 1.09),
    },
    "log2": {
        "found": 644, "used": 593,
        "dff": (86985, 33790, 33946), "dff_r": (0.39, 1.00),
        "area": (978178, 605813, 598292), "area_r": (0.61, 0.99),
        "depth": (160, 40, 47), "depth_r": (0.29, 1.18),
    },
}

#: the paper's Average row
PAPER_AVERAGES = {
    "dff_ratio_1phi": 0.35,
    "dff_ratio_nphi": 0.94,
    "area_ratio_1phi": 0.59,
    "area_ratio_nphi": 0.94,
    "depth_ratio_1phi": 0.29,
    "depth_ratio_nphi": 1.13,
}
