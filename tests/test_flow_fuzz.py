"""End-to-end fuzzing: random DAGs through the full flow.

Every random network must survive decompose -> strash -> T1 detection ->
mapping -> phase assignment -> DFF insertion with:

* combinational equivalence against the original (T1 taps expanded);
* clean static timing;
* cycle-exact pulse-level streaming at full throughput.

This is the strongest single safety net in the suite: it exercises odd
fanin patterns, reconvergence, dangling logic, constants and multi-use
leaves that the structured benchmark circuits never produce.
"""

import random

import pytest

from repro.network import Gate, LogicNetwork, check_equivalence, simulate_words
from repro.pipeline import Pipeline
from repro.sfq import PulseSimulator, check_timing


def random_network(
    seed: int,
    num_pis: int = 6,
    num_gates: int = 40,
    p_wide: float = 0.3,
) -> LogicNetwork:
    """A random DAG over the mappable gate alphabet."""
    rng = random.Random(seed)
    net = LogicNetwork(f"fuzz{seed}")
    nodes = [net.add_pi(f"x{i}") for i in range(num_pis)]
    binary = [Gate.AND, Gate.OR, Gate.XOR, Gate.NAND, Gate.NOR, Gate.XNOR]
    for _ in range(num_gates):
        roll = rng.random()
        if roll < 0.15:
            node = net.add_not(rng.choice(nodes))
        elif roll < 0.15 + p_wide:
            kind = rng.choice([Gate.AND, Gate.OR, Gate.XOR, Gate.MAJ3])
            fins = rng.sample(nodes, 3) if len(nodes) >= 3 else None
            if fins is None:
                continue
            node = net.add_gate(kind, fins)
        else:
            kind = rng.choice(binary)
            a, b = rng.choice(nodes), rng.choice(nodes)
            if a == b and kind in (Gate.XOR, Gate.XNOR):
                b = rng.choice(nodes)
            node = net.add_gate(kind, (a, b))
        nodes.append(node)
    # outputs: a few random nodes, guaranteed at least one deep node
    out_count = rng.randint(2, 5)
    for i, po in enumerate(rng.sample(nodes[num_pis:], out_count)):
        net.add_po(po, f"y{i}")
    net.add_po(nodes[-1], "deep")
    return net


@pytest.mark.parametrize("seed", range(12))
def test_fuzz_t1_flow_equivalence(seed):
    net = random_network(seed)
    res = Pipeline.standard(n_phases=4, use_t1=True, verify="none").run(net)
    assert check_timing(res.netlist).ok
    cec = check_equivalence(net, res.network, complete=True)
    assert cec.equivalent, cec.counterexample


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n", [1, 3, 4])
def test_fuzz_streaming_matches_logic(seed, n):
    net = random_network(100 + seed, num_gates=25)
    res = Pipeline.standard(
        n_phases=n, use_t1=(n >= 3), verify="none"
    ).run(net)
    rng = random.Random(seed)
    waves = [[rng.randint(0, 1) for _ in net.pis] for _ in range(10)]
    out = PulseSimulator(res.netlist).run(waves)
    for w, vec in enumerate(waves):
        expect = simulate_words(net, [vec])[0]
        assert out.po_values[w] == expect, (seed, n, w)


@pytest.mark.parametrize("seed", range(6))
def test_fuzz_shared_and_unshared_agree_functionally(seed):
    net = random_network(200 + seed, num_gates=20)
    rng = random.Random(seed)
    waves = [[rng.randint(0, 1) for _ in net.pis] for _ in range(6)]
    outs = []
    for share in (True, False):
        res = Pipeline.standard(
            n_phases=4, use_t1=True, share_chains=share, verify="none"
        ).run(net)
        outs.append(PulseSimulator(res.netlist).run(waves).po_values)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("seed", range(6))
def test_fuzz_detection_only_equivalence(seed):
    """Wider networks, detection stressed with more gates."""
    from repro.core.t1_detection import detect_and_replace
    from repro.network.cleanup import strash

    net = random_network(300 + seed, num_pis=8, num_gates=80, p_wide=0.45)
    work, _ = strash(net)
    res = detect_and_replace(work)
    cec = check_equivalence(net, res.network, complete=True)
    assert cec.equivalent, (seed, cec.counterexample)
