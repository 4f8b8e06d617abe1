"""[P2] Compiled engine vs reference interpreter (throughput comparison).

Not a paper figure: quantifies the speedup of the compiled simulation
engine (:mod:`repro.simulation.compiled`) over the tree-walking reference
interpreter on the ``bench_scalability`` workloads -- the flat expression
chain DFD and its clustered, rate-gated CCD form.  The CCD comparison at
1000 ticks is the acceptance gate for the compile-once/run-many split: the
compiled engine must be at least 5x faster while producing a tick-for-tick
identical trace.  Every gate takes the median of interleaved run-pair
ratios (:func:`_bench_utils.median_paired_ratio`), so one slow stretch of
a shared host cannot decide it.  The compiled side is pinned to
``backend="flat"``: a tiered ``auto`` simulator run many times would
switch to the native C loop and time that instead.
"""

import pytest

from repro.core.components import ExpressionComponent
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.simulation import (CompiledSimulator, ScenarioSuite, Simulator,
                              build_gated_ccd, first_difference)
from repro.transformations.clustering import cluster_by_clock

from _bench_utils import median_paired_ratio, report

#: Interleaved run pairs behind each gated median.
PAIRS = 7


def _chain_dfd(length: int, banded: bool = False) -> DataFlowDiagram:
    """The bench_scalability chain; *banded* rates keep the clustered CCD
    causal (contiguous rate bands produce a one-directional inter-cluster
    channel instead of the instantaneous loop that alternating rates do)."""
    dfd = DataFlowDiagram(f"Chain{length}")
    dfd.add_input("u")
    dfd.add_output("y")
    previous = None
    for index in range(length):
        block = ExpressionComponent(f"B{index}", {"out": "in1 + 1"})
        block.declare_interface_from_expressions()
        if banded:
            block.annotate("rate", 1 if index < length // 2 else 10)
        else:
            block.annotate("rate", 1 if index % 2 == 0 else 10)
        dfd.add_subcomponent(block)
        if previous is None:
            dfd.connect("u", f"B{index}.in1")
        else:
            dfd.connect(f"{previous}.out", f"B{index}.in1")
        previous = f"B{index}"
    delay = UnitDelay("Z")
    delay.annotate("rate", 10)
    dfd.add_subcomponent(delay)
    dfd.connect(f"{previous}.out", "Z.in1")
    dfd.connect(f"{previous}.out", "y")
    return dfd


def test_p2_compiled_vs_interpreter_ccd_1000_ticks():
    """Acceptance gate: >= 5x on the clustered, rate-gated CCD workload."""
    ticks = 1000
    ccd, _ = cluster_by_clock(_chain_dfd(80, banded=True))
    gated = build_gated_ccd(ccd)
    stimuli = {"u": [1.0] * ticks}

    reference = Simulator(gated)
    compiled = CompiledSimulator(gated, backend="flat")
    reference_trace = reference.run(stimuli, ticks)
    compiled_trace = compiled.run(stimuli, ticks)
    assert first_difference(reference_trace, compiled_trace) is None

    speedup, t_compiled, t_reference = median_paired_ratio(
        lambda: compiled.run(stimuli, ticks),
        lambda: reference.run(stimuli, ticks), PAIRS)
    report("P2", f"CCD workload, {ticks} ticks (median of {PAIRS} pairs): "
                 f"interpreter {t_reference:.3f}s, compiled "
                 f"{t_compiled:.3f}s -> {speedup:.1f}x")
    assert speedup >= 5.0, (
        f"compiled engine only {speedup:.1f}x faster than interpreter")


@pytest.mark.parametrize("size,ticks", [(20, 1000), (80, 1000)])
def test_p2_compiled_vs_interpreter_dfd(size, ticks):
    dfd = _chain_dfd(size)
    stimuli = {"u": [1.0] * ticks}
    reference = Simulator(dfd)
    compiled = CompiledSimulator(dfd, backend="flat")
    assert first_difference(reference.run(stimuli, ticks),
                            compiled.run(stimuli, ticks)) is None
    speedup, t_compiled, t_reference = median_paired_ratio(
        lambda: compiled.run(stimuli, ticks),
        lambda: reference.run(stimuli, ticks), PAIRS)
    report("P2", f"chain DFD size {size}, {ticks} ticks (median of {PAIRS} "
                 f"pairs): interpreter {t_reference:.3f}s, compiled "
                 f"{t_compiled:.3f}s -> {speedup:.1f}x")
    assert speedup >= 2.0

    trace = compiled.run(stimuli, ticks)
    assert trace.output("y").presence_count() == ticks
    assert trace.output("y")[0] == 1.0 + size


def test_p2_scenario_suite_amortizes_compilation():
    """Batch of scenarios on one schedule vs recompiling per scenario."""
    ticks = 200
    n_scenarios = 20
    dfd = _chain_dfd(40)
    suite = ScenarioSuite(dfd, backend="flat")
    for index in range(n_scenarios):
        suite.add(f"s{index}", {"u": [float(index)] * ticks}, ticks)

    def _one_shot_each():
        for index in range(n_scenarios):
            CompiledSimulator(dfd, backend="flat").run(
                {"u": [float(index)] * ticks}, ticks)

    ratio, t_one_shot, t_suite = median_paired_ratio(
        _one_shot_each, suite.run_all, PAIRS)
    report("P2", f"{n_scenarios} scenarios x {ticks} ticks (median of "
                 f"{PAIRS} pairs): shared schedule {t_suite:.3f}s, "
                 f"compile-per-scenario {t_one_shot:.3f}s")
    traces = suite.run_all()
    assert len(traces) == n_scenarios
    assert ratio <= 1.10  # sharing never meaningfully loses
