"""[P9] Tiered ``auto``: flat at once, the native C loop from a scenario boundary.

Not a paper figure: pins the tiering decision of ``backend="auto"``
(:mod:`repro.simulation.native.tiering`) on the models the end-to-end
benchmark (``perfbench/``) campaigns over, by deterministic counts, so
it holds on any host:

* the 60-block rate-banded gated CCD (``ccd_sweep``'s model: 60 lowered
  ops, one fallback) promotes exactly once, and once the promotion is
  joined every later scenario is one C entry (``native.runs``), with
  traces byte-identical to ``backend="flat"``; the background thread
  records no ``native.compile.*`` counter;
* every other case-study model of ``portfolio`` and ``fault_campaign``'s
  gated engine CCD stays flat: each declines before any lowering, so the
  second run starts no promotion and no thread, and no native compile is
  counted.  That includes ``comfort_closing``, a bare expression root
  whose one ``expr`` op has string-literal outputs: the pre-lowering
  check counts it as a fallback op, as the emitter would;
* ``compile.simulators`` still counts one compile per simulator: one
  for a tiered serial campaign, one per worker that ran a task of a
  model's first process-pool campaign (the :mod:`bench_scenario_sharding`
  gate).

A 16-scenario campaign, tiered against ``backend="flat"``, is timed as
the median of interleaved run-pair ratios and printed, not gated.
Compiler-less hosts skip: ``auto`` never leaves flat there.
"""

import threading

import pytest

from repro import obs
from repro.casestudy import (build_closed_loop, build_comfort_closing,
                             build_crank_sequencer_std,
                             build_door_lock_control, build_engine_ccd,
                             build_engine_modes_mtd, build_momentum_controller,
                             build_reengineered_fda)
from repro.io import trace_to_json
from repro.scenarios import RandomWalk, Scenario, run_sharded
from repro.simulation import (CompiledSimulator, build_gated_ccd,
                              native_available)
from repro.simulation.native.tiering import join_promotions

from _bench_utils import median_paired_ratio, report
from bench_scenario_sharding import _counted_pool_run, _gated_ccd_workload

pytestmark = pytest.mark.skipif(
    not native_available(),
    reason="tiered auto needs a C compiler (cc/gcc/clang or $CC)")

#: Scenarios and ticks of the ccd_sweep-shaped campaign.
SCENARIOS = 16
TICKS = 250

#: Interleaved run pairs behind the printed median.
PAIRS = 5


def _walks(count=SCENARIOS, ticks=TICKS, salt=0):
    return [Scenario(f"s{index}", {"u": RandomWalk(seed=salt + index,
                                                   start=float(index),
                                                   step=2.0)},
                     ticks=ticks) for index in range(count)]


def _constant_stimuli(root):
    """Each input port held at its type's default (1.0 when untyped)."""
    stimuli = {}
    for port in root.input_ports():
        try:
            stimuli[port.name] = port.port_type.default()
        except NotImplementedError:
            stimuli[port.name] = 1.0
    return stimuli


def _run_joined(simulator, batch):
    """Run *batch*, joining the promotion after the second scenario;
    returns the outcomes and whether the second run started a
    promotion."""
    outcomes = []
    started = False
    for index, scenario in enumerate(batch):
        if index == 2:
            started = simulator._promotion is not None
            assert simulator.join_promotion(timeout=120)
        try:
            outcomes.append(trace_to_json(
                simulator.run(scenario.stimuli, scenario.ticks)))
        except Exception as exc:  # noqa: BLE001 - errors count as runs
            outcomes.append(f"{type(exc).__name__}: {exc}")
    return outcomes, started


def test_p9_gated_ccd_promotes_once_then_one_c_entry_per_scenario():
    gated = _gated_ccd_workload(60)
    batch = _walks()
    flat = CompiledSimulator(gated, backend="flat")
    with obs.session() as telemetry:
        tiered = CompiledSimulator(gated)
        outcomes, started = _run_joined(tiered, batch)
    counters = telemetry.registry.counter_values("")
    assert started
    assert outcomes == _run_joined(flat, batch)[0]
    assert counters["compile.native_promotions"] == 1
    assert counters["native.runs"] == SCENARIOS - 2, (
        "every scenario after the joined promotion is one C entry")
    assert counters["compile.simulators"] == 1
    assert "native.compile.total" not in counters
    assert tiered.schedule.kind == "flat"
    report("P9", f"gated_ccd60: {SCENARIOS} scenarios x {TICKS} ticks -> "
                 f"{counters['compile.native_promotions']:.0f} promotion, "
                 f"{counters['native.runs']:.0f} C entries after the join")


def _declining_models():
    engine_ccd = build_gated_ccd(build_engine_ccd())
    return [("portfolio", root, False) for root in (
        engine_ccd, build_engine_modes_mtd(), build_crank_sequencer_std(),
        build_door_lock_control(), build_comfort_closing(),
        build_momentum_controller(), build_closed_loop(),
        build_reengineered_fda())] \
        + [("fault_campaign", engine_ccd, True)]


def _case_study_batch(root):
    return [Scenario(f"c{index}", _constant_stimuli(root), ticks=40)
            for index in range(6)]


def test_p9_case_study_models_never_promote():
    join_promotions()
    threads = threading.active_count()
    summary = []
    for workload, root, check_types in _declining_models():
        batch = _case_study_batch(root)
        with obs.session() as telemetry:
            simulator = CompiledSimulator(root, check_types=check_types)
            _outcomes, started = _run_joined(simulator, batch)
        counters = telemetry.registry.counter_values("")
        promotions = counters.get("compile.native_promotions", 0)
        compiles = counters.get("native.compile.total", 0)
        summary.append(f"{workload}/{root.name}: {simulator.schedule.kind}, "
                       f"{promotions:.0f} promotions, {compiles:.0f} native "
                       "compiles")
        assert (started, promotions, compiles) == (False, 0, 0), summary[-1]
    assert threading.active_count() == threads, "a declined model started " \
        "a thread"
    report("P9", "\n".join(summary))


@pytest.mark.parallel
def test_p9_compiles_stay_one_per_simulator():
    """A tiered serial campaign counts one compile; the process pool run
    right after it (workers promote too) one per worker that ran a task.
    Pools are warm, so the model's name is new to every pool worker."""
    gated = _gated_ccd_workload(60, name="P9CompileCount")
    batch = _walks(salt=100)
    with obs.session() as telemetry:
        serial = run_sharded(gated, batch, executor="serial")
    assert telemetry.registry.counter("compile.simulators").value == 1
    results, _dispatched, _tasks, workers, compiles = \
        _counted_pool_run(gated, batch)
    assert compiles == len(workers)
    assert [trace_to_json(result.trace) for result in results] \
        == [trace_to_json(result.trace) for result in serial]
    report("P9", f"compile.simulators: 1 serial, {compiles} on "
                 f"{len(workers)} pool workers")


def test_p9_tiered_campaign_vs_flat_informative():
    """Printed, not gated: wall-clock ratios swing with the host."""
    gated = _gated_ccd_workload(60)

    def campaign(backend):
        return lambda: run_sharded(gated, _walks(), executor="serial",
                                   backend=backend)

    campaign("native")()  # a warm shared-object cache, as after set-up
    ratio, t_flat, t_tiered = median_paired_ratio(
        campaign("flat"), campaign("auto"), PAIRS)
    join_promotions()
    report("P9", f"{SCENARIOS}-scenario campaign (median of {PAIRS} "
                 f"pairs): flat {t_flat * 1e3:.1f} ms, tiered auto "
                 f"{t_tiered * 1e3:.1f} ms -> {1 / ratio:.2f}x")
