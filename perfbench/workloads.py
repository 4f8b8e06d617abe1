"""The four campaign workloads of the end-to-end benchmark.

Every workload runs the user pipeline of the library through its public
API: build the models (``repro.casestudy`` or a synthetic CCD), lint them
(``repro.analysis.lint``), compile every backend *arm*
(``CompiledSimulator``), run a scenario campaign (``run_with_report`` or
``search_coverage``) and fold it into a ``BatchReport`` / ``SearchReport``.

Inputs are a pure function of the seed: :meth:`Workload.battery` builds a
fresh scenario battery (fresh generator objects, so no cached draws) from
``(seed, pass index)``, and every arm gets its own copy.

The correctness oracle lives here too: every arm must reproduce the
``auto`` arm byte for byte (traces, error strings, mode histories, the
deterministic projection of the report), a seeded sample per model must
match the reference ``Simulator``, and isolated errors must be exactly the
scenarios that were built to fail (or errors the reference also raises).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.lint import lint_model
from repro.casestudy import (build_closed_loop, build_comfort_closing,
                             build_crank_sequencer_std,
                             build_door_lock_control, build_engine_ccd,
                             build_engine_modes_mtd, build_momentum_controller,
                             build_reengineered_fda)
from repro.core.components import Component, ExpressionComponent
from repro.core.types import BoolType, EnumType, FloatType, IntType
from repro.io.json_io import trace_to_json, trace_to_json_dict
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.scenarios import (Dropout, ModeSequence, OutOfRange, RandomWalk,
                             Scenario, StuckAt, run_with_report)
from repro.search import SearchConfig, search_coverage
from repro.simulation import CompiledSimulator, Simulator, build_gated_ccd
from repro.simulation.schedule_ir import is_flattenable
from repro.transformations.clustering import cluster_by_clock

#: Value ranges of the untyped / unbounded float ports of the case studies
#: (the FDA's ports carry plain ``float``); everything else uses its type.
PORT_RANGES = {"n": (0.0, 8000.0), "ped": (0.0, 100.0),
               "t_eng": (-40.0, 150.0)}
DEFAULT_RANGE = (0.0, 100.0)


def pass_rng(seed: int, index: int, salt: str) -> random.Random:
    """The random stream of one battery: a function of seed, pass, salt."""
    return random.Random(f"{seed}/{index}/{salt}")


def no_span(name: str, **attributes: Any) -> Any:
    """The span hook of untimed-layer runs: does nothing."""
    return nullcontext()


# --------------------------------------------------------------------------
# models
# --------------------------------------------------------------------------

@dataclass
class Model:
    """One model of a workload.

    *root* is the model as the user builds it (``auto`` arm, reference
    simulator); *flat_root* is the same model wrapped in a pass-through DFD
    when the root itself cannot be flattened, which is how the native and
    batch arms reach MTD / STD / atomic roots.
    """

    name: str
    root: Component
    flat_root: Component

    @property
    def wrapper_prefix(self) -> Optional[str]:
        if self.flat_root is self.root:
            return None
        return self.flat_root.name + "/"

    def component_for(self, arm: str) -> Component:
        return self.root if arm == "auto" else self.flat_root


def pass_through(component: Component) -> DataFlowDiagram:
    """A flattenable pass-through DFD around an unflattenable root."""
    dfd = DataFlowDiagram(f"{component.name}Wrap")
    for name in component.input_names():
        dfd.add_input(name)
    for name in component.output_names():
        dfd.add_output(name)
    dfd.add_subcomponent(component)
    for name in component.input_names():
        dfd.connect(name, f"{component.name}.{name}")
    for name in component.output_names():
        dfd.connect(f"{component.name}.{name}", name)
    return dfd


def make_model(name: str, root: Component) -> Model:
    return Model(name, root, root if is_flattenable(root)
                 else pass_through(root))


def rate_banded_chain(length: int) -> DataFlowDiagram:
    """A chain of expression blocks in two contiguous rate bands plus a
    unit delay: clusters into a simulatable two-cluster CCD."""
    dfd = DataFlowDiagram(f"Chain{length}")
    dfd.add_input("u")
    dfd.add_output("y")
    previous = None
    for index in range(length):
        block = ExpressionComponent(f"B{index}", {"out": "in1 + 1"})
        block.declare_interface_from_expressions()
        block.annotate("rate", 1 if index < length // 2 else 10)
        dfd.add_subcomponent(block)
        dfd.connect("u" if previous is None else f"{previous}.out",
                    f"B{index}.in1")
        previous = f"B{index}"
    delay = UnitDelay("Z")
    delay.annotate("rate", 10)
    dfd.add_subcomponent(delay)
    dfd.connect(f"{previous}.out", "Z.in1")
    dfd.connect(f"{previous}.out", "y")
    return dfd


# --------------------------------------------------------------------------
# stimuli
# --------------------------------------------------------------------------

def _value_pool(port: Any) -> Optional[List[Any]]:
    kind = port.port_type
    if isinstance(kind, EnumType):
        return list(kind.literals)
    if isinstance(kind, BoolType):
        return [False, True]
    if isinstance(kind, IntType) and kind.low is not None \
            and kind.high is not None and kind.high - kind.low <= 16:
        return list(range(kind.low, kind.high + 1))
    return None


def _numeric_range(port: Any) -> Tuple[float, float]:
    kind = port.port_type
    if isinstance(kind, FloatType) and kind.low is not None \
            and kind.high is not None:
        return float(kind.low), float(kind.high)
    return PORT_RANGES.get(port.name, DEFAULT_RANGE)


def port_stimulus(port: Any, rng: random.Random, walk: bool) -> Any:
    """A seeded random walk or mode sequence that stays inside the port's
    declared range (discrete ports always get a mode sequence)."""
    pool = _value_pool(port)
    if pool is not None:
        return ModeSequence([(rng.choice(pool), rng.randint(1, 10))
                             for _ in range(rng.randint(3, 9))])
    low, high = _numeric_range(port)
    if walk:
        return RandomWalk(rng.randrange(1 << 30),
                          start=rng.uniform(low, high),
                          step=(high - low) / 25.0, low=low, high=high)
    return ModeSequence([(round(rng.uniform(low, high), 1),
                          rng.randint(2, 12))
                         for _ in range(rng.randint(3, 9))])


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Workload:
    """A named campaign: models, arms, executor and a seeded battery."""

    name = ""
    arms: Tuple[str, ...] = ("auto",)
    executor = "serial"
    check_types = False

    def build(self) -> List[Model]:
        raise NotImplementedError

    def battery(self, model: Model, seed: int,
                index: int) -> Tuple[List[Scenario], Set[str]]:
        """Fresh scenarios for one pass, plus the names built to fail."""
        raise NotImplementedError


class Portfolio(Workload):
    name = "portfolio"
    arms = ("auto", "native")
    scenarios = 6
    ticks = 80

    def build(self) -> List[Model]:
        return [make_model(name, root) for name, root in (
            ("engine_ccd", build_gated_ccd(build_engine_ccd())),
            ("engine_modes", build_engine_modes_mtd()),
            ("crank_sequencer", build_crank_sequencer_std()),
            ("door_lock", build_door_lock_control()),
            ("comfort_closing", build_comfort_closing()),
            ("momentum", build_momentum_controller()),
            ("closed_loop", build_closed_loop()),
            ("reengineered_fda", build_reengineered_fda()))]

    def battery(self, model, seed, index):
        rng = pass_rng(seed, index, model.name)
        ports = model.root.input_ports()
        return [Scenario(f"{model.name}-{index}-{number}",
                         {port.name: port_stimulus(port, rng, number % 2 == 0)
                          for port in ports}, self.ticks)
                for number in range(self.scenarios)], set()


class CcdSweep(Workload):
    name = "ccd_sweep"
    arms = ("auto", "native", "batch")
    blocks = 60
    scenarios = 16
    ticks = 250

    def build(self) -> List[Model]:
        ccd, _ = cluster_by_clock(rate_banded_chain(self.blocks))
        return [make_model("gated_ccd60", build_gated_ccd(ccd))]

    def battery(self, model, seed, index):
        rng = pass_rng(seed, index, model.name)
        return [Scenario(f"s{index}-{number}",
                         {"u": RandomWalk(rng.randrange(1 << 30),
                                          start=rng.uniform(-50.0, 50.0),
                                          step=2.0)}, self.ticks)
                for number in range(self.scenarios)], set()


class FaultCampaign(Workload):
    name = "fault_campaign"
    arms = ("auto", "native")
    executor = "process"
    check_types = True
    scenarios = 16
    ticks = 200

    def build(self) -> List[Model]:
        return [make_model("engine_ccd", build_gated_ccd(build_engine_ccd()))]

    def battery(self, model, seed, index):
        rng = pass_rng(seed, index, model.name)
        battery: List[Scenario] = []
        failing: Set[str] = set()
        for number in range(self.scenarios):
            stimuli: Dict[str, Any] = {
                "throttle_angle": RandomWalk(rng.randrange(1 << 30),
                                             start=rng.uniform(0.0, 100.0),
                                             step=3.0, low=0.0, high=100.0),
                "n": RandomWalk(rng.randrange(1 << 30),
                                start=rng.uniform(0.0, 3000.0),
                                step=150.0, low=0.0, high=8000.0),
                "ped": RandomWalk(rng.randrange(1 << 30),
                                  start=rng.uniform(0.0, 100.0),
                                  step=4.0, low=0.0, high=100.0)}
            name = f"f{index}-{number}"
            fault = number % 4
            if fault == 0:
                # an rpm spike outside float[0..8000]: a pinned TypeCheckError
                stimuli["n"] = OutOfRange(
                    stimuli["n"],
                    [rng.randrange(self.ticks // 4, self.ticks)], 9500.0)
                failing.add(name)
            elif fault == 1:
                stimuli["ped"] = Dropout(stimuli["ped"],
                                         rng.randrange(1 << 30), 0.15)
            else:
                stimuli["throttle_angle"] = StuckAt(
                    stimuli["throttle_angle"], round(rng.uniform(0, 100), 1),
                    rng.randrange(self.ticks // 2))
            battery.append(Scenario(name, stimuli, self.ticks))
        return battery, failing


class CoverageSearch(Workload):
    """One pass is one search seed (``search_coverage`` is auto-only)."""

    name = "coverage_search"
    rounds = 12
    population = 16

    def build(self) -> List[Model]:
        return [make_model("engine_modes", build_engine_modes_mtd())]

    def weak_battery(self) -> List[Scenario]:
        """Never leaves ``Off``: the search has to earn every transition."""
        return [Scenario("weak", {"n": 0.0, "ped": 0.0, "t_eng": 20.0},
                         ticks=20)]

    def search(self, model: Model, seed: int, index: int) -> Any:
        search_seed = pass_rng(seed, index, "search").randrange(1 << 30)
        return search_coverage(model.root, self.weak_battery(),
                               SearchConfig(seed=search_seed,
                                            max_rounds=self.rounds,
                                            population=self.population,
                                            minimize=True))


WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in (
    Portfolio(), CcdSweep(), CoverageSearch(), FaultCampaign())}


def pool_workers() -> int:
    """Workers of the process-pool campaigns: at most two, never more than
    the host has CPUs (a one-CPU host runs a one-worker pool)."""
    return max(1, min(2, os.cpu_count() or 1))


# --------------------------------------------------------------------------
# set-up: build -> lint -> compile every arm
# --------------------------------------------------------------------------

@dataclass
class SetupResult:
    models: List[Model]
    lint_findings: int
    simulators: Dict[str, List[CompiledSimulator]]
    skipped: List[str] = field(default_factory=list)

    def arms(self, workload: Workload) -> List[str]:
        return [arm for arm in workload.arms if arm not in self.skipped]


def set_up(workload: Workload, cache_dir: str,
           span: Callable[..., Any] = no_span) -> SetupResult:
    """Build, lint and compile every arm with a fresh native cache.

    *span* wraps each layer call (a no-op context outside traced runs).
    A native arm whose compile degraded to flat (no C compiler) is
    reported as skipped, never measured under the native label.
    """
    os.environ["REPRO_NATIVE_CACHE"] = cache_dir
    with span("casestudy.build"):
        models = workload.build()
    findings = 0
    for model in models:
        with span("lint_model", model=model.name):
            findings += len(lint_model(model.root).findings)
    simulators: Dict[str, List[CompiledSimulator]] = {}
    for arm in workload.arms:
        simulators[arm] = []
        for model in models:
            with span("CompiledSimulator", model=model.name, arm=arm):
                simulators[arm].append(CompiledSimulator(
                    model.component_for(arm),
                    check_types=workload.check_types, backend=arm))
    skipped = [arm for arm in ("native",) if arm in simulators and any(
        simulator.schedule.kind != "native"
        for simulator in simulators[arm])]
    return SetupResult(models, findings, simulators, skipped)


# --------------------------------------------------------------------------
# one campaign pass
# --------------------------------------------------------------------------

@dataclass
class ArmOutcome:
    elapsed: float
    ticks: int
    results: List[List[Any]]       # per model, in battery order
    reports: List[Any]             # per model BatchReport


@dataclass
class PassOutcome:
    index: int
    arms: Dict[str, ArmOutcome]
    expected_errors: List[Set[str]]

    def elapsed(self) -> float:
        return sum(outcome.elapsed for outcome in self.arms.values())


Runner = Callable[[Workload, Component, List[Scenario], str],
                  Tuple[List[Any], Any]]


def run_campaign(workload: Workload, component: Component,
                 battery: List[Scenario], arm: str) -> Tuple[List[Any], Any]:
    """One model's campaign on one arm: ``run_with_report``."""
    results, report = run_with_report(
        component, battery, executor=workload.executor,
        max_workers=pool_workers(), check_types=workload.check_types,
        backend=arm)
    return list(results), report


def campaign_pass(workload: Workload, setup: SetupResult, seed: int,
                  index: int, runner: Runner = run_campaign) -> PassOutcome:
    """Run every arm over fresh copies of the pass's battery.

    Timed from dispatch to the final report; battery construction (no
    generator draws happen there) stays outside the timed region.
    """
    arms: Dict[str, ArmOutcome] = {}
    expected: List[Set[str]] = []
    for arm in setup.arms(workload):
        batteries = [workload.battery(model, seed, index)
                     for model in setup.models]
        expected = [failing for _, failing in batteries]
        results: List[List[Any]] = []
        reports: List[Any] = []
        start = time.perf_counter()
        for model, (battery, _) in zip(setup.models, batteries):
            outcome, report = runner(workload, model.component_for(arm),
                                     battery, arm)
            results.append(outcome)
            reports.append(report)
        elapsed = time.perf_counter() - start
        arms[arm] = ArmOutcome(elapsed, sum(r.total_ticks for r in reports),
                               results, reports)
    return PassOutcome(index, arms, expected)


def search_pass(workload: CoverageSearch, setup: SetupResult, seed: int,
                index: int) -> Tuple[float, Any]:
    """One search seed to a finished ``SearchReport``."""
    start = time.perf_counter()
    report = workload.search(setup.models[0], seed, index)
    return time.perf_counter() - start, report


#: Passes below this count run even when the time budget has elapsed.
MIN_PASSES = 3


#: Wall time of one calibration loop on the unloaded reference host (a
#: 2-vCPU VM).  It only scales reported timings into reference seconds.
REFERENCE_CALIBRATION_S = 0.0026


def calibration_loop() -> float:
    """Seconds one fixed pure-Python workload takes right now.

    The loop does what the simulators do most -- build small dicts, call
    functions, float arithmetic -- so it slows down with the host.
    """
    def react(env: Dict[str, float], k: int) -> Dict[str, float]:
        return {"a": env["a"] * 1.0001 + k, "b": env["b"] - k * 0.5,
                "c": (env["a"] + env["b"]) % 7.0}

    env = {"a": 1.0, "b": 2.0, "c": 0.0}
    start = time.perf_counter()
    for k in range(6000):
        env = react(env, k)
    return time.perf_counter() - start


class ReferenceClock:
    """Turns wall times into reference seconds.

    A small shared host switches between speed states: the same work
    takes up to ~1.8x longer in the slow one, for stretches of seconds to
    minutes, so raw timings drift from run to run with the host.  Each
    timed sample is bracketed by calibration loops and scaled by
    ``REFERENCE_CALIBRATION_S`` over their mean, which cancels the state
    the sample ran in.  Benchmark code only: no library code runs in the
    loop, so a change to the library cannot move the calibration.
    """

    def __init__(self) -> None:
        self.calibrations: List[float] = []
        self._before = 0.0

    @staticmethod
    def _probe() -> float:
        return min(calibration_loop(), calibration_loop())

    def start(self) -> None:
        self._before = self._probe()

    def factor(self) -> float:
        """Reference seconds per wall second of the sample just timed."""
        speed = (self._before + self._probe()) / 2
        self.calibrations.append(speed)
        return REFERENCE_CALIBRATION_S / speed

    def describe(self, extra: Dict[str, float]) -> None:
        extra["host.calibration_ms.p50"] = \
            1e3 * statistics.median(self.calibrations)


#: Scenarios per model and pass checked against the reference interpreter,
#: in the first REFERENCE_PASSES passes (the interpreter is slow).
REFERENCE_SAMPLES = 1
REFERENCE_PASSES = 3
#: Every n-th search seed is searched twice; the two JSON exports must match.
SEARCH_REPEAT_EVERY = 4


def campaign_passes(workload: Any, setup: Any, seed: int, seconds: float,
                    extra: Dict[str, float], deadline_share: float = 1.0
                    ) -> Tuple[List[float], int, int, Dict[str, List[float]]]:
    """Campaign (or search) passes until the time budget is spent.

    Returns per-pass times and the per-pass ticks-per-second of every arm
    (both in reference seconds, see :class:`ReferenceClock`), and the
    attempted and failed operations.
    """
    deadline = time.perf_counter() + seconds * deadline_share
    clock = ReferenceClock()
    passes: List[float] = []
    raw: List[float] = []
    throughput: Dict[str, List[float]] = {arm: [] for arm in workload.arms}
    attempted = failed = 0
    index = 0
    while index < MIN_PASSES or time.perf_counter() < deadline:
        clock.start()
        if isinstance(workload, CoverageSearch):
            elapsed, report = search_pass(workload, setup, seed, index)
            factor = clock.factor()
            attempted += report.evaluations
            if index % SEARCH_REPEAT_EVERY == 0:
                _, again = search_pass(workload, setup, seed, index)
                if again.to_json() != report.to_json():
                    failed += report.evaluations
            throughput["auto"].append(report.batch_report.total_ticks
                                      / (elapsed * factor))
            extra["search.evaluations"] = extra.get(
                "search.evaluations", 0) + report.evaluations
        else:
            outcome = campaign_pass(workload, setup, seed, index)
            factor = clock.factor()
            elapsed = outcome.elapsed()
            attempted += attempted_in(outcome)
            failed += check_pass(
                workload, setup, outcome, seed,
                REFERENCE_SAMPLES if index < REFERENCE_PASSES else 0)
            for arm, arm_outcome in outcome.arms.items():
                throughput[arm].append(
                    arm_outcome.ticks / (arm_outcome.elapsed * factor))
            extra["scenarios.errors_isolated"] = sum(
                1 for results in outcome.arms["auto"].results
                for result in results if not result.ok)
        raw.append(elapsed)
        passes.append(elapsed * factor)
        index += 1
    clock.describe(extra)
    extra["raw.campaign_s.p50"] = statistics.median(raw)
    extra["passes"] = index
    return passes, attempted, failed, throughput


# --------------------------------------------------------------------------
# the oracle
# --------------------------------------------------------------------------

def _strip(path: str, prefix: Optional[str]) -> str:
    return path[len(prefix):] if prefix and path.startswith(prefix) else path


def canonical_result(result: Any, prefix: Optional[str]) -> str:
    """Arm-independent bytes of one scenario outcome.

    Traces compare by their ``trace_to_json`` streams; the component name
    and root mode history differ legitimately between a root and its
    pass-through wrapper, and the per-tick mode observation (normalized
    machine paths) carries the same information for every arm.
    """
    if not result.ok:
        return "error:" + result.error
    data = trace_to_json_dict(result.trace)
    modes = {_strip(path, prefix): [str(mode) for mode in history]
             for path, history in (result.mode_paths or {}).items()}
    return json.dumps({"ticks": data["ticks"], "inputs": data["inputs"],
                       "outputs": data["outputs"], "modes": modes},
                      sort_keys=True)


def report_projection(report: Any, prefix: Optional[str]) -> str:
    """The deterministic projection of a BatchReport: counts, failures,
    coverage and port statistics -- no timing, no component name."""
    data = report.to_json_dict()
    data.pop("component")
    data["scenarios"].pop("total_duration_s")
    for machine in data["coverage"]["machines"]:
        machine["path"] = _strip(machine["path"], prefix)
    return json.dumps(data, sort_keys=True, default=str)


def reference_outcome(model: Model, scenario: Scenario,
                      check_types: bool) -> str:
    """The reference interpreter's full ``trace_to_json`` or error."""
    try:
        trace = Simulator(model.root, check_types=check_types).run(
            scenario.stimuli, scenario.ticks)
    except Exception as exc:  # noqa: BLE001 - the error string is the oracle
        return f"error:{type(exc).__name__}: {exc}"
    return trace_to_json(trace)


def auto_full(result: Any) -> str:
    return ("error:" + result.error) if not result.ok \
        else trace_to_json(result.trace)


def check_pass(workload: Workload, setup: SetupResult, outcome: PassOutcome,
               seed: int, reference_samples: int) -> int:
    """Number of failed operations (scenario x arm) in one pass."""
    failed = 0
    auto = outcome.arms["auto"]
    for position, model in enumerate(setup.models):
        expected = outcome.expected_errors[position]
        prefix = model.wrapper_prefix
        auto_results = auto.results[position]
        auto_canon = [canonical_result(result, None)
                      for result in auto_results]
        auto_projection = report_projection(auto.reports[position], None)
        fresh, _ = workload.battery(model, seed, outcome.index)
        # errors must be exactly the scenarios built to fail, unless the
        # reference interpreter raises the very same error (pinned)
        for scenario, result in zip(fresh, auto_results):
            if (not result.ok) != (scenario.name in expected) and \
                    reference_outcome(model, scenario, workload.check_types
                                      ) != auto_full(result):
                failed += 1
        sample = pass_rng(seed, outcome.index, "reference").sample(
            range(len(fresh)), min(reference_samples, len(fresh)))
        for number in sample:
            if reference_outcome(model, fresh[number], workload.check_types
                                 ) != auto_full(auto_results[number]):
                failed += 1
        for arm, arm_outcome in outcome.arms.items():
            if arm == "auto":
                continue
            arm_results = arm_outcome.results[position]
            if report_projection(arm_outcome.reports[position],
                                 prefix) != auto_projection:
                failed += len(arm_results)
                continue
            for canon, result in zip(auto_canon, arm_results):
                if canonical_result(result, prefix) != canon:
                    failed += 1
    return failed


def attempted_in(outcome: PassOutcome) -> int:
    return sum(len(results) for arm in outcome.arms.values()
               for results in arm.results)
