"""The traced run: where the time of one workload's campaign goes.

Per-layer numbers are timed from outside the library.  The benchmark
wraps its own calls into each layer's public functions in spans of a
``repro.obs.session`` -- ``casestudy.build``, ``lint_model``,
``CompiledSimulator``, ``run_sharded``, ``BatchReport.observe_result``,
``search_coverage``, ``materialize``, ``run_stepped`` (with a timed step)
and ``execute_scenario`` -- and folds in the spans and counters the
library already records (``compile.*``, ``runner.run_sharded``,
``runner.worker_task``, ``search.round``, ``batch.sweep``; ``native.*``,
``batch.*``, ``runner.*``, ``search.*``).

The run has four phases:

1. a traced set-up (build, lint, compile every arm) plus a direct call of
   the native toolchain on each lowered program, for the compiler time;
2. untraced campaign passes (observability off);
3. the same passes again inside a session with an event log: their spans
   give each layer's self time, and the pass-by-pass ratio to phase 2 is
   the tracing overhead;
4. a probe over one battery that calls materialize / ``run_stepped`` /
   ``execute_scenario`` / ``observe_result`` one by one, giving per-tick
   costs of stimulus generation, the op program (step), the driver and
   mode observation.

Self times are reported per campaign (the set-up plus one pass).  Inside
a serial ``runner.run_sharded`` span no finer spans exist; its scenario
execution time (the runner's own duration histogram) is split across
step / driver / generators / mode observation in the proportions the
probe measured, and the rest stays with the runner as dispatch.  Layers
a workload does not exercise report 0.
"""

from __future__ import annotations

import pickle
import statistics
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.obs.events import EventLog
from repro.scenarios import (BatchReport, execute_scenario, run_sharded)
from repro.simulation import compile_flat
from repro.simulation.engine import run_stepped
from repro.simulation.native import ensure_shared_object
from repro.simulation.schedule_ir import OP_RUN

import workloads

#: Share of --seconds spent in the untraced and traced passes; the rest
#: goes to the probe.
UNTRACED_SHARE = 0.35
TRACED_SHARE = 0.35
#: Traced passes that always run; counts are taken over exactly these.
COUNTED_PASSES = 2

LAYERS = ("casestudy", "analysis.lint", "simulation.compiled",
          "simulation.native", "simulation.step", "simulation.engine",
          "simulation.batch_ir", "scenarios.generators", "scenarios.runner",
          "scenarios.report", "search", "unattributed")

#: Which layer a span's self time belongs to; other names are unattributed.
SPAN_LAYERS = {
    "casestudy.build": "casestudy",
    "lint_model": "analysis.lint",
    "CompiledSimulator": "simulation.compiled",
    "compile.component": "simulation.compiled",
    "compile.flatten": "simulation.compiled",
    "compile.nested": "simulation.compiled",
    "compile.batch_lower": "simulation.compiled",
    "compile.native": "simulation.native",
    "run": "simulation.engine",
    "batch.sweep": "simulation.batch_ir",
    "run_sharded": "scenarios.runner",
    "runner.run_sharded": "scenarios.runner",
    "BatchReport.observe_result": "scenarios.report",
    "search_coverage": "search",
    "search.round": "search",
}

#: Every per-layer metric with its unit (the --trace 1 result).
UNITS: Dict[str, str] = {
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "casestudy.build_s": "s",
    "analysis.lint.s": "s",
    "analysis.lint.findings": "count",
    "simulation.compile.s": "s",
    "simulation.compile.count": "count",
    "simulation.flat.ops": "count",
    "simulation.flat.fallback_ops": "count",
    "simulation.native.cc_s": "s",
    "simulation.native.cache_hits": "count",
    "simulation.native.lowered_ops": "count",
    "simulation.native.fallback_ops": "count",
    "simulation.native.lowered_share": "share",
    "simulation.native.trampolines_per_tick": "count",
    "simulation.step_us_per_tick.auto": "us",
    "simulation.step_us_per_tick.native": "us",
    "simulation.engine.driver_us_per_tick": "us",
    "simulation.batch.sweep_s": "s",
    "simulation.batch.scalar_fallback_ticks": "count",
    "scenarios.generators.materialize_us_per_tick": "us",
    "scenarios.runner.mode_observe_us_per_tick": "us",
    "scenarios.runner.dispatch_us_per_scenario": "us",
    "scenarios.runner.ipc_ms_per_task": "ms",
    "scenarios.runner.payload_bytes": "bytes",
    "scenarios.runner.errors_isolated": "count",
    "scenarios.runner.workers": "count",
    "scenarios.report.fold_us_per_tick": "us",
    "search.breed_s": "s",
    "search.evaluations": "count",
    "search.rounds": "count",
    "search.earned_share": "share",
    "obs.events_per_scenario": "count",
    "obs.tracing_overhead_share": "share",
    "ticks_per_s.native": "1/s",
    "ticks_per_s.batch": "1/s",
}


# --------------------------------------------------------------------------
# span arithmetic
# --------------------------------------------------------------------------

def _children(span: Any) -> List[Any]:
    """Child spans on this process's clock: pool-worker task trees run in
    parallel in other processes, so they are not part of the parent's
    time."""
    return [child for child in span.children
            if child.name != "runner.worker_task"]


def self_times(span: Any, into: Dict[str, float]) -> Dict[str, float]:
    """Add each span's self time (duration minus child spans) to its
    layer."""
    children = _children(span)
    own = span.duration() - sum(child.duration() for child in children)
    layer = SPAN_LAYERS.get(span.name, "unattributed")
    into[layer] = into.get(layer, 0.0) + own
    for child in children:
        self_times(child, into)
    return into


def spans_named(roots: List[Any], name: str) -> List[Any]:
    return [span for root in roots for span in root.walk()
            if span.name == name]


def total(spans: List[Any]) -> float:
    return sum(span.duration() for span in spans)


def _self(span: Any) -> float:
    return span.duration() - total(_children(span))


# --------------------------------------------------------------------------
# the traced campaign runner
# --------------------------------------------------------------------------

class TracedRunner:
    """``run_with_report`` spelled out with spans around the sharded run
    and every report fold; records what each call executed."""

    def __init__(self, telemetry: Any):
        self.telemetry = telemetry
        self.calls: List[Dict[str, Any]] = []

    def executed_seconds(self) -> float:
        return self.telemetry.registry.histogram(
            "runner.scenario.duration_s").sum

    def __call__(self, workload: Any, component: Any, battery: List[Any],
                 arm: str) -> Tuple[List[Any], Any]:
        span = self.telemetry.tracer.span
        report = BatchReport.for_component(component)

        def observe(result: Any) -> None:
            with span("BatchReport.observe_result"):
                report.observe_result(result)

        before = self.executed_seconds()
        with span("run_sharded", component=component.name, arm=arm):
            results = run_sharded(
                component, battery, executor=workload.executor,
                max_workers=workloads.pool_workers(),
                check_types=workload.check_types, backend=arm,
                collect_modes=True, on_result=observe)
        self.calls.append({"arm": arm, "component": component,
                           "battery": battery, "results": list(results),
                           "executed": self.executed_seconds() - before})
        return list(results), report


# --------------------------------------------------------------------------
# phase 4: the probe
# --------------------------------------------------------------------------

def _materialize(spec: Any, ticks: int) -> Any:
    materialize = getattr(spec, "materialize", None)
    if materialize is None or isinstance(spec, (list, tuple)):
        return spec
    return list(materialize(ticks))


class Probe:
    """Per-tick costs of the layers inside one scenario execution."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.ticks: Dict[str, int] = {}
        self.trampolines = 0
        self.native_ticks = 0

    def add(self, key: str, seconds: float, ticks: int) -> None:
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds
        self.ticks[key] = self.ticks.get(key, 0) + ticks

    def us_per_tick(self, key: str) -> float:
        ticks = self.ticks.get(key, 0)
        return 1e6 * self.seconds[key] / ticks if ticks else 0.0

    def scenario(self, span: Any, simulator: Any, arm: str,
                 copies: List[Any], check_types: bool, first: bool) -> None:
        """Probe one scenario; *copies* are three fresh, identical
        copies of it (generators cache their draws).  Trampolines are
        counted on each model's *first* scenario only, so the count does
        not depend on how many scenarios the time budget allowed."""
        stepped, plain, observed = copies
        component = simulator.component
        schedule = simulator.schedule
        with span("materialize") as materialize_span:
            stimuli = {port: _materialize(spec, stepped.ticks)
                       for port, spec in stepped.stimuli.items()}
        step = schedule.step
        clock = time.perf_counter
        spent = [0.0, 0]

        def timed_step(inputs: Any, state: Any, tick: int) -> Any:
            start = clock()
            try:
                return step(inputs, state, tick)
            finally:
                spent[0] += clock() - start
                spent[1] += 1

        trampolines = getattr(schedule, "trampoline_calls", 0)
        with span("run_stepped", arm=arm) as stepped_span:
            try:
                run_stepped(component, timed_step, stimuli, stepped.ticks,
                            check_types,
                            initial_state=schedule.initial_state())
            except Exception:  # noqa: BLE001 - pinned model errors time too
                pass
        ticks = spent[1]
        if not ticks:
            return
        if arm == "native" and first:
            self.trampolines += schedule.trampoline_calls - trampolines
            self.native_ticks += ticks
        self.add("materialize", materialize_span.duration(), ticks)
        self.add(f"step.{arm}", spent[0], ticks)
        self.add(f"driver.{arm}", stepped_span.duration() - spent[0], ticks)
        with span("execute_scenario", collect_modes=False) as plain_span:
            execute_scenario(simulator, plain, collect_modes=False)
        with span("execute_scenario", collect_modes=True) as modes_span:
            result = execute_scenario(simulator, observed, collect_modes=True)
        self.add("modes", modes_span.duration() - plain_span.duration(),
                 ticks)
        report = BatchReport.for_component(component)
        with span("BatchReport.observe_result") as fold_span:
            report.observe_result(result)
        self.add("fold", fold_span.duration(), ticks)

    def shares(self, arm: str) -> Dict[str, float]:
        """The shares of one in-process scenario execution on *arm* that
        belong to layers below the runner; mode observation (the rest)
        stays with the runner."""
        rates = {"simulation.step": self.us_per_tick(f"step.{arm}"),
                 "simulation.engine": self.us_per_tick(f"driver.{arm}"),
                 "scenarios.generators": self.us_per_tick("materialize")}
        whole = sum(rates.values()) + max(0.0, self.us_per_tick("modes"))
        if whole <= 0:
            return {}
        return {layer: rate / whole for layer, rate in rates.items()}


def _copies(scenario: Any) -> List[Any]:
    """Three fresh copies (pickling drops generator caches)."""
    payload = pickle.dumps(scenario)
    return [pickle.loads(payload) for _ in range(3)]


def run_probe(workload: Any, setup: Any, seed: int, deadline: float,
              corpus: Optional[List[Any]]) -> Probe:
    probe = Probe()
    arms = [arm for arm in setup.arms(workload) if arm != "batch"]
    with obs.session() as telemetry:
        span = telemetry.tracer.span
        for position, model in enumerate(setup.models):
            battery = corpus if corpus is not None \
                else workload.battery(model, seed, 0)[0]
            for number, scenario in enumerate(battery):
                if number and time.perf_counter() >= deadline:
                    break
                for arm in arms:
                    probe.scenario(span, setup.simulators[arm][position],
                                   arm, _copies(scenario),
                                   workload.check_types, number == 0)
    return probe


# --------------------------------------------------------------------------
# the run
# --------------------------------------------------------------------------

#: Counter families that are a function of the inputs alone.
COUNTED = ("runner.scenario.", "runner.sweep.count", "runner.sweep.lanes",
           "native.compile.", "native.ops.", "batch.lanes",
           "batch.scalar_fallback", "search.")


class TracedPass:
    """One campaign pass (or search) run inside its own obs session."""

    def __init__(self, workload: Any, setup: Any, seed: int, index: int):
        self.workload = workload
        self.outcome = None
        self.search = None
        events = EventLog()
        with obs.session(events=events) as telemetry:
            self.runner = TracedRunner(telemetry)
            with telemetry.tracer.span("pass", index=index):
                if isinstance(workload, workloads.CoverageSearch):
                    with telemetry.tracer.span("search_coverage"):
                        self.elapsed, self.search = workloads.search_pass(
                            workload, setup, seed, index)
                    self.search_executed = self.runner.executed_seconds()
                else:
                    self.outcome = workloads.campaign_pass(
                        workload, setup, seed, index, self.runner)
                    self.elapsed = self.outcome.elapsed()
        self.root = telemetry.tracer.roots[0]
        self.counters = telemetry.registry.counter_values()
        self.events = len(events.events)

    def attempted(self) -> int:
        if self.search is not None:
            return self.search.evaluations
        return workloads.attempted_in(self.outcome)

    def counts(self) -> Dict[str, float]:
        """The deterministic projection: counters, compiles and events."""
        counts = {name: value for name, value in self.counters.items()
                  if name.startswith(COUNTED)}
        counts["compiles"] = len(spans_named([self.root],
                                             "compile.component"))
        counts["events"] = self.events
        return counts

    def executed(self) -> Dict[str, float]:
        """Seconds of scenario execution inside in-process (serial, not
        batched) runner spans, per arm."""
        if self.search is not None:
            return {"auto": self.search_executed}
        executed: Dict[str, float] = {}
        if self.workload.executor == "serial":
            for call in self.runner.calls:
                if call["arm"] != "batch":
                    executed[call["arm"]] = executed.get(call["arm"], 0.0) \
                        + call["executed"]
        return executed


def _pooled(roots: List[Any]) -> List[Any]:
    return [span for span in spans_named(roots, "runner.run_sharded")
            if span.attributes.get("executor") == "process"]


def count_metrics(workload: Any, traced: List[TracedPass]
                  ) -> Dict[str, float]:
    """Per-pass counts over a fixed set of passes: they repeat exactly
    between two runs with the same seed."""
    passes = len(traced)
    counters: Dict[str, float] = {}
    for record in traced:
        for name, value in record.counts().items():
            counters[name] = counters.get(name, 0) + value
    roots = [record.root for record in traced]
    scenarios = counters.get("runner.scenario.total", 0)
    reports = [record.search for record in traced if record.search]
    evaluated = sum(stats.evaluated for report in reports
                    for stats in report.rounds)
    payload = 0
    if workload.executor == "process":
        for record in traced:
            for call in record.runner.calls:
                payload += workloads.pool_workers() * len(
                    pickle.dumps(call["component"]))
                payload += sum(len(pickle.dumps(item))
                               for item in call["battery"] + call["results"])
    return {
        # compiles per campaign: in-process ones plus one per pool worker
        "simulation.compile.count": (counters["compiles"] + sum(
            span.attributes["workers"] for span in _pooled(roots))) / passes,
        "simulation.native.cache_hits":
            counters.get("native.compile.cache_hits", 0) / passes,
        "simulation.batch.scalar_fallback_ticks":
            counters.get("batch.scalar_fallback_ticks", 0) / passes,
        "scenarios.runner.errors_isolated":
            counters.get("runner.scenario.failed", 0) / passes,
        "scenarios.runner.workers": workloads.pool_workers()
            if workload.executor == "process" else 1,
        # bytes a campaign pickles across the process boundary (the
        # untraced payloads: model per worker, scenarios, results)
        "scenarios.runner.payload_bytes": payload / passes,
        "obs.events_per_scenario":
            counters["events"] / scenarios if scenarios else 0.0,
        "search.evaluations": counters.get("search.evaluations", 0) / passes,
        "search.rounds": counters.get("search.rounds", 0) / passes,
        "search.earned_share": sum(
            stats.earned for report in reports for stats in report.rounds)
            / evaluated if evaluated else 0.0,
    }


def pass_timings(workload: Any, traced: List[TracedPass]
                 ) -> Dict[str, float]:
    """Per-pass layer timings from the spans of every traced pass."""
    passes = len(traced)
    roots = [record.root for record in traced]
    pooled = _pooled(roots)
    # pool overhead: worker time not spent in tasks, per task
    tasks = [child for span in pooled for child in span.children
             if child.name == "runner.worker_task"]
    idle = sum(span.attributes["workers"] * span.duration()
               for span in pooled) - total(tasks)
    # runner self time beyond executing scenarios, per in-process scenario
    in_process = [span for span in spans_named(roots, "runner.run_sharded")
                  if span.attributes.get("executor") == "serial"
                  and span.attributes.get("backend") != "batch"]
    dispatched = sum(span.attributes.get("scenarios", 0)
                     for span in in_process)
    executed = sum(sum(record.executed().values()) for record in traced)
    return {
        "simulation.batch.sweep_s":
            total(spans_named(roots, "batch.sweep")) / passes,
        "search.breed_s": sum(
            span.duration() - total(spans_named([span], "runner.run_sharded"))
            for span in spans_named(roots, "search_coverage")) / passes,
        "scenarios.runner.ipc_ms_per_task":
            1e3 * idle / len(tasks) if tasks else 0.0,
        "scenarios.runner.dispatch_us_per_scenario": 1e6 * (
            sum(_self(span) for span in in_process) - executed)
            / dispatched if dispatched else 0.0,
    }


def set_up_metrics(workload: Any, setup: Any, roots: List[Any],
                   work: Any) -> Dict[str, float]:
    metrics = {
        "casestudy.build_s": total(spans_named(roots, "casestudy.build")),
        "analysis.lint.s": total(spans_named(roots, "lint_model")),
        "analysis.lint.findings": setup.lint_findings,
        "simulation.compile.s": total(spans_named(roots,
                                                  "CompiledSimulator")),
        "simulation.flat.ops": 0, "simulation.flat.fallback_ops": 0,
        "simulation.native.cc_s": 0.0, "simulation.native.lowered_ops": 0,
        "simulation.native.fallback_ops": 0,
        "simulation.native.lowered_share": 0.0}
    for model in setup.models:
        flat = compile_flat(model.flat_root)
        metrics["simulation.flat.ops"] += len(flat.program)
        # leaves the flat program runs as nested-compiled steps
        metrics["simulation.flat.fallback_ops"] += sum(
            1 for op in flat.program if op[0] == OP_RUN)
    if "native" in setup.arms(workload):
        toolchain_cache = work.fresh("toolchain")
        for simulator in setup.simulators["native"]:
            lowered = simulator.schedule.lowered
            metrics["simulation.native.lowered_ops"] += \
                len(lowered.lowered_ops)
            metrics["simulation.native.fallback_ops"] += \
                len(lowered.fallback_ops)
            start = time.perf_counter()
            ensure_shared_object(lowered.source, toolchain_cache)
            metrics["simulation.native.cc_s"] += time.perf_counter() - start
        ops = metrics["simulation.native.lowered_ops"] \
            + metrics["simulation.native.fallback_ops"]
        metrics["simulation.native.lowered_share"] = \
            metrics["simulation.native.lowered_ops"] / ops if ops else 0.0
    return metrics


def traced_run(workload: Any, seed: int, seconds: float,
               work: Any) -> Tuple[Dict[str, float], Dict[str, float], int,
                                   int]:
    """Returns (per-layer metrics, extra printed metrics, attempted,
    failed)."""
    searching = isinstance(workload, workloads.CoverageSearch)
    workloads.set_up(workload, work.fresh("warmup"))  # lazy imports
    start = time.perf_counter()

    # phase 1: traced set-up
    with obs.session() as telemetry:
        with telemetry.tracer.span("setup"):
            setup = workloads.set_up(workload, work.fresh("setup"),
                                     telemetry.tracer.span)
    setup_roots = telemetry.tracer.roots
    metrics = set_up_metrics(workload, setup, setup_roots, work)
    setup_self: Dict[str, float] = {}
    for root in setup_roots:
        self_times(root, setup_self)

    # phase 2: untraced passes
    extra: Dict[str, float] = {}
    untraced, attempted, failed, throughput = workloads.campaign_passes(
        workload, setup, seed, seconds, extra, deadline_share=UNTRACED_SHARE)
    for arm in ("native", "batch"):
        metrics[f"ticks_per_s.{arm}"] = statistics.median(throughput[arm]) \
            if throughput.get(arm) else 0.0

    # phase 3: the same passes, traced, one session each
    deadline = time.perf_counter() + seconds * TRACED_SHARE
    traced: List[TracedPass] = []
    clock = workloads.ReferenceClock()
    for index in range(len(untraced)):
        if index >= COUNTED_PASSES and time.perf_counter() >= deadline:
            break
        clock.start()
        record = TracedPass(workload, setup, seed, index)
        record.elapsed *= clock.factor()  # reference seconds, as untraced
        traced.append(record)
    for record in traced:
        attempted += record.attempted()
        if record.outcome is not None:
            failed += workloads.check_pass(workload, setup, record.outcome,
                                           seed, 0)
    # the count self-check: a second trace of pass 0 counts the same
    if TracedPass(workload, setup, seed, 0).counts() != traced[0].counts():
        print("count self-check failed: pass 0 counted differently twice")
        failed += traced[0].attempted()
    metrics["obs.tracing_overhead_share"] = statistics.median(
        record.elapsed / untraced_time - 1.0
        for record, untraced_time in zip(traced, untraced))
    metrics.update(count_metrics(workload, traced[:COUNTED_PASSES]))
    metrics.update(pass_timings(workload, traced))
    passes = len(traced)
    pass_roots = [record.root for record in traced]
    executed: Dict[str, float] = {}
    for record in traced:
        for arm, seconds_spent in record.executed().items():
            executed[arm] = executed.get(arm, 0.0) + seconds_spent
    search_reports = [record.search for record in traced
                      if record.search is not None]

    # phase 4: the probe
    corpus = search_reports[0].corpus if searching else None
    probe = run_probe(workload, setup, seed,
                      max(time.perf_counter(), start + seconds), corpus)
    metrics["simulation.step_us_per_tick.auto"] = \
        probe.us_per_tick("step.auto")
    metrics["simulation.step_us_per_tick.native"] = \
        probe.us_per_tick("step.native")
    metrics["simulation.engine.driver_us_per_tick"] = \
        probe.us_per_tick("driver.auto")
    metrics["scenarios.generators.materialize_us_per_tick"] = \
        probe.us_per_tick("materialize")
    metrics["scenarios.runner.mode_observe_us_per_tick"] = \
        probe.us_per_tick("modes")
    metrics["scenarios.report.fold_us_per_tick"] = probe.us_per_tick("fold")
    metrics["simulation.native.trampolines_per_tick"] = \
        probe.trampolines / probe.native_ticks if probe.native_ticks else 0.0

    # self time per campaign: the set-up plus one average pass, with the
    # in-process execution inside runner spans split by the probe
    campaign = {layer: setup_self.get(layer, 0.0) for layer in LAYERS}
    pass_self: Dict[str, float] = {}
    for root in pass_roots:
        self_times(root, pass_self)
    for layer, seconds_spent in pass_self.items():
        campaign[layer] += seconds_spent / passes
    for arm, seconds_spent in executed.items():
        for layer, share in probe.shares(arm).items():
            moved = seconds_spent * share / passes
            campaign["scenarios.runner"] -= moved
            campaign[layer] += moved
    for layer in LAYERS:
        metrics[f"self_s.{layer}"] = campaign[layer]
    for arm in workload.arms:
        if arm in setup.skipped:
            print(f"{arm} arm skipped (backend degraded to flat): its "
                  "metrics read 0")
    extra["traced.passes"] = passes
    extra["probe.ticks"] = probe.ticks.get("materialize", 0)
    return metrics, extra, attempted, failed
