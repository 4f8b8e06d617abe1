"""[P8] Observability overhead gate: zero cost when off, honest when on.

Not a paper figure: gates the structural contract of :mod:`repro.obs` on
the deep gated-controller workload of ``bench_flatten``.  Two tests:

* ``test_p8_obs_structural_gate`` holds the deterministic checks and runs
  in the gating CI job.  **Disabled**, the engines run their untouched
  default horizon loop: it is the same object before, during and after a
  profiling and a flight-recording session, and no run generates a
  per-tick step.  **Enabled** with ``profile_ops``, the observed loop
  counts every tick and every gate evaluation and skip of the nested
  ``every(2)`` gates, and the Chrome trace-event export is well-formed
  (integer microsecond ``ts``/``dur``, epoch-relative, one event per
  span).  **Forensics**: with ``flight_recording`` on, a scenario failing
  inside an op at tick 40 dumps a post-mortem bundle naming that tick,
  the failing op and the trailing ring of ticks 32-39.
* ``test_p8_obs_overhead_gate`` holds the wall-clock half.  A
  :class:`CompiledSimulator` run in a disabled session -- whose only
  extra work over a bare ``schedule.run`` of the same schedule is the
  disabled ambient probes -- must cost at most 5% more: the median over
  interleaved (bare, simulator) pairs whose order alternates, so host
  noise lands on both sides of each ratio rather than on one side of a
  best-of comparison.  The op timers must account for the bulk of a
  profiled run, and merging process-pool worker registries must equal
  the serial registry on the executor-invariant ``runner.scenario.*``
  projection (multi-core hosts; single-CPU hosts verify serial==thread).

Artifacts: ``BENCH_obs_overhead.json`` (gate numbers plus the embedded
telemetry), ``OBS_trace.json`` (Chrome trace, loadable in Perfetto),
``OBS_metrics.json`` and the forensics ``POSTMORTEM_*.json`` -- all under
``BENCH_OUT_DIR``; CI uploads them.
"""

import json
import os

import pytest

from repro import obs
from repro.obs import read_bundle
from repro.scenarios import RandomWalk, Scenario, run_sharded
from repro.simulation import CompiledSimulator, first_difference

from _bench_utils import median_paired_ratio, report, write_bench_json
from bench_flatten import deep_gated_controller

#: Workload shape: nesting depth and simulation horizon of the gate.
DEPTH = 6
TICKS = 2000
#: Disabled-mode overhead ceiling (median paired ratio of a simulator run
#: over a bare schedule run) and the number of interleaved pairs it is the
#: median of.
OVERHEAD_CEILING = 1.05
PAIRS = 21
#: The poisoned tick of the forensics battery and the ring it keeps.
POISONED_TICK = 40
RING_TICKS = 8


def _out_path(name: str) -> str:
    out_dir = os.environ.get("BENCH_OUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _controller_batch(count=8, ticks=120):
    return [Scenario(f"sweep{index}",
                     {"u": RandomWalk(seed=index, start=0.0, step=1.0,
                                      low=-10.0, high=10.0)},
                     ticks=ticks) for index in range(count)]


def _poisoned(tick):
    # a string reaching "in1 + 1" raises INSIDE the expression op
    return "boom" if tick == POISONED_TICK else 1.0


def _forensic_campaign(model):
    """A battery with one scenario poisoned at :data:`POISONED_TICK`, run
    in a flight-recording session: the results and the bundle paths."""
    forensic_batch = _controller_batch(count=3, ticks=80)
    forensic_batch.insert(1, Scenario("boom", {"u": _poisoned}, ticks=80))
    with obs.session(flight_recording=True, ring_ticks=RING_TICKS,
                     postmortem_dir=_out_path("postmortems")) as session:
        results = run_sharded(model, forensic_batch, executor="serial")
    return results, list(session.bundles)


def test_p8_obs_structural_gate():
    """Deterministic gate: the default loop is untouched, profiles count
    every tick and gate, and the post-mortem bundle names tick 40."""
    assert obs.active() is None
    model = deep_gated_controller(DEPTH)
    stimuli = {"u": [1.0] * TICKS}
    simulator = CompiledSimulator(model, backend="flat")
    schedule = simulator.schedule
    reference = simulator.run(stimuli, TICKS)
    default_horizon = schedule._horizon  # noqa: SLF001
    assert default_horizon is not None

    # -- enabled: op-level profile + spans -----------------------------------
    with obs.session(profile_ops=True) as telemetry:
        observed = simulator.run(stimuli, TICKS)
    (profile,) = telemetry.profiles.values()
    assert first_difference(reference, observed) is None
    assert obs.active() is None  # session restored the disabled state
    assert schedule._horizon is default_horizon  # noqa: SLF001
    assert profile.ticks == TICKS
    # six nested every(2) gates: all six are evaluated on even ticks; on
    # odd ticks the outermost is silent and skips the other five
    assert profile.gate_stats() == (7 * TICKS // 2, TICKS // 2)

    # Chrome trace consistency: one complete event per span, integer
    # microseconds, epoch-relative
    chrome = telemetry.tracer.to_chrome_trace()
    complete = [event for event in chrome["traceEvents"]
                if event["ph"] == "X"]
    assert len(complete) == len(list(telemetry.tracer.walk()))
    assert {event["name"] for event in complete} == {"run"}
    assert all(isinstance(event["ts"], int)
               and isinstance(event["dur"], int)
               and event["dur"] >= 0 for event in complete)
    assert min(event["ts"] for event in complete) == 0

    # -- forensics: the bundle names the poisoned tick and op ----------------
    results, bundles = _forensic_campaign(model)
    assert [result.ok for result in results] == [True, False, True, True]
    assert len(bundles) == 1 and os.path.exists(bundles[0])
    bundle = read_bundle(bundles[0])
    assert bundle["failing"]["tick"] == POISONED_TICK
    assert bundle["failing"]["op_label"] == "L6/Pre [expr]"
    assert [snapshot["tick"] for snapshot in bundle["ring"]] \
        == list(range(POISONED_TICK - RING_TICKS, POISONED_TICK))

    # -- disabled: the default loop survived both sessions -------------------
    simulator.run(stimuli, TICKS)
    assert schedule._horizon is default_horizon  # noqa: SLF001
    assert "step" not in vars(schedule)
    assert obs.active() is None


def test_p8_obs_overhead_gate():
    """Wall-clock gate: <= 5% disabled overhead, honest enabled profiles."""
    assert obs.active() is None
    model = deep_gated_controller(DEPTH)
    stimuli = {"u": [1.0] * TICKS}

    simulator = CompiledSimulator(model, backend="flat")
    schedule = simulator.schedule

    # the baseline: the same schedule's horizon run with no simulator
    # wrapper at all -- the untouched hot path
    def bare_run():
        schedule.run(stimuli, TICKS)

    def off_run():
        simulator.run(stimuli, TICKS)

    bare_run(), off_run()  # warm-up
    off_ratio, baseline, disabled = median_paired_ratio(bare_run, off_run,
                                                        pairs=PAIRS)

    # -- enabled: op-level profile + spans -----------------------------------
    with obs.session(profile_ops=True) as telemetry:
        CompiledSimulator(model, backend="flat").run(stimuli, TICKS)
    (profile,) = telemetry.profiles.values()
    op_time = profile.op_time_s()
    assert 0 < op_time <= profile.total_time_s
    attribution = op_time / profile.total_time_s
    assert attribution >= 0.5, (
        f"op timers account for only {100 * attribution:.1f}% of the "
        "instrumented run; per-op attribution is broken")
    checks, skips = profile.gate_stats()
    names = {span.name for span in telemetry.tracer.walk()}
    assert {"compile.component", "compile.flatten", "run"} <= names

    # -- aggregation: merged worker registries == serial ---------------------
    batch = _controller_batch()
    with obs.session() as serial_session:
        serial_results = run_sharded(model, batch, executor="serial")
    assert all(result.ok for result in serial_results)
    serial_counters = serial_session.registry.counter_values(
        "runner.scenario.")
    cpus = os.cpu_count() or 1
    pooled_executor = "process" if cpus >= 2 else "thread"
    with obs.session() as pooled_session:
        pooled_results = run_sharded(model, batch, executor=pooled_executor,
                                     max_workers=2, chunk_size=3)
    assert all(result.ok for result in pooled_results)
    pooled_counters = pooled_session.registry.counter_values(
        "runner.scenario.")
    assert pooled_counters == serial_counters, (
        f"merged {pooled_executor} worker registries diverge from serial: "
        f"{pooled_counters} != {serial_counters}")

    # -- forensics artifacts -------------------------------------------------
    _results, bundles = _forensic_campaign(model)
    bundle = read_bundle(bundles[0])
    failing_tick = bundle["failing"]["tick"]
    assert obs.active() is None

    # -- artifacts -----------------------------------------------------------
    trace_path = _out_path("OBS_trace.json")
    telemetry.tracer.save_chrome_trace(trace_path)
    metrics_path = _out_path("OBS_metrics.json")
    with open(metrics_path, "w", encoding="utf-8") as handle:
        handle.write(telemetry.registry.to_json())
        handle.write("\n")
    with open(trace_path, encoding="utf-8") as handle:
        assert json.load(handle)["traceEvents"]  # artifact is loadable

    path = write_bench_json("obs_overhead", {
        "workload": {"model": model.name, "depth": DEPTH, "ticks": TICKS},
        "disabled": {
            "baseline_schedule_run_s": baseline,
            "compiled_simulator_s": disabled,
            "overhead_ratio": off_ratio,
            "ceiling": OVERHEAD_CEILING,
            "basis": f"median of {PAIRS} interleaved pair ratios",
        },
        "enabled": {
            "ticks": profile.ticks,
            "total_time_s": profile.total_time_s,
            "op_time_s": op_time,
            "attribution": attribution,
            "gate_checks": checks,
            "gate_skips": skips,
        },
        "aggregation": {
            "executor": pooled_executor,
            "scenario_counters": serial_counters,
        },
        "forensics": {
            "bundles": len(bundles),
            "ring_ticks": len(bundle["ring"]),
            "failing_tick": failing_tick,
            "failing_op": bundle["failing"]["op_label"],
        },
    }, telemetry=telemetry)

    report("P8", "\n".join([
        f"deep gated controller, depth {DEPTH}, {TICKS} ticks:",
        f"  disabled: median schedule.run {baseline:.4f}s, simulator "
        f"{disabled:.4f}s; median of {PAIRS} pair ratios "
        f"{100 * (off_ratio - 1):+.1f}% (ceiling "
        f"{100 * (OVERHEAD_CEILING - 1):.0f}%)",
        f"  enabled: {profile.ticks} ticks profiled, "
        f"{100 * attribution:.1f}% attributed to ops, "
        f"gates {skips}/{checks} silent",
        f"  aggregation: serial == {pooled_executor} on "
        f"{len(serial_counters)} runner.scenario.* counters",
        f"  forensics: {len(bundles)} bundle(s), failing tick "
        f"{failing_tick}, ring {len(bundle['ring'])} tick(s)",
        f"  artifacts: {path}, {trace_path}, {metrics_path}, {bundles[0]}",
    ]))

    assert off_ratio <= OVERHEAD_CEILING, (
        f"disabled-mode observability costs {100 * (off_ratio - 1):.1f}% "
        f"(gate: {100 * (OVERHEAD_CEILING - 1):.0f}%); the ambient probes "
        "leaked onto a hot path")


@pytest.mark.parallel
def test_p8_process_pool_registry_merge_round_trip():
    """Worker registries survive pickling and merge order-insensitively."""
    cpus = os.cpu_count() or 1
    if cpus < 2:
        pytest.skip(f"single-CPU host ({cpus} CPU)")
    model = deep_gated_controller(3)
    batch = _controller_batch(count=6, ticks=60)
    with obs.session() as serial_session:
        run_sharded(model, batch, executor="serial")
    with obs.session() as pooled_session:
        run_sharded(model, batch, executor="process", max_workers=3)
    assert pooled_session.registry.counter_values("runner.scenario.") \
        == serial_session.registry.counter_values("runner.scenario.")
