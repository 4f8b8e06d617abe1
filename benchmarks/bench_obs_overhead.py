"""[P8] Observability overhead gate: zero cost when off, honest when on.

Not a paper figure: gates the structural contract of :mod:`repro.obs` on
the deep gated-controller workload of ``bench_flatten``.

* **Disabled** (the default), the engines must run their untouched step
  closures: the gate asserts object identity of ``schedule.step`` across
  an enable/run/disable cycle, and that a full :class:`CompiledSimulator`
  run -- whose only extra work is the disabled ambient probes -- costs at
  most 5% over driving the raw step closure through ``run_stepped``
  directly.  The ratio is the median over interleaved (raw, simulator)
  pairs whose order alternates, so host noise lands on both sides of each
  ratio rather than on one side of a best-of comparison.
* **Enabled** with ``profile_ops``, the attribution must be honest: the
  op-level profile accounts the bulk of the measured run inside op timers
  (``op_time_s <= total_time_s``, with the difference being the step
  loop's own dispatch), gate skip counts match the clock structure, and
  the Chrome trace-event export is well-formed (integer microsecond
  ``ts``/``dur``, epoch-relative, one event per span).
* **Aggregation**: merging process-pool worker registries must equal the
  serial registry on the executor-invariant ``runner.scenario.*``
  projection (multi-core hosts; single-CPU hosts verify serial==thread).
* **Forensics**: with ``flight_recording`` on, a scenario failing inside
  an op must dump a post-mortem bundle naming the exact failing tick --
  and the default step closure must STILL be the same object afterwards
  (the recorder, like the profiler, lives in a swapped-in step variant).

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
from repro.simulation.engine import run_stepped

from _bench_utils import median_paired_ratio, report, write_bench_json
from bench_flatten import deep_gated_controller

#: Workload shape: nesting depth and simulation horizon of the gate.
DEPTH = 6
TICKS = 2000
#: Disabled-mode overhead ceiling (median paired ratio vs the raw step
#: driver) and the number of interleaved pairs it is the median of.
OVERHEAD_CEILING = 1.05
PAIRS = 21


def _out_path(name: str) -> str:
    out_dir = os.environ.get("BENCH_OUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _controller_batch(count=8, ticks=120):
    return [Scenario(f"sweep{index}",
                     {"u": RandomWalk(seed=index, start=0.0, step=1.0,
                                      low=-10.0, high=10.0)},
                     ticks=ticks) for index in range(count)]


def test_p8_obs_overhead_gate():
    """Acceptance gate: <= 5% disabled overhead, honest enabled profiles."""
    assert obs.active() is None
    model = deep_gated_controller(DEPTH)
    stimuli = {"u": [1.0] * TICKS}

    simulator = CompiledSimulator(model, backend="flat")
    schedule = simulator.schedule
    original_step = schedule.step

    # the baseline: the raw step closure driven by run_stepped, with no
    # simulator wrapper at all -- the truly untouched hot path
    def raw_run():
        run_stepped(model, original_step, stimuli, TICKS, False,
                    initial_state=schedule.initial_state())

    def off_run():
        simulator.run(stimuli, TICKS)

    raw_run(), off_run()  # warm-up
    off_ratio, baseline, disabled = median_paired_ratio(raw_run, off_run,
                                                        pairs=PAIRS)

    # -- enabled: op-level profile + spans -----------------------------------
    reference = simulator.run(stimuli, TICKS)
    with obs.session(profile_ops=True) as telemetry:
        observed_sim = CompiledSimulator(model, backend="flat")
        observed = observed_sim.run(stimuli, TICKS)
    assert first_difference(reference, observed) is None
    assert simulator.schedule.step is original_step
    assert observed_sim.schedule.step is not None
    assert obs.active() is None  # session restored the disabled state

    (profile,) = telemetry.profiles.values()
    assert profile.ticks == TICKS
    op_time = profile.op_time_s()
    assert 0 < op_time <= profile.total_time_s
    attribution = op_time / profile.total_time_s
    assert attribution >= 0.5, (
        f"op timers account for only {100 * attribution:.1f}% of the "
        "instrumented run; per-op attribution is broken")
    checks, skips = profile.gate_stats()
    assert checks > 0 and 0 < skips < checks  # every(2) gates really fired

    # Chrome trace consistency: one complete event per span, integer
    # microseconds, epoch-relative, compile + run both present
    chrome = telemetry.tracer.to_chrome_trace()
    complete = [event for event in chrome["traceEvents"]
                if event["ph"] == "X"]
    spans = list(telemetry.tracer.walk())
    assert len(complete) == len(spans)
    names = {event["name"] for event in complete}
    assert {"compile.component", "compile.flatten", "run"} <= names
    assert all(isinstance(event["ts"], int)
               and isinstance(event["dur"], int)
               and event["dur"] >= 0 for event in complete)
    assert min(event["ts"] for event in complete) == 0

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

    # -- forensics: flight recorder present, default path untouched ----------
    def poisoned(tick):
        # a string reaching "in1 + 1" raises INSIDE the expression op
        return "boom" if tick == 40 else 1.0

    forensic_batch = _controller_batch(count=3, ticks=80)
    forensic_batch.insert(1, Scenario("boom", {"u": poisoned}, ticks=80))
    postmortem_dir = _out_path("postmortems")
    with obs.session(flight_recording=True, ring_ticks=8,
                     postmortem_dir=postmortem_dir) as forensic_session:
        forensic_results = run_sharded(model, forensic_batch,
                                       executor="serial")
        bundles = list(forensic_session.bundles)
    assert [result.ok for result in forensic_results] \
        == [True, False, True, True]
    assert len(bundles) == 1 and os.path.exists(bundles[0])
    bundle = read_bundle(bundles[0])
    failing_tick = bundle["failing"]["tick"]
    assert failing_tick == 40, (
        f"post-mortem bundle names tick {failing_tick}, expected the "
        "poisoned tick 40")
    assert bundle["ring"], "post-mortem ring is empty"
    # the recorder ran in a swapped-in step variant; the default closure
    # of the simulator compiled OUTSIDE the session is still the same
    # object, and a fresh compile produces an untouched one too
    assert simulator.schedule.step is original_step
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
            "baseline_raw_step_s": baseline,
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
        f"  disabled: median raw step {baseline:.4f}s, simulator "
        f"{disabled:.4f}s; median of {PAIRS} pair ratios "
        f"{100 * (off_ratio - 1):+.1f}% (ceiling "
        f"{100 * (OVERHEAD_CEILING - 1):.0f}%)",
        f"  enabled: {profile.ticks} ticks profiled, "
        f"{100 * attribution:.1f}% attributed to ops, "
        f"gates {skips}/{checks} silent",
        f"  aggregation: serial == {pooled_executor} on "
        f"{len(serial_counters)} runner.scenario.* counters",
        f"  forensics: {len(bundles)} bundle(s), failing tick "
        f"{failing_tick}, ring {len(bundle['ring'])} tick(s), "
        f"default step untouched",
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
