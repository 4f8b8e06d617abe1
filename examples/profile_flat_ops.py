"""Op-level profiling: where do the ticks go, per backend?

Builds a deep clock-gated controller cascade (the ``bench_flatten``
workload shape: expression blocks, gating predicates, delayed feedback
taps with correction barriers on every level) and runs one scenario
battery under ``repro.obs`` twice:

* with op profiling on, through the **flat** backend, printing the
  op-level profile of the flat program (per-kind time split, gate skip
  rates, correction re-runs, the top-N hottest ops by accumulated time);
* with spans and metrics only, through the **flat** and the **batch**
  backends, printing each campaign's wall time and the metrics registry
  (scenario counters, the native loop's C entries and trampoline
  re-entries).  The batch backend runs the native C tick loop (flat on
  hosts without a C compiler); op profiling would route it back through
  the flat program's profiled step, so the second pass leaves it off.

It saves the second pass as a Chrome trace (``profile_flat_ops_trace.json``)
loadable in Perfetto / ``chrome://tracing``.

Observability is strictly opt-in: rerun this workload without the
``obs.session(...)`` blocks and the engines execute their untouched step
closures -- zero instrumentation cost is the contract, gated by
``benchmarks/bench_obs_overhead.py``.

Run with:  python examples/profile_flat_ops.py
"""

from repro import obs
from repro.core.clocks import every
from repro.core.components import ExpressionComponent
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.scenarios import RandomWalk, Scenario, run_sharded
from repro.simulation import ClockGatedComponent, CompiledSimulator

DEPTH = 5
SCENARIOS = 16
TICKS = 400


def gated_controller(depth=DEPTH):
    """A depth-level controller cascade, each level gating the next."""
    def level(d):
        dfd = DataFlowDiagram(f"L{d}")
        dfd.add_input("u")
        dfd.add_output("y")
        pre = ExpressionComponent("Pre", {"out": "in1 + 1"})
        pre.declare_interface_from_expressions()
        post = ExpressionComponent("Post", {"out": "in1 * 2 + in2"})
        post.declare_interface_from_expressions()
        tap = UnitDelay("Z", initial=0)
        dfd.add(pre, post, tap)
        dfd.connect("u", "Pre.in1")
        if d > 0:
            gated = ClockGatedComponent(level(d - 1), every(2),
                                        name=f"Gated{d - 1}")
            dfd.add_subcomponent(gated)
            dfd.connect("Pre.out", f"Gated{d - 1}.u")
            dfd.connect(f"Gated{d - 1}.y", "Post.in1")
        else:
            dfd.connect("Pre.out", "Post.in1")
        dfd.connect("Post.out", "Z.in1")
        dfd.connect("Z.out", "Post.in2")
        dfd.connect("Post.out", "y")
        return dfd
    return level(depth)


def battery():
    return [Scenario(f"sweep{index}",
                     {"u": RandomWalk(seed=index, start=0.0, step=1.0,
                                      low=-10.0, high=10.0)},
                     ticks=TICKS) for index in range(SCENARIOS)]


def main():
    model = gated_controller()
    scenarios = battery()
    print(f"profiling {model.name!r} (depth {DEPTH}): "
          f"{SCENARIOS} scenarios x {TICKS} ticks per backend\n")

    with obs.session(profile_ops=True) as profiled:
        results = run_sharded(model, scenarios, executor="serial",
                              backend="flat")
        assert all(result.ok for result in results)
    for profile in profiled.named_profiles().values():
        print(obs.format_profile(profile, top=8))
        print()

    # warm the shared-object cache, so the timed batch campaign measures
    # runs rather than the C compiler
    CompiledSimulator(model, backend="batch")
    with obs.session() as telemetry:
        for backend in ("flat", "batch"):
            results = run_sharded(model, scenarios, executor="serial",
                                  backend=backend)
            assert all(result.ok for result in results)
    ticks = SCENARIOS * TICKS
    for span in telemetry.tracer.roots:
        if span.name == "runner.run_sharded":
            seconds = span.duration()
            print(f"[{span.attributes['backend']}] {seconds:.3f}s "
                  f"({ticks / seconds:,.0f} scenario-ticks/s)")
    print()
    print(telemetry.registry.format_summary())

    trace_path = "profile_flat_ops_trace.json"
    telemetry.tracer.save_chrome_trace(trace_path)
    print(f"\nChrome trace -> {trace_path} "
          "(open in Perfetto or chrome://tracing)")


if __name__ == "__main__":
    main()
