"""Synchronous simulation of AutoMoDe models.

* :mod:`repro.simulation.engine` -- the reference tick-based interpreter and
  rate gating
* :mod:`repro.simulation.compiled` -- the compiled engine: one-time schedule
  compilation, batch scenario runs, differential verification
* :mod:`repro.simulation.schedule_ir` -- the flat schedule IR:
  cross-hierarchy flattening onto one global step program with slot-based
  environments, gating predicates and correction barriers
* :mod:`repro.simulation.native` -- the native C backend: the flat program
  lowered to one compiled C tick loop driven through ctypes, one C call
  per scenario (requires a platform C compiler; check
  :func:`native_available`).  It serves both ``backend="native"`` and
  ``backend="batch"``, which differ only in how the sharded runner
  dispatches a battery; hosts without a compiler run the flat program.
* :mod:`repro.simulation.trace` -- recorded traces, trace tables, equivalence
* :mod:`repro.simulation.causality` -- hierarchical instantaneous-loop check
* :mod:`repro.simulation.multirate` -- stimulus generators and resampling
"""

from .causality import (CausalityAnalysis, CausalityResult, analyze_causality,
                        assert_causal, instantaneous_path_exists)
from .compiled import (CompiledSchedule, CompiledSimulator, ScenarioSuite,
                       compile_ccd, compile_component, compile_nested,
                       simulate_ccd_compiled, simulate_compiled)
from .engine import (ClockGatedComponent, Simulator, build_gated_ccd,
                     normalize_stimulus, prepare_feeds, simulate, simulate_ccd)
from .schedule_ir import FlatSchedule, FlatState, compile_flat, is_flattenable
from .multirate import (align_lengths, constant, presence_ratio, pulse, ramp,
                        resample, sine, sporadic, step)
from .native import (NativeLoweringError, NativeSchedule, compile_native,
                     native_available)
from .trace import (SimulationTrace, first_difference, streams_equal,
                    traces_equivalent)

__all__ = [
    "CausalityAnalysis", "CausalityResult", "ClockGatedComponent",
    "CompiledSchedule", "CompiledSimulator", "FlatSchedule", "FlatState",
    "NativeLoweringError", "NativeSchedule", "ScenarioSuite",
    "SimulationTrace", "Simulator", "align_lengths", "analyze_causality",
    "assert_causal", "build_gated_ccd", "compile_ccd", "compile_component",
    "compile_flat", "compile_native", "compile_nested", "constant",
    "first_difference", "instantaneous_path_exists", "is_flattenable",
    "native_available", "normalize_stimulus", "prepare_feeds",
    "presence_ratio", "pulse", "ramp", "resample", "simulate",
    "simulate_ccd", "simulate_ccd_compiled", "simulate_compiled", "sine",
    "sporadic", "step", "streams_equal", "traces_equivalent",
]
