"""Native C backend for the flat schedule IR, driven through ctypes.

The fifth execution engine of the reproduction: the flat op program
(:mod:`repro.simulation.schedule_ir`) is lowered to one self-contained C
tick loop (:mod:`.emit`), compiled once with the platform compiler
and cached content-addressed on disk (:mod:`.toolchain`), and driven
through :mod:`ctypes` -- one call per scenario horizon, or per tick
behind the standard stepped contract (:mod:`.schedule`).  Select it with ``backend="native"`` on
:class:`~repro.simulation.compiled.CompiledSimulator` /
:class:`~repro.simulation.compiled.ScenarioSuite`; hosts without a C
compiler degrade gracefully to the flat interpreter.

``python -m repro.simulation.native --info`` reports the discovered
compiler and the shared-object cache.
"""

from .emit import LoweredProgram, lower_program
from .schedule import NativeSchedule, compile_native
from .toolchain import (EMITTER_VERSION, MAX_CACHE_ENTRIES,
                        NativeLoweringError, cache_dir, cache_entries,
                        cache_key, ensure_shared_object, evict_stale,
                        find_compiler, native_available, native_info,
                        reset_toolchain_cache)

__all__ = [
    "EMITTER_VERSION", "LoweredProgram", "MAX_CACHE_ENTRIES",
    "NativeLoweringError", "NativeSchedule", "cache_dir", "cache_entries",
    "cache_key", "compile_native", "ensure_shared_object", "evict_stale",
    "find_compiler", "lower_program", "native_available", "native_info",
    "reset_toolchain_cache",
]
