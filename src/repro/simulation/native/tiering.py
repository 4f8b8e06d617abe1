"""Tiered ``auto``: promote a running flat program to the native C loop.

``backend="auto"`` compiles the flat schedule and runs it at once.  A
simulator that runs a second scenario is likely to run many more, so
:class:`~repro.simulation.compiled.CompiledSimulator` then hands its flat
program to :func:`start_promotion`: a daemon thread lowers it to C
(behind the :func:`~.schedule.check_lowerable` gate), loads the
content-addressed shared object (usually a cache hit) and leaves a
:class:`~.schedule.NativeSchedule` on the :class:`Promotion`.  The
simulator switches to it at its next scenario boundary -- safe because
every run starts from the initial state and the two backends are
trace-identical.

**The static cost check.**  Promotion only pays when most of the program
runs in C.  ``run`` ops always re-enter Python through the trampoline and
``expr`` ops are the ones C can lower, so both checks promote only when
``fallback ops x PROMOTION_RATIO <= lowered ops``:

* before lowering (no thread started), :func:`worth_lowering` counts
  ``run`` ops plus the ``expr`` ops whose expressions fail the emitter's
  syntactic test (:func:`~.emit.expr_syntax_lowerable`: a string literal,
  an unknown function...) as fallback, the other ``expr`` ops as
  lowered.  It decides on the ``run`` ops first, so a program that
  cannot pass even with every ``expr`` op lowered (a bare machine root)
  checks no expression;
* after lowering (in the thread, before the C compiler runs),
  :func:`worth_loading` counts the emitter's actual routing, which also
  sends ``expr`` ops an enum or struct value may flow through to the
  trampoline.

**Threads.**  The thread holds the :class:`Promotion` and the flat
schedule, never the simulator, so dropping a simulator mid-promotion
frees it.  It records no telemetry: sessions are per thread and a new
thread starts with none, so the promotion thread has no session by
construction; the simulator's own thread counts the outcome when it
switches.  Every ``os.fork`` of the process waits for an in-flight
promotion (:data:`_FORK_LOCK`), so a pool worker never inherits a lock
the loader or ``subprocess`` held mid-promotion.
"""

from __future__ import annotations

import os
import threading
from typing import Optional

from ..schedule_ir import OP_EXPR, OP_RUN, FlatSchedule
from .emit import LoweredProgram, expr_syntax_lowerable, lower_program
from .schedule import NativeSchedule, check_lowerable
from .toolchain import (EMITTER_VERSION, cache_dir, find_compiler,
                        load_shared_object)

#: Fallback-to-native cost bound of the static check (module docstring).
PROMOTION_RATIO = 10

#: Held for a promotion's whole lowering and load, and by every fork.
_FORK_LOCK = threading.RLock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_FORK_LOCK.acquire,
                        after_in_parent=_FORK_LOCK.release,
                        after_in_child=_FORK_LOCK.release)

#: Name prefix of the promotion threads.
THREAD_PREFIX = "repro-promote-"


def worth_lowering(flat: FlatSchedule) -> bool:
    """The pre-lowering check: few ``run`` and syntactically unlowerable
    ``expr`` ops against the lowerable ``expr`` ops."""
    runs = 0
    exprs = []
    for op in flat.program:
        if op[0] == OP_RUN:
            runs += 1
        elif op[0] == OP_EXPR:
            exprs.append(op)
    if runs * PROMOTION_RATIO > len(exprs):
        return False
    failing = sum(1 for op in exprs
                  if not expr_syntax_lowerable(op, flat.leaves[op[1]]))
    return (runs + failing) * PROMOTION_RATIO <= len(exprs) - failing


def worth_loading(lowered: LoweredProgram) -> bool:
    """The post-lowering check: few fallback ops against lowered ones."""
    return (len(lowered.fallback_ops) * PROMOTION_RATIO
            <= len(lowered.lowered_ops))


class Promotion:
    """One lowering of a flat program to a loaded native schedule.

    After :meth:`work` (run by :meth:`start`'s thread), :attr:`done` is
    set and :attr:`native` holds the native schedule, or stays ``None``:
    :attr:`error` then holds the compiler failure, or is ``None`` when
    the post-lowering check declined.  *force* skips that check.
    """

    def __init__(self, flat: FlatSchedule, force: bool = False):
        self.native: Optional[NativeSchedule] = None
        self.error: Optional[Exception] = None
        self.done = False
        self._flat: Optional[FlatSchedule] = flat
        self._force = force
        # resolved by the caller: the thread must not read an environment
        # the caller changes after starting it
        self._directory = cache_dir()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "Promotion":
        """Run :meth:`work` on a daemon thread; returns ``self``."""
        self._thread = threading.Thread(
            target=self.work, daemon=True,
            name=THREAD_PREFIX + self._flat.component.name)
        self._thread.start()
        return self

    def work(self) -> None:
        """Lower, check and load; never raises."""
        flat = self._flat
        try:
            with _FORK_LOCK:
                check_lowerable(flat)
                lowered = lower_program(flat, EMITTER_VERSION)
                if self._force or worth_loading(lowered):
                    lib, so_path, _hit = load_shared_object(lowered.source,
                                                            self._directory)
                    self.native = NativeSchedule(flat, so_path, lowered, lib)
        except Exception as exc:  # noqa: BLE001 - the caller counts it
            self.error = exc
        finally:
            self._flat = None
            self.done = True

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the thread (if any); returns :attr:`done`."""
        if self._thread is not None:
            self._thread.join(timeout)
        return self.done


def start_promotion(flat: FlatSchedule) -> Optional[Promotion]:
    """A started :class:`Promotion` of *flat*, or ``None`` -- without a
    thread -- when the host has no C compiler or the pre-lowering check
    declines."""
    if find_compiler() is None or not worth_lowering(flat):
        return None
    return Promotion(flat).start()


def join_promotions(timeout: Optional[float] = None) -> None:
    """Wait for every promotion thread of the process to finish."""
    for thread in threading.enumerate():
        if thread.name.startswith(THREAD_PREFIX):
            thread.join(timeout)
