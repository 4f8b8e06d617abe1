"""Op-level profiles of flat-IR step programs.

The flat schedule (:mod:`repro.simulation.schedule_ir`) executes a linear
op program.  An :class:`OpProfile` records, per program position:
execution count and accumulated wall time, plus gate skip counts and
correction-barrier re-runs -- everything needed to answer *where do the
ticks go*.  Native schedules are profiled on their wrapped flat program
(:meth:`repro.simulation.compiled.CompiledSimulator.run`).

Profiles are recorded only by the **instrumented** step variant
(``FlatSchedule.instrumented_step``), which :mod:`repro.simulation.op_emit` generates from the same per-op
templates as the default steps with timers and counters written in; the
default step functions never see this module, which is what keeps the
zero-overhead-when-off contract structural rather than a promise about
cheap branches.

Like the metrics registry, profiles merge additively (same program shape
required), so per-worker profiles from a sharded run aggregate into one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence, Tuple

#: One op descriptor: ``(kind name, human label, runs-on-nested-fallback)``.
OpLabel = Tuple[str, str, bool]


class OpProfile:
    """Per-op execution counts and times of one compiled step program."""

    __slots__ = ("label", "op_kinds", "op_names", "nested_ops", "counts",
                 "times", "gate_skips", "correction_reruns", "ticks",
                 "total_time_s")

    def __init__(self, label: str, op_labels: Sequence[OpLabel]):
        self.label = label
        self.op_kinds: Tuple[str, ...] = tuple(kind for kind, _, _ in op_labels)
        self.op_names: Tuple[str, ...] = tuple(name for _, name, _ in op_labels)
        self.nested_ops: Tuple[bool, ...] = tuple(nested
                                                  for _, _, nested in op_labels)
        size = len(self.op_kinds)
        self.counts: List[int] = [0] * size
        self.times: List[float] = [0.0] * size
        self.gate_skips: List[int] = [0] * size
        self.correction_reruns = 0
        self.ticks = 0
        self.total_time_s = 0.0

    # -- derived views -----------------------------------------------------

    def by_kind(self) -> Dict[str, Dict[str, float]]:
        """Aggregate count/time per op kind (``run``, ``expr``, ``gate``...)."""
        rollup: Dict[str, Dict[str, float]] = {}
        for index, kind in enumerate(self.op_kinds):
            entry = rollup.setdefault(kind, {"count": 0, "time_s": 0.0})
            entry["count"] += self.counts[index]
            entry["time_s"] += self.times[index]
        return rollup

    def nested_fallback_runs(self) -> int:
        """Executions of ops running on the nested-compiled fallback path."""
        return sum(count for count, nested
                   in zip(self.counts, self.nested_ops) if nested)

    def gate_stats(self) -> Tuple[int, int]:
        """(gate evaluations, gate skips) across all gate ops."""
        checks = sum(count for count, kind
                     in zip(self.counts, self.op_kinds) if kind == "gate")
        return checks, sum(self.gate_skips)

    def op_time_s(self) -> float:
        """Total time attributed to individual ops (<= :attr:`total_time_s`,
        the remainder being per-tick setup/teardown of the step loop)."""
        return sum(self.times)

    def hottest_ops(self, top: int = 10) -> List[Tuple[int, str, str, int, float]]:
        """The *top* ops by accumulated time:
        ``(index, kind, label, count, time_s)``."""
        order = sorted(range(len(self.times)),
                       key=lambda index: (-self.times[index], index))
        return [(index, self.op_kinds[index], self.op_names[index],
                 self.counts[index], self.times[index])
                for index in order[:top] if self.counts[index]]

    # -- aggregation -------------------------------------------------------

    def merge(self, other: "OpProfile") -> "OpProfile":
        """Fold another profile of the *same program shape* into this one."""
        if other.op_kinds != self.op_kinds:
            raise ValueError(
                f"cannot merge profile {other.label!r} into {self.label!r}: "
                "the op programs differ")
        for index in range(len(self.counts)):
            self.counts[index] += other.counts[index]
            self.times[index] += other.times[index]
            self.gate_skips[index] += other.gate_skips[index]
        self.correction_reruns += other.correction_reruns
        self.ticks += other.ticks
        self.total_time_s += other.total_time_s
        return self

    # -- export ------------------------------------------------------------

    def to_json_dict(self) -> Dict[str, Any]:
        gate_checks, gate_skips = self.gate_stats()
        return {
            "label": self.label,
            "ticks": self.ticks,
            "total_time_s": self.total_time_s,
            "op_time_s": self.op_time_s(),
            "by_kind": self.by_kind(),
            "gate_checks": gate_checks,
            "gate_skips": gate_skips,
            "correction_reruns": self.correction_reruns,
            "nested_fallback_runs": self.nested_fallback_runs(),
            "ops": [{
                "index": index,
                "kind": self.op_kinds[index],
                "label": self.op_names[index],
                "count": self.counts[index],
                "time_s": self.times[index],
                "gate_skips": self.gate_skips[index],
            } for index in range(len(self.op_kinds))],
        }

    def __repr__(self) -> str:
        return (f"OpProfile({self.label!r}, ops={len(self.op_kinds)}, "
                f"ticks={self.ticks})")


def format_profile(profile: OpProfile, top: int = 10) -> str:
    """Human summary of one profile: per-kind rollup + top-N hottest ops."""
    lines = [f"op profile: {profile.label}"]
    ticks = profile.ticks
    total = profile.total_time_s
    op_time = profile.op_time_s()
    rate = f"{ticks / total:,.0f} ticks/s" if total > 0 else "n/a"
    lines.append(f"  {ticks} ticks in {total:.6f}s ({rate}); "
                 f"{op_time:.6f}s attributed to ops "
                 f"({100.0 * op_time / total:.1f}%)" if total > 0
                 else f"  {ticks} ticks (no time recorded)")
    rollup = profile.by_kind()
    for kind in sorted(rollup, key=lambda k: -rollup[k]["time_s"]):
        entry = rollup[kind]
        share = (100.0 * entry["time_s"] / op_time) if op_time > 0 else 0.0
        lines.append(f"  {kind:>9}: {int(entry['count']):>10} execs  "
                     f"{entry['time_s']:.6f}s  ({share:.1f}%)")
    checks, skips = profile.gate_stats()
    if checks:
        lines.append(f"  gates: {skips}/{checks} skipped "
                     f"({100.0 * skips / checks:.1f}% silent)")
    if profile.correction_reruns:
        lines.append(f"  correction re-runs: {profile.correction_reruns}")
    if profile.nested_fallback_runs():
        lines.append(f"  nested-fallback runs: "
                     f"{profile.nested_fallback_runs()}")
    hottest = profile.hottest_ops(top)
    if hottest:
        lines.append(f"  hottest ops (top {len(hottest)}):")
        for index, kind, label, count, seconds in hottest:
            lines.append(f"    [{index:>4}] {kind:>9}  {seconds:.6f}s  "
                         f"x{count}  {label}")
    return "\n".join(lines)


def format_backend_comparison(profiles: Mapping[str, OpProfile]) -> str:
    """Side-by-side per-kind timing of the same workload across backends.

    *profiles* maps a backend or workload name (e.g. ``"flat"``) to its
    profile; the table shows ticks/s and the per-kind time split so the
    trade-offs (lowered exprs vs nested-fallback runs) are visible in one
    place.
    """
    if not profiles:
        return "backend comparison: (no profiles)"
    kinds = sorted({kind for profile in profiles.values()
                    for kind in profile.by_kind()})
    names = list(profiles)
    lines = ["backend comparison:"]
    header = f"  {'':>9}" + "".join(f"  {name:>14}" for name in names)
    lines.append(header)
    rates = []
    for name in names:
        profile = profiles[name]
        rates.append(f"{profile.ticks / profile.total_time_s:,.0f}/s"
                     if profile.total_time_s > 0 else "n/a")
    lines.append(f"  {'ticks':>9}" + "".join(
        f"  {rate:>14}" for rate in rates))
    for kind in kinds:
        row = f"  {kind:>9}"
        for name in names:
            entry = profiles[name].by_kind().get(kind)
            row += (f"  {entry['time_s']:>13.6f}s" if entry
                    else f"  {'-':>14}")
        lines.append(row)
    return "\n".join(lines)
