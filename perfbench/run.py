"""End-to-end campaign benchmark of the AutoMoDe reproduction library.

Runs the user pipeline build -> lint -> compile -> scenario campaign ->
``BatchReport`` / ``SearchReport`` on one named workload and prints every
metric by name with its unit, then one JSON result line::

    python3 perfbench/run.py --workload ccd_sweep --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with observability off;
``--trace 1`` makes a separate traced run that reports the per-layer
metrics (see ``layers.py``).  Workloads, their arms and why each was
chosen are listed in ``BENCHMARK.json`` at the repository root.

End-to-end timings are medians over many samples, each sample scaled into
*reference seconds* by calibration loops run right before and after it
(``workloads.ReferenceClock``): on a small shared host the same work
takes up to ~1.8x longer in slow stretches, and the bracketing cancels
that.  The wall-clock medians are printed too (``raw.*``).

The benchmark imports the library from ``src/`` of the checkout it sits
in, writes only below ``.perfbench_work/`` of that checkout (native
shared-object caches, one fresh directory per set-up) and removes it on
exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: Set-up is repeated until both floors are met; the median is reported.
SETUP_MIN_REPS = 10
SETUP_MIN_SECONDS = 5.0
SETUP_MAX_REPS = 400

UNITS = {"setup_s": "s", "campaign_s.p50": "s", "peak_rss_mb": "MB",
         "failed_share": "share", "raw.setup_s": "s",
         "raw.campaign_s.p50": "s", "host.calibration_ms.p50": "ms"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.startswith("ticks_per_s"):
        return "1/s"
    return "count"


class Work:
    """Fresh private directories below the checkout's scratch area."""

    def __init__(self) -> None:
        os.makedirs(WORK, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="run-", dir=WORK)

    def fresh(self, label: str) -> str:
        return tempfile.mkdtemp(prefix=f"{label}-", dir=self.root)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it


def peak_rss_mb() -> float:
    """Peak resident set of this process (pool workers not included)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(workload: Any, work: Work) -> Tuple[Any, float, float]:
    """Median time of build + lint + compile of every arm, in reference
    seconds, each repetition with a cold native cache; returns the last
    set-up, the median and the raw (wall) median."""
    import workloads
    workloads.set_up(workload, work.fresh("warmup"))  # lazy imports
    clock = workloads.ReferenceClock()
    raw: List[float] = []
    times: List[float] = []
    began = time.perf_counter()
    setup = None
    while len(times) < SETUP_MIN_REPS or (
            time.perf_counter() - began < SETUP_MIN_SECONDS
            and len(times) < SETUP_MAX_REPS):
        cache = work.fresh("setup")
        clock.start()
        start = time.perf_counter()
        setup = workloads.set_up(workload, cache)
        raw.append(time.perf_counter() - start)
        times.append(raw[-1] * clock.factor())
    return setup, statistics.median(times), statistics.median(raw)


def timed_run(workload: Any, seed: int, seconds: float,
              work: Work) -> Tuple[Dict[str, float], Dict[str, float], int,
                                   int]:
    """The untraced run: returns (end-to-end metrics, extra printed
    metrics, attempted, failed)."""
    import workloads
    setup, setup_s, raw_setup_s = measure_setup(workload, work)
    extra: Dict[str, float] = {"raw.setup_s": raw_setup_s}
    passes, attempted, failed, throughput = workloads.campaign_passes(
        workload, setup, seed, seconds, extra)
    metrics = {"setup_s": setup_s,
               "ticks_per_s.auto": statistics.median(throughput["auto"]),
               "campaign_s.p50": statistics.median(passes),
               "peak_rss_mb": peak_rss_mb()}
    for arm in workload.arms:
        if arm == "auto":
            continue
        if arm in setup.skipped:
            print(f"ticks_per_s.{arm} skipped (backend degraded to flat)")
        else:
            extra[f"ticks_per_s.{arm}"] = statistics.median(throughput[arm])
    extra["failed_share"] = failed / attempted
    return metrics, extra, attempted, failed


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} (choose from "
              f"{sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    work = Work()
    try:
        if args.trace:
            import layers
            metrics, extra, attempted, failed = layers.traced_run(
                workload, args.seed, args.seconds, work)
            units = layers.UNITS
        else:
            metrics, extra, attempted, failed = timed_run(
                workload, args.seed, args.seconds, work)
            units = {name: unit_of(name) for name in {**metrics, **extra}}
    finally:
        work.close()
    print(f"workload {workload.name}: arms {','.join(workload.arms)}, "
          f"executor {workload.executor} "
          f"(workers {workloads.pool_workers()}), seed {args.seed}")
    for name, value in sorted({**extra, **metrics}.items()):
        print(f"{name} = {value:.6g} {units.get(name, 'count')}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
