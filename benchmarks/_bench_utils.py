"""Reporting helpers shared by the benchmark harness.

Every benchmark regenerates one paper artefact (figure or case-study claim)
and prints the regenerated rows/series with a stable ``[Fx]`` prefix so the
output can be compared against EXPERIMENTS.md.  Performance benchmarks can
additionally emit a machine-readable ``BENCH_<name>.json`` artefact
(:func:`write_bench_json`); CI uploads these, so the performance trajectory
is tracked across PRs instead of living only in log output.
"""


import json
import os
import statistics
import time


def report(experiment_id: str, text: str) -> None:
    """Print one experiment's regenerated artefact with a stable prefix."""
    print(f"\n===== [{experiment_id}] =====")
    print(text)


def time_best(runner, repeats: int = 3) -> float:
    """Best-of-*repeats* wall-clock of ``runner()`` (speedup-gate timing)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        runner()
        best = min(best, time.perf_counter() - start)
    return best


def time_median(runner, repeats: int = 5) -> float:
    """Median-of-*repeats* wall-clock of ``runner()``.

    Medians are the right statistic for rate artefacts that get compared
    *across* runs/PRs: one noisy outlier neither inflates (as with best-of)
    nor drags (as with mean) the recorded figure.
    """
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        runner()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


def median_paired_ratio(baseline, candidate, pairs: int):
    """Median over *pairs* of ``candidate() / baseline()`` wall-clock ratios.

    Each pair times the two runners back to back, alternating which goes
    first, so a slow stretch of a shared host lands on both sides of one
    ratio instead of on one side of a best-of comparison.  Returns
    ``(ratio, baseline_s, candidate_s)``: the median ratio and the median
    duration of each side.
    """
    def timed(runner):
        start = time.perf_counter()
        runner()
        return time.perf_counter() - start

    ratios, base_times, cand_times = [], [], []
    for index in range(pairs):
        if index % 2:
            cand = timed(candidate)
            base = timed(baseline)
        else:
            base = timed(baseline)
            cand = timed(candidate)
        ratios.append(cand / base)
        base_times.append(base)
        cand_times.append(cand)
    return (statistics.median(ratios), statistics.median(base_times),
            statistics.median(cand_times))


def write_bench_json(name: str, payload: dict, telemetry=None) -> str:
    """Write ``BENCH_<name>.json``, the machine-readable benchmark artefact.

    The file lands in the current working directory unless ``BENCH_OUT_DIR``
    redirects it.  Keys are sorted so diffs between two uploads are stable.
    When *telemetry* (a :class:`repro.obs.Telemetry`) is given, its metrics
    and span tree are embedded under an ``"observability"`` key, so one
    artefact carries both the gate verdicts and the telemetry that explains
    them.  With ``BENCH_HISTORY`` set, the payload's gated metrics are also
    appended to that :class:`repro.obs.regress.BenchHistory` file, so local
    benchmark runs build the same regression series CI tracks.  Returns the
    written path.
    """
    if telemetry is not None:
        payload = dict(payload)
        payload["observability"] = {
            "metrics": telemetry.registry.to_json_dict(),
            "spans": telemetry.tracer.to_json_dict(),
        }
    out_dir = os.environ.get("BENCH_OUT_DIR", ".")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    history_path = os.environ.get("BENCH_HISTORY")
    if history_path:
        from repro.obs.regress import BenchHistory, flatten_numeric
        history = BenchHistory(history_path)
        history.record_run({name: flatten_numeric(payload)})
        history.save()
    return path
