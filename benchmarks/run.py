"""The nevkit benchmark: time to verdict through the real CLI, in-process.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload bundled --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``bundled``: ``nevkit run --bundled`` into a fresh output directory.
* ``spatial``: seeded d = 3 scenarios, one ``nevkit run --scenario`` each.
* ``many_small``: seeded small scenarios, one call each, cycling d = 2, 3.

Each workload is a closed loop with one client: a pass makes the workload's
calls one after another, and passes repeat until ``--seconds`` would be
exceeded (at least one pass).  Every call parses its scenario afresh, so no
``Measure`` cache carries over between calls.  Outputs are checked against
the verdicts the theory predicts (and, for ``bundled``, against the committed
reference in ``reference/bundled.json``).

With ``--trace 0`` the last line of output is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced pass, made after untraced passes that give the tracing overhead.
Exit code 2 means the nevkit sources were not found next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process, no threads: keep numpy's BLAS from starting a thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402  (after the thread settings, which numpy reads)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference" / "bundled.json"
SETUP_REPEATS = 5
SMALL_SCENARIOS = 40
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "call_p50_ms": "ms",
                    "call_p90_ms": "ms", "peak_rss_mb": "MB",
                    "decided_share": "ratio"}

# Runs in a fresh interpreter: import the CLI, then load and validate the
# run's scenario files, and print the seconds that took.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json
import nevkit.cli as cli
if sys.argv[2:] == ["--bundled"]:
    for p in cli.bundled_scenario_paths():
        cli.scenario_from_json(json.loads(p.read_text()), path=p.name[:-5])
else:
    for path in sys.argv[2:]:
        cli.load_scenario(path)
print(time.perf_counter() - start)
"""


class Tally:
    """Checks attempted, failed, and undetermined, with the first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.undetermined = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def _read_reports(out_dir: Path) -> list[dict]:
    path = out_dir / "reports.jsonl"
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text().splitlines()]


def _check_verdicts(reports: list[dict], expected: dict[str, str], where: str,
                    tally: Tally) -> None:
    got = {rep["name"]: rep["verdict"] for rep in reports}
    for name, verdict in expected.items():
        tally.attempted += 1
        actual = got.get(name)
        if actual == "undetermined":
            tally.undetermined += 1
        elif actual != verdict:
            tally.fail(f"{where}.{name}: expected {verdict}, got {actual}")


class Workload:
    """The calls of one pass and the checks on their outputs."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.work = work
        self.calls: list[tuple[list[str], dict[str, str] | None]] = []
        self.first_reports: bytes | None = None
        scenario_dir = work / "scenarios"
        scenario_dir.mkdir(parents=True)
        if name == "bundled":
            self.reference = json.loads(REFERENCE.read_text())
            self.calls.append((["run", "--bundled"], None))
            self.setup_args = ["--bundled"]
            return
        if name == "spatial":
            scenarios = [workloads.spatial_scenario(seed)]
        else:
            scenarios = [workloads.small_scenario(seed, i)
                         for i in range(SMALL_SCENARIOS)]
        self.setup_args = []
        for sc in scenarios:
            path = scenario_dir / f"{sc['name']}.json"
            path.write_text(json.dumps(sc, indent=1))
            self.calls.append((["run", "--scenario", str(path)],
                               workloads.expected_verdicts(sc)))
            self.setup_args.append(str(path))

    def check(self, index: int, out_dir: Path, tally: Tally) -> None:
        expected = self.calls[index][1]
        reports = _read_reports(out_dir)
        if expected is not None:
            _check_verdicts(reports, expected, self.calls[index][0][-1], tally)
            return
        # bundled: verdicts and numbers against the reference, and every
        # repeat byte-identical to the first.
        data = (out_dir / "reports.jsonl").read_bytes() if reports else b""
        if self.first_reports is None:
            self.first_reports = data
        elif data != self.first_reports:
            tally.fail("bundled reports.jsonl differs from the first run")
        got = {(r["scenario"], r["name"]): r for r in reports}
        for ref in self.reference:
            tally.attempted += 1
            key = (ref["scenario"], ref["name"])
            rep = got.get(key)
            if rep is None:
                tally.fail(f"{key}: missing")
                continue
            if rep["verdict"] == "undetermined":
                tally.undetermined += 1
            elif rep["verdict"] != ref["verdict"]:
                tally.fail(f"{key}: verdict {rep['verdict']}, reference {ref['verdict']}")
                continue
            for side in ("lhs", "rhs"):
                # float() also parses the "inf", "-inf" and "nan" encodings.
                now, then = float(rep[side]), float(ref[side])
                same = now == then or (math.isnan(now) and math.isnan(then))
                if not same and not abs(now - then) <= rep["tolerance"]:
                    tally.fail(f"{key}: {side} {now!r} moved from {then!r} by more "
                               f"than its tolerance {rep['tolerance']!r}")
        scenarios = sorted({ref["scenario"] for ref in self.reference})
        for csv_name in ["summary.csv", *(f"{n}.counting.csv" for n in scenarios)]:
            if not (out_dir / csv_name).is_file():
                tally.fail(f"bundled output {csv_name} missing")


def run_pass(workload: Workload, cli, tally: Tally, latencies: list[float],
             tracer=None) -> float:
    """Make every call of one pass; return the pass wall time in seconds."""
    total = 0.0
    for index, (argv, _) in enumerate(workload.calls):
        out_dir = workload.work / "out"
        if out_dir.exists():
            shutil.rmtree(out_dir)
        if tracer is not None:
            tracer.current_request += 1
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            try:
                cli.main([*argv, "--out", str(out_dir)])
            except Exception as exc:  # a raising check is a failed check
                tally.problems.append(f"{argv[-1]}: raised {exc!r}")
            elapsed = time.perf_counter() - start
        latencies.append(elapsed)
        total += elapsed
        workload.check(index, out_dir, tally)
    return total


def run_passes(workload: Workload, cli, seconds: float, tally: Tally,
               latencies: list[float]) -> list[float]:
    """Closed loop: repeat passes while the next one should fit in ``seconds``."""
    begin = time.perf_counter()
    passes: list[float] = []
    while True:
        passes.append(run_pass(workload, cli, tally, latencies))
        if time.perf_counter() - begin + statistics.median(passes) > seconds:
            return passes


def measure_setup(workload: Workload) -> list[float]:
    """Import plus scenario loading in fresh interpreters, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *workload.setup_args],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: Workload, cli, seconds: float) -> tuple[dict, Tally]:
    setup = measure_setup(workload)
    tally = Tally()
    latencies: list[float] = []
    passes = run_passes(workload, cli, seconds, tally, latencies)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(passes),
        "call_p50_ms": 1000.0 * statistics.median(latencies),
        "call_p90_ms": 1000.0 * _quantile(latencies, 90),
        "peak_rss_mb": peak,
        "decided_share": 1.0 - tally.undetermined / max(tally.attempted, 1),
    }
    print(f"{workload.name}: {len(passes)} passes, {len(latencies)} calls "
          f"(p50 and p90 over {len(latencies)} samples, "
          f"{sum(t > values['call_p90_ms'] / 1000.0 for t in latencies)} beyond p90), "
          f"setup over {len(setup)} fresh interpreters")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, tally


def _layer_unit(key: str) -> str:
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith("_share"):
        return "ratio"
    if key.endswith("points_per_call"):
        return "points/call"
    if key.endswith("output_bytes"):
        return "bytes"
    return "count"


def traced(workload: Workload, cli, seconds: float) -> tuple[dict, Tally]:
    """Untraced passes for half the time, then one traced pass."""
    from tracing import Tracer

    tally = Tally()
    plain = run_passes(workload, cli, seconds / 2.0, tally, [])
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = run_pass(workload, cli, tally, [], tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.run_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - statistics.median(plain)
    metrics["trace.spans"] = len(tracer.start)
    tracer.save(workload.work.parent / f"{workload.name}.spans.npz")
    print(f"{workload.name}: traced pass {traced_s:.3f} s, untraced median "
          f"{statistics.median(plain):.3f} s over {len(plain)} passes, "
          f"{len(tracer.start)} spans")
    print("largest inclusive shares of call time:")
    for span_name, share, calls in tracer.ranking():
        print(f"  {share:7.1%}  {calls:9d} calls  {span_name}")
    return {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["bundled", "spatial", "many_small"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nevkit" / "cli.py").is_file():
        print(f"error: no nevkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nevkit.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "nevkit":
        print(f"error: imported nevkit from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_run" / f"{args.workload}-{args.seed}"
    if work.exists():
        shutil.rmtree(work)
    try:
        workload = Workload(args.workload, args.seed, work)
        measure = traced if args.trace else end_to_end
        metrics, tally = measure(workload, cli, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{workload.name}: {tally.attempted} checks attempted, {tally.failed} failed "
          f"(failed_share {tally.failed / max(tally.attempted, 1):.4g}), "
          f"{tally.undetermined} undetermined "
          f"(undetermined_share {tally.undetermined / max(tally.attempted, 1):.4g})")
    for problem in tally.problems:
        print(f"  problem: {problem}")
    for key, metric in metrics.items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": tally.failed == 0 and not tally.problems,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
