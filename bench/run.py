"""Benchmark of the pauli-uncertainty library, run from the repository root.

    python3 bench/run.py --workload verify-default --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py`` for their parameters):

- ``verify-default``: ``pauli-uncertainty verify`` with every CLI default;
  grid scans dominate.
- ``verify-sampling``: a small grid with many samples and derivative
  points on two threads; sampler, impurity and derivative work dominate.
- ``eval-stream``: a closed loop with one caller, taking single states
  through the scalar API path of ``eval`` and ``saturate``.
- ``all``: each of the above in turn.

Each unit of work runs in a fresh worker process that imports the library
from ``src/`` (one process per verify invocation; the stream runs in a few
processes one after another), so set-up and peak memory are measured as a
CLI user meets them. Every output is checked (``expected/`` holds the
outputs recorded per seed) and a unit that raises, exits with the wrong
code or gives a wrong output counts as failed.

Stdout gets one JSON record per line: a ``run`` header, one ``workload``
row per workload (every metric with its value, median, sample count and
the highest percentile that has at least ten samples beyond it), and last
the result ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones BENCHMARK.json declares,
measured untraced; the eval-stream row also carries its throughput and
per-state latency percentiles, which are reported but not declared.

- ``wall_s`` is the mean wall time of one unit of work (a verify
  invocation, or a block of stream states): a shared machine can alternate
  between two speeds every few seconds, and the mean follows the share of
  time spent at each more steadily than the median, which jumps between
  them.
- ``setup_s`` is the lower quartile of the set-up times of every worker
  and of dedicated set-up spawns made before the work and after each unit
  of it, so that they sample the whole run; the lower quartile is the
  time at the machine's faster speed as long as a quarter of them meet it.
- ``peak_rss_mb`` is the median over the workers of a run.

With ``--trace 1`` the metrics are the per-layer ones, from spans around
the wrapped public calls, per unit of work (one verify invocation, or one
block of stream states), with traced and untraced units alternating so the
tracing overhead is measured in the same run. The exit code is 0 whenever
a result is printed, and 2 when the library cannot be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import bucket_ns
from workloads import (
    STREAM_BLOCK,
    STREAM_DIGEST_BLOCKS,
    STREAM_KINDS,
    STREAM_PARAMS,
    STREAM_SHANNON_SHARE,
    STREAM_WORKERS,
    VERIFY_ARGS,
    VERIFY_PARAMS,
    WORKLOADS,
    verify_counts,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"

#: Each workload of a run ends within ``--seconds`` and this many more.
RUN_MARGIN_S = 45.0
#: Dedicated set-up spawns before the work and after each unit of it,
#: after one discarded warm-up spawn.
SETUP_SPAWNS_PER_GAP = 2
#: Least verify invocations (untraced) or stream blocks per run.
MIN_UNITS = 3


class BenchError(RuntimeError):
    """The library could not be run at all; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # at most the two threads verify-sampling asks for; none from BLAS
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cmd: dict, deadline: float) -> dict:
    """Run one worker; add its set-up time and its spawn-to-exit time."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(cmd)],
        stdout=subprocess.PIPE,
        env=worker_env(),
        cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {cmd['op']} ran past the run's time limit")
    latency = time.monotonic() - t0
    lines = out.decode().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        raise BenchError(f"worker {cmd['op']} exited with code {proc.returncode} and no result")
    if not Path(result["library_path"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"library imported from {result['library_path']}, not {SRC}")
    result["setup_s"] = result["t_ready"] - t0
    result["latency_s"] = latency
    return result


def _rank(pct: float, n: int) -> int:
    """Nearest-rank position (1-based) of the ``pct`` percentile of ``n``."""
    return max(1, math.ceil(pct * n / 100.0))


def _tail_pct(n: int) -> float | None:
    """The highest of p90/p99/p99.9 with at least ten of ``n`` samples beyond it."""
    return max((p for p in (90.0, 99.0, 99.9) if n - _rank(p, n) >= 10), default=None)


def summary(values: list[float]) -> dict:
    """Median (the reported value), sample count, and the highest of
    p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    median = statistics.median(ordered)
    pct = _tail_pct(n)
    p_hi = ordered[_rank(pct, n) - 1] if pct else None
    return {"value": median, "median": median, "n": n, "p_hi_pct": pct, "p_hi": p_hi}


def setup_summary(values: list[float]) -> dict:
    """``summary`` with the lower quartile as the reported value."""
    return {**summary(values), "value": statistics.quantiles(values, n=4)[0]}


def hist_summary(counts: dict) -> dict:
    """Median, p99 and the highest of p90/p99/p99.9 with at least ten
    samples beyond it, in microseconds, from merged latency bucket counts."""
    buckets = sorted((int(b), n) for b, n in counts.items())
    total = sum(n for _, n in buckets)

    def at(pct: float) -> float:
        rank, seen = _rank(pct, total), 0
        for bucket, n in buckets:
            seen += n
            if seen >= rank:
                return bucket_ns(bucket) / 1e3
        raise ValueError("no latency samples")

    pct = _tail_pct(total)
    return {"n": total, "p50": at(50.0), "p99": at(99.0), "p_hi_pct": pct, "p_hi": at(pct) if pct else None}


# ----------------------------------------------------------------- verify


def load_expected(name: str) -> dict:
    with open(EXPECTED / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def _seed_free(line: str) -> str:
    """A report line with the seed-dependent observed value cut off."""
    if line.startswith("check=impurity_gap_scan "):
        return line.split(" observed=")[0]
    return line


def verify_problems(code: int, lines: list[str], expected: dict, seed: int) -> list[str]:
    """Why one verify invocation's output is wrong; empty when it is right.

    It must exit 0 with every report ``passed=true``. For a seed recorded in
    ``expected`` the lines must equal the recorded ones byte for byte; for
    any other seed every line must equal the recorded one up to the
    seed-dependent impurity values.
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    reports = [ln for ln in lines if ln.startswith("check=")]
    if not reports or not all(ln.endswith(" passed=true") for ln in reports):
        problems.append("a check did not pass")
    recorded = expected["lines"]
    if str(seed) in recorded:
        if lines != recorded[str(seed)]:
            problems.append(f"lines differ from those recorded for seed {seed}")
    else:
        reference = next(iter(recorded.values()))
        if [_seed_free(ln) for ln in lines] != [_seed_free(ln) for ln in reference]:
            problems.append("seed-independent lines differ from the recorded ones")
    return problems


def run_verify(name: str, seed: int, seconds: float, trace: bool, deadline: float, between) -> dict:
    argv = ["verify", *VERIFY_ARGS[name], "--seed", str(seed)]
    expected = load_expected(name)
    units, problems = [], []
    work_s = 0.0
    # start another invocation only if a typical one still ends within the
    # run's seconds of work (set-up spawns in between do not count)
    while len(units) < (2 if trace else MIN_UNITS) or (
        work_s + statistics.median(u["latency_s"] for u in units) <= seconds
    ):
        traced = trace and len(units) % 2 == 1
        unit = spawn({"op": "verify", "argv": argv, "trace": traced}, deadline)
        unit["traced"] = traced
        unit["problems"] = verify_problems(unit["exit_code"], unit["lines"], expected, seed)
        if unit["error"]:
            unit["problems"].append(f"raised {unit['error']}")
        problems += unit["problems"]
        units.append(unit)
        work_s += unit["latency_s"]
        between()
        if time.monotonic() > deadline - 2 * unit["latency_s"]:
            break
    plain = [u for u in units if not u["traced"]]
    row = {
        "argv": argv,
        "params": {**VERIFY_PARAMS[name], "seed": seed},
        "computed": verify_counts(VERIFY_PARAMS[name]),
        "attempted": len(units),
        "failed": sum(1 for u in units if u["problems"]),
        "problems": sorted(set(problems)),
        "versions": _versions(units[0]),
    }
    if trace:
        row["layers"] = per_layer(
            [u["layers"] for u in units if u["traced"]],
            [u["wall_s"] for u in units if u["traced"]],
            [u["wall_s"] for u in plain],
        )
        return row
    walls = [u["wall_s"] for u in plain]
    row["worker_setups"] = [u["setup_s"] for u in plain]
    row["metrics"] = {
        "wall_s": {**summary(walls), "value": statistics.fmean(walls)},
        "peak_rss_mb": summary([u["peak_rss_kb"] / 1024.0 for u in plain]),
    }
    return row


# ----------------------------------------------------------------- stream


def stream_digests() -> dict:
    with open(EXPECTED / "eval-stream.json", encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def run_stream(seed: int, seconds: float, trace: bool, deadline: float, between) -> dict:
    chunks = []
    block = 0
    for k in range(STREAM_WORKERS):
        chunk = spawn(
            {
                "op": "stream",
                "seed": seed,
                "seconds": min(seconds / STREAM_WORKERS, deadline - time.monotonic() - RUN_MARGIN_S / 2),
                "trace": trace,
                "block": STREAM_BLOCK,
                "first_block": block,
                "min_blocks": max(MIN_UNITS, STREAM_DIGEST_BLOCKS) if k == 0 else 1,
                "digest_blocks": STREAM_DIGEST_BLOCKS,
            },
            deadline,
        )
        block = chunk["next_block"]
        chunks.append(chunk)
        between()

    def merged(key: str) -> list:
        return [item for chunk in chunks for item in chunk[key]]

    attempted = sum(c["attempted"] for c in chunks)
    failed = sum(c["failed"] for c in chunks)
    errors = [c["first_error"] for c in chunks if c["first_error"]]
    problems = [f"state failed its check, first error: {errors[0]}"] if failed else []
    recorded = stream_digests().get(str(seed))
    if recorded is not None:
        for block, (got, want) in enumerate(zip(merged("digests"), recorded)):
            if got != want:
                failed += STREAM_BLOCK
                problems.append(f"block {block} output digest differs from the recorded one")
    failed = min(failed, attempted)
    plain_s = [ns / 1e9 for ns in merged("untraced_block_ns")]
    row = {
        "params": {**STREAM_PARAMS, "seed": seed},
        "computed": {
            "states_per_block": STREAM_BLOCK,
            "pure_per_block": STREAM_BLOCK - round(STREAM_KINDS["ball"] * STREAM_BLOCK),
            "shannon_per_block": round(STREAM_SHANNON_SHARE * STREAM_BLOCK),
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "versions": _versions(chunks[0]),
    }
    if trace:
        row["layers"] = per_layer(
            merged("layers"), [ns / 1e9 for ns in merged("traced_block_ns")], plain_s
        )
        return row
    counts = {}
    for chunk in chunks:
        for bucket, n in chunk["latency_counts"].items():
            counts[bucket] = counts.get(bucket, 0) + n
    lat = hist_summary(counts)
    latency = {"n": lat["n"], "p_hi_pct": lat["p_hi_pct"], "p_hi": lat["p_hi"]}
    row["worker_setups"] = [c["setup_s"] for c in chunks]
    row["metrics"] = {
        "wall_s": {**summary(plain_s), "value": statistics.fmean(plain_s)},
        "peak_rss_mb": summary([c["peak_rss_kb"] / 1024.0 for c in chunks]),
        "states_per_s": {"value": STREAM_BLOCK * len(plain_s) / sum(plain_s), "n": len(plain_s)},
        "latency_p50_us": {**latency, "value": lat["p50"]},
        "latency_p99_us": {**latency, "value": lat["p99"]},
    }
    return row


# -------------------------------------------------------------- per layer


def layer_metrics(layers: dict, wall_s: float) -> dict:
    """Per-layer metrics of one unit of work from its span totals."""

    def get(span: str, key: str) -> int:
        return layers.get(span, {}).get(key, 0)

    def busy(span: str) -> float:
        return get(span, "busy_ns") / 1e9

    grid_busy = busy("verify.grid.power") + busy("verify.grid.shannon")
    grid_points = get("verify.grid.power", "work") + get("verify.grid.shannon", "work")
    m = {
        "verify.grid.power.busy_s": busy("verify.grid.power"),
        "verify.grid.shannon.busy_s": busy("verify.grid.shannon"),
        "verify.grid.points": grid_points,
        "verify.grid.points_per_s": grid_points / grid_busy if grid_busy else 0.0,
        "verify.impurity.busy_s": busy("verify.impurity"),
        "verify.impurity.self_s": get("verify.impurity", "self_ns") / 1e9,
        "verify.impurity.samples": get("verify.impurity", "work"),
        "verify.impurity.wall_share": busy("verify.impurity") / wall_s,
        "verify.derivative.busy_s": busy("verify.derivative"),
        "verify.derivative.points": get("verify.derivative", "work"),
        "verify.sweep.busy_s": busy("verify.sweep"),
        "verify.sweep.points": get("verify.sweep", "work"),
        "qubit.sample_mixed.busy_s": busy("qubit.sample_mixed"),
        "qubit.sample_mixed.states": get("qubit.sample_mixed", "work"),
        "cli.verify.self_s": get("cli.verify", "self_ns") / 1e9,
    }
    for span in (
        "qubit.state_build",
        "pauli_measure.measure",
        "distributions.entropy",
        "bounds.order",
        "bounds.entropic_sum",
        "bounds.saturation",
        "bounds.closed_form",
    ):
        m[f"{span}.busy_s"] = busy(span)
        m[f"{span}.calls"] = get(span, "calls")
    return m


def per_layer(layers: list[dict], traced_walls: list[float], plain_walls: list[float]) -> dict:
    """Median per-layer metrics over the traced units, with tracing overhead."""
    per_unit = [layer_metrics(lay, wall) for lay, wall in zip(layers, traced_walls)]
    out = {name: summary([m[name] for m in per_unit]) for name in per_unit[0]}
    overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
    out["trace.overhead_s"] = {"value": overhead, "n": len(traced_walls)}
    out["trace.overhead_share"] = {"value": overhead / statistics.median(plain_walls), "n": len(traced_walls)}
    return out


# -------------------------------------------------------------------- run


def _versions(result: dict) -> dict:
    return {k: result[k] for k in ("version", "python_version", "numpy_version")}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_sha256() -> str:
    """Digest of the library sources, naming the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    setups = []

    def between() -> None:
        """Set-up spawns before the work and after each unit of it."""
        if not trace:
            setups.extend(
                spawn({"op": "setup"}, deadline)["setup_s"] for _ in range(SETUP_SPAWNS_PER_GAP)
            )

    if not trace:
        spawn({"op": "setup"}, deadline)  # warm-up: bytecode caches, page cache
    between()
    if name == "eval-stream":
        row = run_stream(seed, seconds, trace, deadline, between)
    else:
        row = run_verify(name, seed, seconds, trace, deadline, between)
    if not trace:
        row["metrics"]["setup_s"] = setup_summary(setups + row.pop("worker_setups"))
    row = {"record": "workload", "workload": name, "trace": trace, **row}
    row["failed_ratio"] = row["failed"] / row["attempted"]
    return row


def declared_metrics() -> dict:
    """Metric name to unit, end-to-end and per-layer, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    return {
        key: {m["name"]: m["unit"] for m in declared[key]} for key in ("end_to_end", "per_layer")
    }


def result_metrics(row: dict, declared: dict) -> dict:
    measured = row["layers"] if row["trace"] else row["metrics"]
    units = declared["per_layer" if row["trace"] else "end_to_end"]
    if not set(units) <= set(measured):
        raise BenchError(f"declared metrics {sorted(set(units) - set(measured))} were not measured")
    return {name: {"value": measured[name]["value"], "unit": unit} for name, unit in units.items()}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not (0 < args.seconds <= 120):
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pauli_uncertainty" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        declared = declared_metrics()
        rows = [
            run_workload(
                name, args.seed, args.seconds, bool(args.trace), time.monotonic() + args.seconds + RUN_MARGIN_S
            )
            for name in names
        ]
        results = [result_metrics(row, declared) for row in rows]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = {
        "record": "run",
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        **rows[0].pop("versions", {}),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "workloads": list(names),
    }
    print(json.dumps(header))
    for row in rows:
        row.pop("versions", None)
        print(json.dumps(row))
    if len(rows) == 1:
        metrics = results[0]
    else:
        metrics = {
            f"{row['workload']}.{name}": value
            for row, result in zip(rows, results)
            for name, value in result.items()
        }
    result = {
        "correct": all(row["failed"] == 0 for row in rows),
        "attempted": sum(row["attempted"] for row in rows),
        "failed": sum(row["failed"] for row in rows),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
