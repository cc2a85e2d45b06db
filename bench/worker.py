"""One benchmark process: import the library, do one unit of work, report.

Usage: ``python worker.py '<json command>'`` with ``PYTHONPATH`` naming the
library's source tree. The command's ``op`` is ``setup`` (import and
exit), ``verify`` (one ``cli.main`` call) or ``stream`` (the eval-stream
loop for a number of seconds, from a given block on). The worker prints one JSON line: the
monotonic clock reading when the library was ready for its first call,
its peak resident memory, and the op's results.
"""

import io
import json
import math
import resource
import sys
import time
from contextlib import redirect_stdout

#: Per-state latencies are counted in fixed log-spaced buckets, 0.5% wide
#: from 1 us up to about 14 s, so that the worker's memory does not grow
#: with the number of states it gets through.
LATENCY_MIN_NS = 1000
LATENCY_RATIO = 1.005
LATENCY_BUCKETS = 3300
_LOG_RATIO = math.log(LATENCY_RATIO)


def latency_bucket(ns: int) -> int:
    if ns <= LATENCY_MIN_NS:
        return 0
    return min(LATENCY_BUCKETS - 1, int(math.log(ns / LATENCY_MIN_NS) / _LOG_RATIO))


def bucket_ns(bucket: int) -> float:
    """The geometric middle of a latency bucket."""
    return LATENCY_MIN_NS * LATENCY_RATIO ** (bucket + 0.5)


def _import_library():
    """Import the library as the CLI does; return it and the ready time."""
    import pauli_uncertainty
    import pauli_uncertainty.cli  # noqa: F401  (the CLI's import cost is set-up too)

    return pauli_uncertainty, time.monotonic()


def _order_is_one(a) -> bool:
    return abs(getattr(a, "alpha", a) - 1.0) <= 1e-9


def _points(g) -> int:
    return g.n_tau * g.n_phi


def _trace_verify(tracer, cli, verify, derivative_points):
    """Wrap the attributes ``cli`` and ``verify`` look up; return the originals."""
    wraps = {
        (verify, "grid_min_sum"): (
            lambda a, *r, **k: "verify.grid.shannon" if _order_is_one(a) else "verify.grid.power",
            lambda a, g, *r, **k: _points(g),
        ),
        (verify, "impurity_gap_scan"): ("verify.impurity", lambda a, seed, count: count),
        (verify, "sample_mixed"): ("qubit.sample_mixed", lambda seed, count: count),
        (verify, "derivative_sign_check"): (
            "verify.derivative",
            lambda a, n_points: derivative_points(n_points),
        ),
        (verify, "sweep_band"): ("verify.sweep", lambda alphas, g, *r, **k: len(alphas) * _points(g)),
        (cli, "cmd_verify"): ("cli.verify", None),
    }
    wraps[(verify, "grid_max_sum_pure")] = wraps[(verify, "grid_min_sum")]
    originals = {}
    for (module, attr), (name, work) in wraps.items():
        originals[(module, attr)] = getattr(module, attr)
        setattr(module, attr, tracer.wrap(getattr(module, attr), name, work))
    return originals


def run_verify(cmd: dict) -> dict:
    from pauli_uncertainty import cli, verify

    from tracing import Tracer, layer_totals
    from workloads import derivative_points

    tracer = Tracer()
    originals = _trace_verify(tracer, cli, verify, derivative_points) if cmd["trace"] else {}
    out = io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out):
            code = cli.main(cmd["argv"])
    except Exception as exc:  # an invocation that raises counts as failed
        error = repr(exc)
    finally:
        wall = time.perf_counter() - t0
        for (module, attr), fn in originals.items():
            setattr(module, attr, fn)
    result = {"exit_code": code, "error": error, "lines": out.getvalue().splitlines(), "wall_s": wall}
    if cmd["trace"]:
        result["layers"] = layer_totals(tracer.take())
    return result


def run_stream(cmd: dict, pauli_uncertainty) -> dict:
    import stream
    from tracing import Tracer, layer_totals

    api = stream.library_api(pauli_uncertainty)
    tracer = Tracer()
    traced_api = stream.traced_api(api, tracer)
    size = cmd["block"]
    untraced_ns, traced_ns, layers, digests = [], [], [], []
    latency_counts = [0] * LATENCY_BUCKETS
    failed = attempted = 0
    first_error = None
    deadline = time.monotonic() + cmd["seconds"]
    block = first = cmd["first_block"]
    # a traced run alternates untraced and traced blocks, so the overhead
    # of tracing is measured within one process
    while block < first + cmd["min_blocks"] or time.monotonic() < deadline:
        states = stream.block_inputs(cmd["seed"], block, size)
        traced = cmd["trace"] and block % 2 == 1
        use = traced_api if traced else api
        results = [None] * size
        lat = [0] * size
        t_block = time.perf_counter_ns()
        for i, state in enumerate(states):
            t0 = time.perf_counter_ns()
            try:
                results[i] = stream.evaluate(use, *state[1:])
            except Exception as exc:  # an operation that raises counts as failed
                if first_error is None:
                    first_error = f"{state!r}: {exc!r}"
            lat[i] = time.perf_counter_ns() - t0
        block_ns = time.perf_counter_ns() - t_block
        if traced:
            traced_ns.append(block_ns)
            layers.append(layer_totals(tracer.take()))
        else:
            untraced_ns.append(block_ns)
            for ns in lat:
                latency_counts[latency_bucket(ns)] += 1
        ok = [r is not None and stream.check_state(s, r) for s, r in zip(states, results)]
        attempted += size
        failed += ok.count(False)
        if block < cmd["digest_blocks"]:
            digests.append(
                stream.digest(
                    stream.format_result(s, r) if r is not None else "error"
                    for s, r in zip(states, results)
                )
            )
        block += 1
    return {
        "attempted": attempted,
        "failed": failed,
        "first_error": first_error,
        "untraced_block_ns": untraced_ns,
        "traced_block_ns": traced_ns,
        "layers": layers,
        "digests": digests,
        "next_block": block,
        "latency_counts": {str(i): n for i, n in enumerate(latency_counts) if n},
    }


def main() -> int:
    cmd = json.loads(sys.argv[1])
    pauli_uncertainty, t_ready = _import_library()
    import numpy

    result = {
        "t_ready": t_ready,
        "version": pauli_uncertainty.__version__,
        "library_path": pauli_uncertainty.__file__,
        "numpy_version": numpy.__version__,
        "python_version": sys.version.split()[0],
    }
    if cmd["op"] == "verify":
        result.update(run_verify(cmd))
    elif cmd["op"] == "stream":
        result.update(run_stream(cmd, pauli_uncertainty))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
