"""Tests of the benchmark itself: ``python3 -m pytest bench``."""

import time

import pytest

import run
import stream
import worker
from tracing import Span, Tracer, layer_totals, self_times


def soon() -> float:
    return time.monotonic() + 120.0


TINY_ARGS = ["--alpha", "0.5", "--grid", "21x21", "--samples", "200", "--points", "16"]
TINY_PARAMS = {"orders": [0.5], "grid": [21, 21], "samples": 200, "points": 16, "threads": 1}


def tiny_lines(seed: int) -> tuple[int, list[str]]:
    argv = ["verify", *TINY_ARGS, "--seed", str(seed)]
    result = run.spawn({"op": "verify", "argv": argv, "trace": False}, deadline=soon())
    return result["exit_code"], result["lines"]


@pytest.fixture
def tiny_workload(monkeypatch):
    """A small verify workload whose expected lines are recorded on the spot."""

    def install(extra_args=(), lines=None):
        if lines is None:
            lines = tiny_lines(0)[1]
        monkeypatch.setitem(run.VERIFY_ARGS, "tiny", [*TINY_ARGS, *extra_args])
        monkeypatch.setitem(run.VERIFY_PARAMS, "tiny", TINY_PARAMS)
        monkeypatch.setattr(run, "load_expected", lambda name: {"lines": {"0": lines}})
        monkeypatch.setattr(run, "SETUP_SPAWNS_PER_GAP", 1)

    return install


def test_clean_verify_run_has_no_failures(tiny_workload):
    tiny_workload()
    row = run.run_workload("tiny", 0, 0.0, False, deadline=soon())
    assert row["failed_ratio"] == 0.0 and row["attempted"] == run.MIN_UNITS


def test_negative_control_injected_low_claim_fails(tiny_workload):
    tiny_workload(extra_args=["--inject-low-claim"])
    row = run.run_workload("tiny", 0, 0.0, False, deadline=soon())
    assert row["failed_ratio"] == 1.0
    assert "exit code 1" in row["problems"]


def test_negative_control_tampered_expected_line_fails(tiny_workload):
    lines = tiny_lines(0)[1]
    lines[0] = lines[0].replace("passed=true", "passed=true ")
    tiny_workload(lines=lines)
    row = run.run_workload("tiny", 0, 0.0, False, deadline=soon())
    assert row["failed_ratio"] == 1.0


def test_traced_run_counts_match_the_computed_counts(monkeypatch):
    args = ["--alpha-range", "0.5:1.0:0.5", "--grid", "21x21", "--samples", "200", "--points", "16"]
    params = {"orders": [0.5, 1.0], "grid": [21, 21], "samples": 200, "points": 16, "threads": 1}
    monkeypatch.setitem(run.VERIFY_ARGS, "tiny", args)
    monkeypatch.setitem(run.VERIFY_PARAMS, "tiny", params)
    monkeypatch.setattr(run, "load_expected", lambda name: {"lines": {"0": []}})
    row = run.run_workload("tiny", 0, 0.0, True, deadline=soon())
    layers, computed = row["layers"], row["computed"]
    assert layers["verify.grid.points"]["value"] == computed["grid_points"] == 6 * 21 * 21
    assert layers["verify.impurity.samples"]["value"] == computed["impurity_samples"] == 400
    assert layers["qubit.sample_mixed.states"]["value"] == 400
    assert layers["verify.derivative.points"]["value"] == computed["derivative_points"]
    assert layers["verify.sweep.points"]["value"] == computed["sweep_points"] == 2 * 21 * 21
    assert layers["verify.grid.shannon.busy_s"]["value"] > 0.0
    assert layers["qubit.state_build.calls"]["value"] == 0


def test_unrecorded_seed_checks_seed_independent_lines():
    _, lines0 = tiny_lines(0)
    code, lines5 = tiny_lines(5)
    expected = {"lines": {"0": lines0}}
    assert lines5 != lines0  # the impurity lines depend on the seed
    assert run.verify_problems(code, lines5, expected, 5) == []
    tampered = [ln.replace("check=grid_min_sum alpha=0.5", "check=grid_min_sum alpha=0.50") for ln in lines5]
    assert run.verify_problems(code, tampered, expected, 5)


def test_negative_control_stream_digest_mismatch_fails(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SPAWNS_PER_GAP", 1)
    monkeypatch.setattr(run, "stream_digests", lambda: {"3": ["0" * 64]})
    row = run.run_workload("eval-stream", 3, 0.0, False, deadline=soon())
    assert row["failed"] == run.STREAM_BLOCK
    assert row["failed_ratio"] > 0.0


def test_stream_inputs_repeat_for_a_seed_and_change_with_it():
    assert stream.block_inputs(7, 0, 300) == stream.block_inputs(7, 0, 300)
    assert stream.block_inputs(7, 0, 300) != stream.block_inputs(8, 0, 300)
    assert stream.block_inputs(7, 0, 300) != stream.block_inputs(7, 1, 300)


def test_stream_block_mix_is_fixed():
    states = stream.block_inputs(11, 2, 1000)
    kinds = [s[0] for s in states]
    assert {k: kinds.count(k) for k in stream.KIND_NAMES} == {
        "haar": 440, "ball": 440, "eigen": 60, "extremal": 60,
    }
    assert sum(1 for s in states if s[2] == 1.0) == 125
    assert all(0.01 <= s[2] <= 0.99 for s in states if s[2] != 1.0)


def test_stream_check_rejects_a_wrong_sum():
    state = ("haar", stream.PURE, 0.5, 0.3, 1.1, 0.0)
    comps = stream.components(stream.PURE, 0.3, 1.1, 0.0)
    good = stream.renyi_sum(0.5, comps)
    ceiling = stream.renyi_sum(0.5, (stream.INV_SQRT3,) * 3)
    result = (None, True, None, None, good, None, ceiling, None)
    assert stream.check_state(state, result)
    assert not stream.check_state(state, result[:4] + (good + 1e-9,) + result[5:])


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("root", 0, 100, None),
        Span("a", 10, 40, 0, work=3),
        Span("b", 30, 60, 0),  # overlaps a: the union, not the sum, is covered
        Span("c", 20, 30, 1),
        Span("a", 70, 80, 0, work=4),
    ]
    assert self_times(spans) == [100 - 60, 30 - 10, 30, 10, 10]
    totals = layer_totals(spans)
    assert totals["a"] == {"busy_ns": 40, "self_ns": 30, "calls": 2, "work": 7}
    assert totals["root"]["self_ns"] == 40


def test_tracer_nests_spans_by_call():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner", work=lambda x: x)
    outer = tracer.wrap(lambda x: inner(x) * 2, lambda x: f"outer{x}")
    assert outer(4) == 10
    spans = tracer.take()
    assert [(s.name, s.parent, s.work) for s in spans] == [("outer4", None, 0), ("inner", 0, 4)]
    assert tracer.spans == []


def test_summary_reports_the_highest_percentile_with_ten_beyond():
    assert run.summary(list(range(20)))["p_hi_pct"] is None
    assert run.summary(list(range(100)))["p_hi_pct"] == 90.0
    assert run.summary(list(range(1000)))["p_hi_pct"] == 99.0
    assert run.summary(list(range(10000)))["p_hi_pct"] == 99.9


def test_latency_buckets_are_half_a_percent_wide():
    for ns in (1500, 75_000, 2_000_000):
        assert abs(worker.bucket_ns(worker.latency_bucket(ns)) / ns - 1.0) < 0.005
    assert worker.latency_bucket(10) == 0
    assert worker.latency_bucket(10**12) == worker.LATENCY_BUCKETS - 1


def test_latency_percentiles_from_bucket_counts():
    counts = {}
    for ns in [50_000] * 980 + [400_000] * 20:
        bucket = str(worker.latency_bucket(ns))
        counts[bucket] = counts.get(bucket, 0) + 1
    lat = run.hist_summary(counts)
    assert lat["n"] == 1000 and lat["p_hi_pct"] == 99.0
    assert lat["p50"] == pytest.approx(50.0, rel=0.005)
    assert lat["p99"] == pytest.approx(400.0, rel=0.005)
