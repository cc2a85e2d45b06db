"""Record the expected outputs the benchmark checks, from the current sources.

    python3 bench/record_expected.py --seeds 0-20

Verify workloads: the report lines of one ``--threads 1`` invocation per
seed, since reports must be identical for any thread count. eval-stream:
the output digests of the leading blocks per seed. Record again only when
a change is meant to alter outputs, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import time

import run
from workloads import STREAM_BLOCK, STREAM_DIGEST_BLOCKS, VERIFY_ARGS


def single_thread(args: list[str]) -> list[str]:
    out = list(args)
    if "--threads" in out:
        out[out.index("--threads") + 1] = "1"
    return out


def seed_range(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-20", help="inclusive range LO-HI")
    parser.add_argument("--stream-seeds", default="0-63", help="inclusive range LO-HI")
    args = parser.parse_args()
    run.EXPECTED.mkdir(exist_ok=True)
    deadline = time.monotonic() + 3600.0

    for name, wl_args in VERIFY_ARGS.items():
        argv = ["verify", *single_thread(wl_args)]
        lines = {}
        for seed in seed_range(args.seeds):
            result = run.spawn(
                {"op": "verify", "argv": argv + ["--seed", str(seed)], "trace": False}, deadline
            )
            if result["exit_code"] != 0:
                raise SystemExit(f"{name} seed {seed}: exit code {result['exit_code']}")
            lines[str(seed)] = result["lines"]
        with open(run.EXPECTED / f"{name}.json", "w", encoding="utf-8") as handle:
            json.dump({"argv": argv, "lines": lines}, handle, indent=1)
            handle.write("\n")

    digests = {}
    for seed in seed_range(args.stream_seeds):
        result = run.spawn(
            {
                "op": "stream",
                "seed": seed,
                "seconds": 0,
                "trace": False,
                "block": STREAM_BLOCK,
                "first_block": 0,
                "min_blocks": STREAM_DIGEST_BLOCKS,
                "digest_blocks": STREAM_DIGEST_BLOCKS,
            },
            deadline,
        )
        if result["failed"]:
            raise SystemExit(f"eval-stream seed {seed}: {result['first_error']}")
        digests[str(seed)] = result["digests"]
    with open(run.EXPECTED / "eval-stream.json", "w", encoding="utf-8") as handle:
        json.dump({"block": STREAM_BLOCK, "digests": digests}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
