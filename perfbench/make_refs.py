"""Record refs.json: the digests every benchmark pass is checked against.

Usage (from the repository root): python3 perfbench/make_refs.py

Runs the corpus passes for every program seed in the pool at both sizes,
the logistic pass for every seed of its pool (both sizes run 2000
steps) and one cli pass per size, and stores the SHA-256 of each run's
final iterate and cumulative regret and of the decay CSV. A reference is
recorded only if every gate of its pass holds; otherwise nothing is
written and the failures are printed. Run it only at a commit whose
outputs are the ones later commits must reproduce bit for bit.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def record(job):
    workload, size_name, seed = job
    size = workloads.SIZES[size_name]
    tally = workloads.Tally(refs=None)
    seeds = {"corpus": (seed, seed), "logistic": [seed], "cli": (seed, seed)}[workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as work:
        workloads.run_pass(workload, seeds, size, tally, work)
    return tally.digests, tally.failures


def main():
    jobs = [("corpus", size, seed) for size in workloads.SIZES for seed in range(workloads.POOL)]
    jobs += [("logistic", "full", seed) for seed in workloads.LOGISTIC_POOL]
    jobs += [("cli", size, 0) for size in workloads.SIZES]
    digests, failures = {}, []
    for job in jobs:
        got, failed = record(job)
        digests.update(got)
        failures += failed
    if failures:
        for message in failures:
            print(f"FAILED: {message}", file=sys.stderr)
        return 1
    out = HERE / "refs.json"
    out.write_text(json.dumps({"pool": workloads.POOL, "digests": dict(sorted(digests.items()))},
                              indent=1) + "\n")
    print(f"wrote {len(digests)} digests to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
