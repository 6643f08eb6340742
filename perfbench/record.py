"""Record the sha256 of every op's output for some workload seeds.

    python3 perfbench/record.py --seeds 0

Run from a commit whose outputs are known to be right: the recorded
digests are what run.py holds every later commit to, byte for byte.
Each op must also pass its invariant checks, or nothing is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0",
                        help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    if not run.prepare():
        print("error: no sources to record from", file=sys.stderr)
        return 2
    _, cli, oracle = run.fresh_import()
    recorded = {}
    for name, make_ops in workloads.WORKLOADS.items():
        for seed in (int(s) for s in args.seeds.split(",")):
            ops = make_ops(seed)
            workloads.write_traces(ops)
            digests = []
            for index, op in enumerate(ops):
                code, data = workloads.run_op(op, cli, oracle)
                if data is None and code == 0:
                    data = workloads.read_output()
                problem = workloads.check_output(op, code, data, None)
                if problem is not None:
                    print(f"error: {name} seed {seed} op {index}: {problem}",
                          file=sys.stderr)
                    return 1
                digests.append(hashlib.sha256(data).hexdigest())
            recorded.setdefault(name, {})[str(seed)] = digests
    run.EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
