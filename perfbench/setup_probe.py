"""Times one workload's set-up in a fresh interpreter.

Set-up is ``import rankr`` (which imports numpy and scipy) plus the
workload's spec loading or input generation; the harness's own imports
are left out.  Prints one JSON line {"setup_s": ..., "import_s": ...}.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    start = time.perf_counter()
    import rankr
    import rankr.cli

    imported = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    ctx = workloads.Context(rankr, ROOT, args.work, args.seed, workers=1)
    before = time.perf_counter()
    wl.setup(ctx)
    done = time.perf_counter()
    print(json.dumps({
        "setup_s": (imported - start) + (done - before),
        "import_s": imported - start,
    }))


if __name__ == "__main__":
    main()
