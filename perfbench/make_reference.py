"""Writes reference/sl3_l2.json, the stored outputs of the sl3 checks.

Run from the root of a checkout: ``python3 perfbench/make_reference.py``.
The reference holds a digest of the class column and a sample of the
direction columns of ``limitset enumerate`` on groupspecs/sl3_l2.json,
and the forward cone distance at the deepest shell of ``limitset cone``,
all at the sizes of the sl3 part of the enumerate workload.  Regenerate it only in a
change that deliberately alters these outputs, and say why there.
"""

import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE_EVERY = 97


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from rankr import cli

    import workloads

    spec = os.path.join(ROOT, workloads.SL3_SPEC)
    with tempfile.TemporaryDirectory(dir=ROOT) as out:
        argv = ["limitset", "enumerate", "--input", spec, "--out", out,
                "--max-word-length", str(workloads.ORBIT_L), "--format", "csv"]
        if cli.main(argv) != 0:
            raise SystemExit("enumerate failed")
        with open(os.path.join(out, "samples.csv"), encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        argv = ["limitset", "cone", "--input", spec, "--out", out,
                "--max-word-length", str(workloads.ORBIT_L),
                "--cone-word-length", str(workloads.CONE_L), "--format", "json"]
        if cli.main(argv) != 0:
            raise SystemExit("cone failed")
        with open(os.path.join(out, "run_report.json"), encoding="utf-8") as fh:
            cone = json.load(fh)["metrics"]["cone"]
    n = 3
    picked = list(range(0, len(rows), SAMPLE_EVERY)) + [len(rows) - 1]
    reference = {
        "spec": workloads.SL3_SPEC,
        "enumerate": {
            "max_word_length": workloads.ORBIT_L,
            "class_sha256": hashlib.sha256(
                "\n".join(r[2] for r in rows).encode()).hexdigest(),
            "rows": {str(i): rows[i][3:3 + 2 * n] for i in picked},
        },
        "cone": {
            "max_word_length": workloads.ORBIT_L,
            "cone_word_length": workloads.CONE_L,
            "forward_at_max": cone["rows"][-1]["forward"],
        },
    }
    os.makedirs(os.path.dirname(workloads.REFERENCE), exist_ok=True)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
