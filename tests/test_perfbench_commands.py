"""Every command the benchmark runs parses under the CLI.

perfbench/workloads.py and perfbench/make_reference.py drive the CLI
through ``cli.main``; a command the parser refuses exits 1 and counts as
a failed operation, which the benchmark reports but no other test sees.
These tests run the workloads' steps against an API whose ``cli.main``
only records its argv, and parse each recorded command."""

import importlib
import json
import os
import sys
import types
from pathlib import Path

import rankr
from rankr import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class _RecordingAPI:
    """The rankr package, except that cli.main records argv, writes stand-in
    outputs (just enough for make_reference to finish) and exits 0."""

    def __init__(self):
        self.argvs = []
        self.cli = types.SimpleNamespace(
            main=self._main, load_spec=cli.load_spec, build_group=cli.build_group
        )

    def __getattr__(self, name):
        return getattr(rankr, name)

    def _main(self, argv):
        self.argvs.append(list(argv))
        out = argv[argv.index("--out") + 1]
        with open(os.path.join(out, "samples.csv"), "w", encoding="utf-8") as fh:
            fh.write("header\n" + ",".join(["e", "0", "identity"] + ["0"] * 6) + "\n")
        with open(os.path.join(out, "run_report.json"), "w", encoding="utf-8") as fh:
            json.dump({"metrics": {"cone": {"rows": [{"forward": 0.0}]}}}, fh)
        return 0


def _perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def _assert_parse(argvs):
    parser = cli.build_parser()
    for argv in argvs:
        parser.parse_args(argv)  # SpecError names the refused argument


def test_workload_commands_parse(monkeypatch, tmp_path):
    workloads = _perfbench(monkeypatch, "workloads")
    api = _RecordingAPI()
    root = str(PERFBENCH.parent)
    for name, workload in workloads.WORKLOADS.items():
        ctx = workloads.Context(api, root, str(tmp_path / name), 1, 1)
        os.makedirs(ctx.work)
        wl = workload()
        wl.setup(ctx)
        wl.run_pass(ctx)
        wl.final_checks(ctx)
    commands = {tuple(argv[:2]) for argv in api.argvs}
    assert commands == {
        ("limitset", "enumerate"), ("limitset", "cone"), ("limitset", "minimality"),
        ("limitset", "product"), ("limitset", "axdens"), ("schottky", "build"),
    }
    _assert_parse(api.argvs)


def test_make_reference_commands_parse(monkeypatch, tmp_path):
    make_reference = _perfbench(monkeypatch, "make_reference")
    workloads = _perfbench(monkeypatch, "workloads")
    api = _RecordingAPI()
    monkeypatch.setattr(cli, "main", api.cli.main)
    monkeypatch.setattr(workloads, "REFERENCE", str(tmp_path / "reference.json"))
    monkeypatch.setattr(sys, "path", list(sys.path))  # main prepends src
    make_reference.main()
    assert [argv[:2] for argv in api.argvs] == [
        ["limitset", "enumerate"], ["limitset", "cone"]]
    _assert_parse(api.argvs)
