"""Guards for the benchmark's layer tracer (`perfbench/layertrace.py`).

The tracer wraps module globals of `urbanbench.cli` and `urbanbench.heads`
by name. A refactor that renames one of them, or that stops calling an
aligner or reader through `cli`, would silently zero its spans; these tests
make that a failure instead.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import urbanbench.cli as cli
import urbanbench.heads as heads

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace = _load("layertrace")


def test_wrapped_names_are_module_globals():
    assert [fn for fn in layertrace.CLI_FNS if fn not in vars(cli)] == []
    assert [fn for fn in layertrace.HEADS_FNS if fn not in vars(heads)] == []


def test_traced_run_records_every_aligner_and_reader(tmp_path):
    workloads = _load("workloads")
    w = workloads.tiny(workloads.WORKLOADS["align-large"])
    manifest = workloads.generate(w, workloads.DEFAULT_SEED, tmp_path / "inputs")
    spans = tmp_path / "spans.json"
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "layertrace.py"), str(spans),
         *w.run_args(manifest, tmp_path / "out")],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    recorded = {s[0] for s in json.loads(spans.read_text(encoding="utf-8"))}
    assert sorted({*layertrace.ALIGN_KINDS, *layertrace.READERS} - recorded) == []
