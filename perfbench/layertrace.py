"""Layer tracing for urbanbench, applied from outside the program.

`install` replaces the module globals that `cli.run`, `cli.report` and
`heads.train_head` look up at call time with wrappers that record one span
per call. Spans stay in memory and are written as JSON when the traced
command ends. Run a traced CLI command with

    python3 perfbench/layertrace.py SPANS.json run MANIFEST --out DIR ...

and pass the resulting file to `layer_metrics`.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path

ALIGN_KINDS = {
    "align_raster": "raster",
    "align_entities_h3_first": "entity_set",
    "align_cell_table": "cell_table",
    "align_coordinate_encoder": "coordinate_encoder",
}
READERS = ("read_erf", "read_entity_csv", "read_cell_table_csv")
METRIC_FNS = ("regression_metrics", "classification_metrics", "distribution_metrics")
CLI_FNS = ("run", "report", "load_task_dataset", "spatial_split", "random_split",
           "write_split_csv", "read_result_store", "train_head", "predict",
           *ALIGN_KINDS, *READERS, *METRIC_FNS)
HEADS_FNS = ("batch_gradients", "batch_loss")


class Tracer:
    """In-memory span list; each span is [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """`attrs(args, result)` returns counts to store on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, {}])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if attrs is not None:
                self.spans[idx][4] = attrs(args, result)
            return result

        return traced


def _matmul_flops(kind: str, rows: int, dim: int, hidden: int, n_out: int, backward: bool) -> int:
    """Matmul flops (2 per multiply-add) of one head forward, plus its backward if asked."""
    if kind == "linear":
        return 2 * rows * dim * n_out * (2 if backward else 1)
    fwd = 2 * rows * dim * hidden + 2 * rows * hidden * n_out
    # backward: dh = dz W2^T, dW2 = h^T dz, dW1 = x^T dh
    return fwd + (2 * rows * hidden * n_out * 2 + 2 * rows * dim * hidden if backward else 0)


def _batch_attrs(backward: bool):
    def attrs(args, result):
        _, cfg, x, _ = args[:4]
        return {"flop": _matmul_flops(cfg.kind, x.shape[0], x.shape[1], cfg.hidden_dim,
                                      cfg.n_out, backward)}
    return attrs


def _predict_attrs(args, result):
    head, features = args[:2]
    cfg = head.cfg
    return {"flop": _matmul_flops(cfg.kind, features.n, features.dim, cfg.hidden_dim,
                                  cfg.n_out, False)}


def _align_attrs(args, result):
    return {"units": int(result.n), "valid": int(result.valid.sum())}


def install(tracer: Tracer) -> None:
    """Wrap the program's module globals; nothing under `src/` is edited."""
    from urbanbench import cli, heads

    special = {
        "train_head": lambda a, r: {"epochs": r.epochs_run},
        "predict": _predict_attrs,
        "read_result_store": lambda a, r: {"records": len(r)},
        **{fn: _align_attrs for fn in ALIGN_KINDS},
    }
    for fn in CLI_FNS:
        setattr(cli, fn, tracer.wrap(fn, getattr(cli, fn), special.get(fn)))
    for fn in HEADS_FNS:
        setattr(heads, fn, tracer.wrap(fn, getattr(heads, fn),
                                       _batch_attrs(backward=fn == "batch_gradients")))
    cli.ResultStore.flush = tracer.wrap(
        "flush", cli.ResultStore.flush,
        lambda a, r: {"bytes": os.path.getsize(a[0].path)})


# ---------------------------------------------------------------------------
# Per-layer metrics from span files

def _percentile(values: list[float], pct: float) -> float:
    s = sorted(values)
    return s[min(len(s) - 1, int(pct / 100.0 * len(s)))]


def tail_percentile(n: int) -> float:
    """Highest of p99.9, p99, p90 with at least ten samples beyond it; 100 (the maximum) if none."""
    for pct in (99.9, 99.0, 90.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 100.0


def layer_metrics(span_files: list[Path], walls: list[float]) -> dict[str, float]:
    """Sum the spans of one traced repetition (run, rerun and report) into
    per-layer values; `walls` are the wall times of those processes."""
    total: dict[str, float] = {"cli.startup.s": sum(walls)}
    group_ms: list[float] = []

    def add(key: str, v: float) -> None:
        total[key] = total.get(key, 0.0) + v

    for path in span_files:
        spans = json.loads(path.read_text(encoding="utf-8"))
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        under_report = set()
        for i, s in enumerate(spans):
            if s[0] == "report" or (s[3] >= 0 and s[3] in under_report):
                under_report.add(i)
        flush_ends = sorted(s[2] for s in spans if s[0] == "flush")
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            d = dur[i]
            if parent < 0:
                add("cli.startup.s", -d)
            if name == "run":
                add("cli.run_self.s", d - child[i])
            elif name == "report":
                add("aggregate.report.s", d)
            elif name == "load_task_dataset":
                add("core.load_task_dataset.s", d)
                add("core.load_task_dataset.calls", 1)
            elif name in ("spatial_split", "random_split"):
                add(f"split.{name}.s", d)
                add("split.calls", 1)
            elif name == "write_split_csv":
                add("split.write_split_csv.s", d)
            elif name in READERS:
                add("align.read.s", d)
            elif name in ALIGN_KINDS:
                kind = ALIGN_KINDS[name]
                add(f"align.{kind}.s", d)
                add(f"align.units.{kind}", attrs["units"])
                add(f"align.valid_units.{kind}", attrs["valid"])
            elif name == "train_head":
                add("heads.train_head.s", d)
                add("heads.train_head.calls", 1)
                add("heads.epochs", attrs["epochs"])
                add("heads.train_self.s", d - child[i])
                nxt = next((e for e in flush_ends if e > end), None)
                if nxt is not None:
                    group_ms.append((nxt - start) * 1000.0)
            elif name in HEADS_FNS:
                add(f"heads.{name}.s", d)
                add("heads.gflop", attrs["flop"] / 1e9)
                if name == "batch_gradients":
                    add("heads.batches", 1)
            elif name == "predict":
                add("heads.predict.s", d)
                add("heads.gflop", attrs["flop"] / 1e9)
            elif name in METRIC_FNS:
                add("metrics.s", d)
                add("metrics.calls", 1)
            elif name == "flush":
                add("cli.store_flush.s", d)
                add("cli.store_flush.calls", 1)
                add("cli.store_bytes_written", attrs["bytes"])
            elif name == "read_result_store":
                if i in under_report:
                    add("aggregate.records", attrs["records"])
                else:
                    add("cli.read_result_store.s", d)

    for kind in ALIGN_KINDS.values():
        units = total.get(f"align.units.{kind}", 0.0)
        valid = total.get(f"align.valid_units.{kind}", 0.0)
        total[f"align.coverage.{kind}"] = valid / units if units else 0.0
    total["cli.groups"] = len(group_ms)
    if group_ms:
        pct = tail_percentile(len(group_ms))
        total["cli.group_ms.p50"] = statistics.median(group_ms)
        total["cli.group_ms.tail"] = _percentile(group_ms, pct)
        total["cli.group_ms.tail_pct"] = pct
    return total


def main(argv: list[str]) -> int:
    spans_path, cli_argv = Path(argv[0]), argv[1:]
    from urbanbench import cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_argv)
    finally:
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
