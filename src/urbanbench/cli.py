"""Benchmark orchestration: manifest -> alignment -> splits -> training ->
metrics -> aggregation -> reports, with resumable runs and run metadata.

The result store is an append-only CSV rewritten per flush in a canonical
order, so interrupted runs resume to byte-identical stores. Every file a run
or report puts in the run directory goes through the one writer,
`core.write_atomic`, so a failed write leaves the file as it was. All
harness-chosen constants are serialized into run_meta.json; timestamps live
in a separate run_times.json so complete stores compare byte-identical.
"""

from __future__ import annotations

import gc

# Everything these imports create (numpy, the standard library, the harness
# modules) lives as long as the process, so a collection during them frees
# nothing. Pause the cyclic collector for them, then freeze what they made,
# so that no later collection, nor those at interpreter exit, walks it again.
# The collector is left on or off as it was found.
_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    import argparse
    import csv
    import io
    import json
    import math
    import sys
    import time
    from pathlib import Path
    from typing import Iterable, NamedTuple, Sequence

    import numpy as np

    from .align import (
        AlignedMatrix,
        align_cell_table,
        align_coordinate_encoder,
        align_entities_h3_first,
        align_raster,
        read_cell_table_csv,
        read_entity_csv,
        read_erf,
    )
    from .core import (
        METRICS_FOR_KIND,
        TASK_LABEL_KIND,
        TASK_PRIMARY_METRIC,
        CellTableSupport,
        CoordinateEncoderSupport,
        EntitySetSupport,
        Manifest,
        RasterSupport,
        ResultRecord,
        TaskDataset,
        ValidationError,
        _fmt,
        check_rows,
        checked,
        load_manifest,
        load_task_dataset,
        parse_rows,
        read_json_object,
        read_table,
        repeats,
        stable_seed,
        task_direction,
        validate_manifest,
        write_atomic,
    )
    from .grid import H3_RES8_EDGE_M, BlockGrid, HexGrid
    from .heads import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, EARLY_STOP_TOL, LEARNING_RATE, HeadConfig,
                        gradient_check, predict, train_head)
    from .metrics import KL_EPSILON, classification_metrics, distribution_metrics, regression_metrics
    from .pe_encoder import N_FREQ, PE_ENCODER_ID, R_MAX_M, R_MIN_M, get_encoder
    from .split import DEFAULT_SEEDS, DEFAULT_TEST_FRAC, DEFAULT_VAL_FRAC, TEST, random_split, spatial_split, write_split_csv
finally:
    gc.freeze()
    if _gc_was_enabled:
        gc.enable()

PROTOCOLS = ("spatial", "random")
STORE_HEADER = ("model", "task", "city", "seed", "protocol", "metric", "value", "n_test")
_METRIC_ORDER = {m: i for kind in METRICS_FOR_KIND.values() for i, m in enumerate(kind)}


class ResultStore:
    """Append-only record sink; flush rewrites the CSV in canonical order so
    resumed runs converge to identical bytes."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.records: list[ResultRecord] = []
        if self.path.exists():
            self.records = read_result_store(self.path)

    def completed_groups(self) -> set[tuple]:
        return {r[:5] for r in self.records}  # (model, task, city, seed, protocol): each group is whole

    def add(self, records: list[ResultRecord]) -> None:
        self.records.extend(records)

    def flush(self) -> None:
        ordered = sorted(self.records, key=lambda r: (r.model_id, r.task, r.city, r.protocol, r.seed,
                                                      _METRIC_ORDER.get(r.metric, 99)))
        _write_csv(self.path, STORE_HEADER, ([r.model_id, r.task, r.city, r.seed, r.protocol,
                                              r.metric, _fmt(r.value), r.n_test] for r in ordered))


def read_result_store(path: str | Path) -> list[ResultRecord]:
    """The records of a result store. Each row holds the header's field count,
    an int seed and n_test and a float value, a known task and protocol, a
    metric of the task's kind, n_test >= 1, and a (model, task, city, seed,
    protocol, metric) key that no earlier row has. Once every row holds, each
    (model, task, city, seed, protocol) group holds every metric of its task's
    kind; a group that does not is named at its first row."""
    path = Path(path)
    _, lines, rows = read_table(path, {})
    if rows[:1] != [list(STORE_HEADER)]:
        raise ValidationError(f"{path}: unexpected result store header {rows[0] if rows else None}")
    rows, lines = rows[1:], lines[1:]
    columns, read_rules = parse_rows(STORE_HEADER, rows, (None, None, None, int, None, None, float, int))
    records = list(map(ResultRecord, *columns))

    def breaks(rule) -> np.ndarray:
        return np.fromiter(map(rule, records), bool, len(records))

    check_rows([
        *read_rules,
        (breaks(lambda r: r.task not in TASK_LABEL_KIND), lambda i: f"unknown task {records[i].task!r}"),
        (breaks(lambda r: r.protocol not in PROTOCOLS), lambda i: f"unknown protocol {records[i].protocol!r}"),
        (breaks(lambda r: r.metric not in METRICS_FOR_KIND.get(TASK_LABEL_KIND.get(r.task), ())),
         lambda i: f"metric {records[i].metric!r} is not a {records[i].task} metric"),
        (breaks(lambda r: r.n_test < 1), lambda i: f"n_test {records[i].n_test} < 1"),
        (repeats([(r.model_id, r.task, r.city, r.seed, r.protocol, r.metric) for r in records]),
         lambda i: "repeated (model, task, city, seed, protocol, metric) key"),
    ], path, lines)
    groups: dict[tuple, list[str]] = {}  # each group's metrics without a row
    for r in records:
        groups.setdefault(r[:5], list(METRICS_FOR_KIND[TASK_LABEL_KIND[r.task]])).remove(r.metric)
    check_rows([(breaks(lambda r: bool(groups[r[:5]])),
                 lambda i: f"incomplete group: no {', '.join(groups[records[i][:5]])} row")], path, lines)
    return records


@checked
class RunPlan(NamedTuple):
    manifest_path: Path
    out_dir: Path
    models: tuple[str, ...] | None = None
    cities: tuple[str, ...] | None = None
    tasks: tuple[str, ...] | None = None
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    protocols: tuple[str, ...] = PROTOCOLS
    nx: int = 10
    ny: int = 10
    head: HeadConfig = HeadConfig()  # output and n_out are set per task

    def _check(self):
        bad = set(self.protocols) - set(PROTOCOLS)
        if bad or not self.protocols:
            raise ValidationError(f"protocols must be a nonempty subset of spatial,random; got {self.protocols}")
        if not self.seeds:
            raise ValidationError("need at least one seed")
        if self.nx < 1 or self.ny < 1:
            raise ValidationError(f"grid must be at least 1x1, got {self.nx}x{self.ny}")
        for what, values in (("seed", self.seeds), ("protocol", self.protocols), ("model", self.models),
                             ("city", self.cities), ("task", self.tasks)):
            for i, v in enumerate(values or ()):
                if v in values[:i]:
                    raise ValidationError(f"repeated {what} {v!r}")


def _load_task(manifest: Manifest, city: str, task: str) -> TaskDataset:
    """A manifest task file, loaded and checked against its manifest entry."""
    path = manifest.resolve(manifest.cities[city][task])
    ds = load_task_dataset(path)
    if (ds.city, ds.task) != (city, task):
        raise ValidationError(
            f"{path}: task file metadata ({ds.city},{ds.task}) != manifest entry ({city},{task})")
    return ds


def _load_support(manifest: Manifest, model_id: str, city: str):
    """A model's support for one city, checked against its declared dim (an encoder's
    by `validate_manifest`). A cell table's grid is its file's `# hexgrid` comment."""
    m = manifest.models[model_id]
    if m.support == "coordinate_encoder":
        return get_encoder(m.encoder)
    path = manifest.resolve(m.files[city])
    if m.support == "raster":
        support = read_erf(path)
    elif m.support == "entity_set":
        support = read_entity_csv(path)
    else:
        support = read_cell_table_csv(path)
    if support.dim != m.dim:
        raise ValidationError(f"{path}: file dim {support.dim} != declared {m.dim}")
    return support


def align_support(support, task: TaskDataset) -> AlignedMatrix:
    """The one alignment dispatch: each support kind onto the task units; entity
    sets pool on the hex grid centred on the task extent, a cell table keeps its own."""
    if isinstance(support, RasterSupport):
        return align_raster(support, task)
    if isinstance(support, EntitySetSupport):
        return align_entities_h3_first(support, HexGrid(*task.extent.center), task)
    if isinstance(support, CellTableSupport):
        return align_cell_table(support, task)
    if isinstance(support, CoordinateEncoderSupport):
        return align_coordinate_encoder(support, task)
    raise ValidationError(f"unsupported representation support {type(support).__name__}")


def evaluate(model_id: str, task: TaskDataset, features: AlignedMatrix, split, cfg: HeadConfig,
             run_seed: int) -> list[ResultRecord]:
    """The one evaluate step: train a head on the split, score its test units."""
    head = train_head(features, task.labels, split, cfg, run_seed)
    preds = predict(head, features)
    mask = split.mask(TEST) & features.valid
    n_test = int(np.count_nonzero(mask))
    if n_test == 0:
        raise ValidationError("no valid test units")
    y = task.labels[mask]
    p = preds[mask]
    if task.label_kind == "scalar":
        computed = regression_metrics(y, p)
    elif task.label_kind == "class":
        computed = classification_metrics(y, p, task.n_classes)
    else:
        computed = distribution_metrics(y, p)
    return [ResultRecord(model_id=model_id, task=task.task, city=task.city, seed=split.seed,
                         protocol=split.protocol, metric=name, value=computed[name], n_test=n_test)
            for name in METRICS_FOR_KIND[task.label_kind]]


class RunOutcome(NamedTuple):
    exit_code: int
    new_records: int
    skipped_groups: int
    failures: Sequence[tuple[str, str]] = ()


def run(plan: RunPlan, log=print) -> RunOutcome:
    """Execute the plan; resumable and deterministic. Every task file loads before
    anything is written, and splits are hashed before any representation is read,
    so they cannot depend on models. A manifest that fails validation raises
    one ValidationError naming it. Gaps are logged and skipped; per-group
    failures are recorded and skipped."""
    manifest = load_manifest(plan.manifest_path)
    report_v = validate_manifest(manifest)
    if not report_v.ok:
        raise ValidationError(f"{plan.manifest_path}: " + "; ".join(report_v.errors))
    for w in report_v.warnings:
        log(f"warning: {w}")

    models = list(plan.models) if plan.models else sorted(manifest.models)
    manifest_tasks = {t for tasks in manifest.cities.values() for t in tasks}
    for what, names, known in (("model", models, manifest.models),
                               ("city", plan.cities or (), manifest.cities),
                               ("task", plan.tasks or (), manifest_tasks)):
        for name in names:
            if name not in known:
                raise ValidationError(f"{what} {name!r} not in manifest")
    cities = [c for c in sorted(manifest.cities) if plan.cities is None or c in plan.cities]

    # Phase 1: every planned task file loaded and checked, and every
    # model-invariant split drawn, before anything is written or any support read.
    datasets: dict[tuple[str, str], TaskDataset] = {
        (city, task_name): _load_task(manifest, city, task_name) for city, task_name in report_v.tasks
        if city in cities and (plan.tasks is None or task_name in plan.tasks)}
    grids = {}
    splits: dict[tuple[str, str, str, int], object] = {}
    for (city, task_name), ds in datasets.items():
        try:
            grids[(city, task_name)] = grid = BlockGrid(ds.extent, plan.nx, plan.ny)
            for protocol in plan.protocols:
                for seed in plan.seeds:
                    splits[(city, task_name, protocol, seed)] = (
                        spatial_split(ds, grid, seed) if protocol == "spatial"
                        else random_split(ds, seed))
        except ValidationError as e:
            raise ValidationError(f"city {city}, task {task_name}: {e}") from None
    for model_id, city, task_name, reason in report_v.gaps:
        if model_id in models and (city, task_name) in datasets:
            log(f"gap: {model_id} / {city} / {task_name}: {reason}")

    # json.dumps(sort_keys=True) orders every table below
    head = plan.head
    meta = {
        "plan": {
            "models": models, "cities": cities,
            "tasks": sorted({t for _, t in datasets}),
            "seeds": list(plan.seeds), "protocols": list(plan.protocols),
            "grid": [plan.nx, plan.ny], "head": head.kind,
            "hidden_dim": head.hidden_dim, "batch_size": head.batch_size,
            "learning_rate": LEARNING_RATE, "max_epochs": head.max_epochs,
            "patience": head.patience,
            "test_frac": DEFAULT_TEST_FRAC, "val_frac": DEFAULT_VAL_FRAC,
        },
        "constants": harness_constants(),
        "grids": {f"{c}|{t}": list(grid.signature()) for (c, t), grid in grids.items()},
        "hexgrids": {f"{c}|{t}": list(HexGrid(*ds.extent.center))
                     for (c, t), ds in datasets.items()},
        "splits": {"|".join(map(str, key)): a.assignment_hash for key, a in splits.items()},
    }
    out_dir = Path(plan.out_dir)
    meta = bind_plan(out_dir / "run_meta.json", meta)
    (out_dir / "splits").mkdir(parents=True, exist_ok=True)
    store = ResultStore(out_dir / "results.csv")
    completed = store.completed_groups()
    started = time.time()
    for (city, task_name, protocol, seed), a in splits.items():
        write_split_csv(out_dir / "splits" / f"{city}_{task_name}_{protocol}_{seed}.csv", a)
    write_atomic(out_dir / "run_meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")

    # Phase 2: align and evaluate every resolved pair.
    resolved = set(report_v.resolvable)
    failures: list[tuple[str, str]] = []
    new_records = 0
    skipped = 0
    # The current (model, city) and its support, or load error, read once for all its tasks.
    loaded_for, loaded = None, None
    for model_id in models:
        for (city, task_name), ds in datasets.items():
            if (model_id, city, task_name) not in resolved:
                continue
            pending = [(protocol, seed)
                       for protocol in plan.protocols for seed in plan.seeds
                       if (model_id, task_name, city, seed, protocol) not in completed]
            skipped += len(plan.protocols) * len(plan.seeds) - len(pending)
            if not pending:
                continue
            try:
                if loaded_for != (model_id, city):
                    loaded_for = (model_id, city)
                    try:
                        loaded = _load_support(manifest, model_id, city)
                    except (ValidationError, OSError) as e:
                        loaded = e
                if isinstance(loaded, Exception):
                    raise loaded
                features = align_support(loaded, ds)
                cfg = plan.head._replace(output=ds.label_kind,
                                         n_out=1 if ds.label_kind == "scalar" else int(ds.n_classes))
            except (ValidationError, OSError) as e:
                for protocol, seed in pending:
                    failures.append((f"{model_id}|{task_name}|{city}|{seed}|{protocol}", str(e)))
                continue
            for protocol, seed in pending:
                a = splits[(city, task_name, protocol, seed)]
                run_seed = stable_seed(model_id, task_name, city, seed, protocol)
                try:
                    records = evaluate(model_id, ds, features, a, cfg, run_seed)
                except ValidationError as e:
                    failures.append((f"{model_id}|{task_name}|{city}|{seed}|{protocol}", str(e)))
                    continue
                store.add(records)
                new_records += len(records)
                store.flush()

    # failures.csv lists this run's failures only
    if failures:
        _write_csv(out_dir / "failures.csv", ["run_key", "error"], sorted(failures))
    else:
        (out_dir / "failures.csv").unlink(missing_ok=True)
    write_atomic(out_dir / "run_times.json", json.dumps({"started": started, "finished": time.time()}) + "\n")
    log(f"run complete: {new_records} new records, {skipped} groups skipped, "
        f"{len(failures)} failures")
    return RunOutcome(exit_code=2 if failures else 0, new_records=new_records,
                      skipped_groups=skipped, failures=failures)


def bind_plan(path: Path, meta: dict) -> dict:
    """The run_meta.json to write: `meta` itself, or, if `path` holds the meta of
    an earlier run, the two merged. The plan's lists (models, cities, tasks,
    seeds, protocols) take the union, the recorded order first. Every other
    plan field and the constants must equal the recorded ones, and so must
    each `grids`, `hexgrids` and `splits` entry that both runs have; a run that
    differs raises a ValidationError naming `path`."""
    if not path.exists():
        return meta
    old = read_json_object(path, "run meta")
    new = json.loads(json.dumps(meta))  # as the file would hold it

    def same(name, was, now):
        if was != now:
            raise ValidationError(
                f"{path}: recorded {name} {json.dumps(was)} != this run's {json.dumps(now)}")

    try:
        plan = {}
        for key, now in new["plan"].items():
            was = old["plan"][key]
            if key in ("models", "cities", "tasks", "seeds", "protocols"):
                plan[key] = was + [v for v in now if v not in was]
            else:
                same(key, was, now)
                plan[key] = now
        same("constants", old["constants"], new["constants"])
        tables = {}
        for table in ("grids", "hexgrids", "splits"):
            for key in old[table].keys() & new[table].keys():
                same(f"{table} entry {key}", old[table][key], new[table][key])
            tables[table] = {**old[table], **new[table]}
    except (KeyError, TypeError, AttributeError):
        raise ValidationError(f"{path}: not the run meta of a run") from None
    return {"plan": plan, "constants": new["constants"], **tables}


def harness_constants() -> dict:
    """Every harness-chosen constant, inspectable next to the numbers it produced."""
    return {
        "kl_epsilon": KL_EPSILON,
        "kl_log": "natural",
        "adam": {"beta1": ADAM_BETA1, "beta2": ADAM_BETA2, "eps": ADAM_EPS},
        "weight_init": "uniform(+-sqrt(6/(fan_in+fan_out)))",
        "scaler_std": "population",
        "early_stop_tol": EARLY_STOP_TOL,
        "block_rounding": "half_up_min1_occupied_only",
        "block_boundary": "half_open_max_closed",
        "grid_units": "degrees_over_task_extent",
        "hex": {"edge_len_m": H3_RES8_EDGE_M, "scheme": "axial_aeqd_approx"},
        "pe": {"id": PE_ENCODER_ID, "n_freq": N_FREQ, "r_min_m": R_MIN_M, "r_max_m": R_MAX_M},
        "entity_pooling": "unweighted_mean",
        "invalid_rows": "dropped",
        "raster_coarse_rule": "rep_cell_contains_representative_point",
        "rng": "numpy_pcg64_sha256_keyed",
    }


# ---------------------------------------------------------------------------
# Reporting

def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    write_atomic(path, buf.getvalue())


def report(out_dir: str | Path, factors_path: str | Path | None = None, log=print) -> dict[str, Path]:
    """Aggregate a result store into summary files and a text leaderboard."""
    from .aggregate import (city_ranks, city_score, mean_city_rank, overall_rank,
                            spearman_factor_correlation, split_delta, task_summary)

    out_dir = Path(out_dir)
    store_path = out_dir / "results.csv"
    records = read_result_store(store_path)
    if not records:
        raise ValidationError(f"{store_path}: result store is empty")

    # {protocol: {(model, task, city): city score}}, filled in sorted key order:
    # the factor table's np.mean over models is not invariant to their order
    seed_values: dict[tuple, list[float]] = {}
    for r in records:
        if r.metric == TASK_PRIMARY_METRIC[r.task]:
            seed_values.setdefault((r.protocol, r.model_id, r.task, r.city), []).append(r.value)
    scores: dict[str, dict[tuple[str, str, str], float]] = {p: {} for p in PROTOCOLS}
    for key in sorted(seed_values):
        try:
            scores[key[0]][key[1:]] = city_score(seed_values[key])
        except ValidationError:
            continue  # all seeds degenerate for this cell
    spatial = scores["spatial"]
    paths: dict[str, Path] = {}

    # task_summary.csv
    by_mt: dict[tuple[str, str], list[float]] = {}
    for (m, t, _), v in spatial.items():
        by_mt.setdefault((m, t), []).append(v)
    summaries = {mt: task_summary(v) for mt, v in sorted(by_mt.items())}
    rows = [[m, t, _fmt(avg), "" if c_std is None else _fmt(c_std), len(by_mt[m, t])]
            for (m, t), (avg, c_std) in summaries.items()]
    paths["task_summary"] = out_dir / "task_summary.csv"
    _write_csv(paths["task_summary"], ["model", "task", "avg", "c_std", "n_cities"], rows)

    # ranks.csv (per-task mean city rank) and overall.csv
    by_tc: dict[tuple[str, str], dict[str, float]] = {}
    for (m, t, c), v in spatial.items():
        by_tc.setdefault((t, c), {})[m] = v
    per_task_tables: dict[str, list[dict[str, int]]] = {}
    for (task_name, _), model_scores in sorted(by_tc.items()):
        per_task_tables.setdefault(task_name, []).append(
            city_ranks(model_scores, task_direction(task_name)))
    task_mean_ranks = {t: mean_city_rank(tables) for t, tables in per_task_tables.items()}
    rank_rows = [[m, t, _fmt(r)] for t in sorted(task_mean_ranks)
                 for m, r in sorted(task_mean_ranks[t].items())]
    paths["ranks"] = out_dir / "ranks.csv"
    _write_csv(paths["ranks"], ["model", "task", "mean_city_rank"], rank_rows)

    # ranks come from the spatial protocol only; a random-only store has none
    overall = overall_rank(task_mean_ranks) if task_mean_ranks else {}
    overall_rows = [[m, _fmt(r)] for m, r in sorted(overall.items(), key=lambda kv: (kv[1], kv[0]))]
    paths["overall"] = out_dir / "overall.csv"
    _write_csv(paths["overall"], ["model", "overall_rank"], overall_rows)

    # split_delta.csv
    delta_rows = [[m, t, c, _fmt(d)] for (m, t, c), d in split_delta(scores["random"], spatial).items()]
    paths["split_delta"] = out_dir / "split_delta.csv"
    _write_csv(paths["split_delta"], ["model", "task", "city", "delta"], delta_rows)

    # factor_corr.csv (needs an external per-city factor table)
    paths["factor_corr"] = out_dir / "factor_corr.csv"
    corr_rows: list[list] = []
    if factors_path is not None:
        factors = _read_factors(factors_path)
        perf_by_task: dict[str, dict[str, list[float]]] = {}
        for (_, t, c), v in spatial.items():
            perf_by_task.setdefault(t, {}).setdefault(c, []).append(v)
        for task_name in sorted(perf_by_task):
            perf = {c: float(np.mean(v)) for c, v in perf_by_task[task_name].items()}
            direction = task_direction(task_name)
            for fname in sorted(factors):
                try:
                    res = spearman_factor_correlation(factors[fname], perf, direction)
                except ValidationError:
                    continue
                if res is not None:  # the t-approximation is rough below 10 cities
                    rho, p_value, n = res
                    corr_rows.append([task_name, fname, _fmt(rho), _fmt(p_value), n, int(n < 10)])
    _write_csv(paths["factor_corr"], ["task", "factor", "rho", "p_value", "n", "approximate"],
               corr_rows)

    # leaderboard: fixed width, ordered by overall rank ascending
    tasks = sorted({t for _, t in summaries})
    lines = []
    name_w = max([len(m) for m in overall] + [5]) + 2
    header = f"{'model':<{name_w}}{'overall':>9}" + "".join(f"{t:>10}" for t in tasks)
    lines.append(header)
    lines.append("-" * len(header))
    if not overall:
        lines.append("no spatial-protocol results to rank")
    for m, r in sorted(overall.items(), key=lambda kv: (kv[1], kv[0])):
        cells = []
        for t in tasks:
            ts = summaries.get((m, t))
            cells.append(f"{ts[0]:>10.4f}" if ts else f"{'-':>10}")
        lines.append(f"{m:<{name_w}}{r:>9.3f}" + "".join(cells))
    paths["leaderboard"] = out_dir / "leaderboard.txt"
    write_atomic(paths["leaderboard"], "\n".join(lines) + "\n")
    log("\n".join(lines))
    return paths


def _read_factors(path: str | Path) -> dict[str, dict[str, float]]:
    """CSV `city,<factor>,<factor>,...` -> factor name -> city -> value. Each
    factor name is nonempty and unique; each row holds the header's field
    count, a nonempty city of its own and finite numbers; "" is missing."""
    path = Path(path)
    _, lines, rows = read_table(path, {})
    header = rows[0] if rows else []
    if header[:1] != ["city"]:
        raise ValidationError(f"{path}: factors header must start with 'city'")
    names, n = header[1:], len(rows) - 1
    for j, name in enumerate(names):
        if not name or name in names[:j]:
            what = f"repeated factor {name!r}" if name else "empty factor name"
            raise ValidationError(f"{path}:{lines[0]}: {what}")
    rows, lines = rows[1:], lines[1:]
    columns, read_rules = parse_rows(header, rows, [None] + [_factor_value] * len(names))
    cities, values = columns[0], columns[1:]
    check_rows([
        *read_rules,
        (np.array([c == "" for c in cities], dtype=bool), lambda i: "empty city"),
        (repeats(cities), lambda i: f"repeated city {cities[i]!r}"),
        *((np.fromiter((v is not None and not math.isfinite(v) for v in col), bool, n),
           lambda i, j=j: f"factor {names[j]!r} value {rows[i][j + 1]!r} is not a finite number")
          for j, col in enumerate(values)),
    ], path, lines)
    return {name: {c: v for c, v in zip(cities, col) if v is not None} for name, col in zip(names, values)}


def _factor_value(text: str) -> float | None:
    """A factor field: a number, or None for an empty (missing) one."""
    return float(text) if text else None


# ---------------------------------------------------------------------------
# Entry points

def _cmd_validate(args) -> int:
    """The structural checks, then every task file that `run` loads and every
    (model, city) embedding file of a pair, each read once by the loaders `run` uses."""
    manifest = load_manifest(args.manifest)
    report_v = validate_manifest(manifest)
    errors = list(report_v.errors)
    datasets: dict[tuple[str, str], TaskDataset] = {}
    for city, task in report_v.tasks:
        try:
            datasets[(city, task)] = _load_task(manifest, city, task)
        except (ValidationError, OSError) as e:
            errors.append(f"city {city}, task {task}: {e}")
    failed: set[tuple[str, str]] = set()  # (model, city) whose embedding file fails to load
    for model, city in sorted({(m, c) for m, c, _ in report_v.resolvable}):
        if not any(c == city for c, _ in datasets):
            continue  # no task to align onto; the task errors say why
        try:
            _load_support(manifest, model, city)
        except (ValidationError, OSError) as e:
            failed.add((model, city))
            errors.append(f"model {model}, city {city}: {e}")
    report_v = report_v._replace(errors=errors, resolvable=[
        (m, c, t) for m, c, t in report_v.resolvable if (c, t) in datasets and (m, c) not in failed])
    for e in report_v.errors:
        print(f"error: {e}")
    for w in report_v.warnings:
        print(f"warning: {w}")
    for model, city, task in report_v.resolvable:
        print(f"ok: {model} / {city} / {task}")
    for model, city, task, reason in report_v.gaps:
        print(f"gap: {model} / {city} / {task}: {reason}")
    print(report_v.summary())
    return 0 if report_v.ok else 1


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nx, ny = text.lower().split("x")
        return int(nx), int(ny)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 10x10, got {text!r}") from None


def _comma_list(text: str, parse=str) -> tuple:
    """The argparse type of every comma-list option: one or more nonempty items, each read by `parse`."""
    try:
        if "" in (items := text.split(",")):
            raise ValueError
        return tuple(map(parse, items))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of nonempty {parse.__name__} items") from None


def _cmd_run(args) -> int:
    plan = RunPlan(
        manifest_path=Path(args.manifest), out_dir=Path(args.out), models=args.models, cities=args.cities,
        tasks=args.tasks, seeds=args.seeds, protocols=args.protocols, nx=args.grid[0], ny=args.grid[1],
        head=HeadConfig(kind=args.head, batch_size=args.batch_size, max_epochs=args.max_epochs,
                        hidden_dim=args.hidden_dim, patience=args.patience),
    )
    return run(plan).exit_code


def _cmd_report(args) -> int:
    report(args.dir, factors_path=args.factors)
    return 0


def _cmd_synth(args) -> int:
    from .synth import read_synth_config, write_synth_city

    paths = write_synth_city(read_synth_config(args.config), args.out)
    for name, p in sorted(paths.items()):
        print(f"{name}: {p}")
    return 0


def _cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(7)
    x = rng.standard_normal((8, 12))
    y_scalar = rng.standard_normal(8)
    y_class = rng.integers(0, 3, size=8)
    p = rng.random((8, 3))
    y_dist = p / p.sum(axis=1, keepdims=True)
    checks = [
        ("linear+mse", HeadConfig(kind="linear", output="scalar", n_out=1,
                                  hidden_dim=8, batch_size=8, max_epochs=2, patience=1),
         (x, y_scalar), 1e-6),
        ("mlp+cross_entropy", HeadConfig(kind="mlp", output="class", n_out=3,
                                         hidden_dim=8, batch_size=8, max_epochs=2, patience=1),
         (x, y_class), 1e-4),
        ("mlp+kl", HeadConfig(kind="mlp", output="distribution", n_out=3,
                              hidden_dim=8, batch_size=8, max_epochs=2, patience=1),
         (x, y_dist), 1e-4),
    ]
    ok = True
    for name, cfg, batch, tol in checks:
        err = gradient_check(cfg, batch, run_seed=11)
        status = "ok" if err < tol else "FAIL"
        ok &= err < tol
        print(f"{name}: max relative error {err:.3e} (tolerance {tol:g}) {status}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="urbanbench",
                                     description="Spatial-unit-agnostic urban embedding benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a manifest without running")
    p.add_argument("manifest")
    p.set_defaults(fn=_cmd_validate)

    plan, head = RunPlan._field_defaults, HeadConfig._field_defaults
    p = sub.add_parser("run", help="run the benchmark for a manifest")
    p.add_argument("manifest")
    p.add_argument("--grid", type=_parse_grid, default=(plan["nx"], plan["ny"]))
    p.add_argument("--protocols", type=_comma_list, default=plan["protocols"])
    p.add_argument("--seeds", type=lambda text: _comma_list(text, int), default=plan["seeds"])
    p.add_argument("--head", choices=["linear", "mlp"], default=head["kind"])
    p.add_argument("--out", default="runs/out")
    p.add_argument("--models", type=_comma_list)
    p.add_argument("--cities", type=_comma_list)
    p.add_argument("--tasks", type=_comma_list)
    p.add_argument("--batch-size", type=int, default=head["batch_size"])
    p.add_argument("--max-epochs", type=int, default=head["max_epochs"])
    p.add_argument("--hidden-dim", type=int, default=head["hidden_dim"])
    p.add_argument("--patience", type=int, default=head["patience"])
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("report", help="aggregate a result store into summaries")
    p.add_argument("dir")
    p.add_argument("--factors", default=None)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic city")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("gradcheck", help="verify optimizer gradients numerically")
    p.set_defaults(fn=_cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
