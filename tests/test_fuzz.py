"""Property tests: every reader either loads its input or raises
ValidationError, whatever the bytes; every CSV reader gives the same result
whatever the line endings and blank lines; the manifest loader and validator
do the same for any JSON document, and `urbanbench validate` exits 0 or 1."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import TaskUnit, dataset
from urbanbench.align import (
    read_cell_table_csv,
    read_entity_csv,
    read_erf,
    write_cell_table_csv,
    write_entity_csv,
    write_erf,
)
from urbanbench.cli import ResultStore, _read_factors, main, read_result_store
from urbanbench.core import (
    SUPPORT_KINDS,
    TASKS,
    CellTableSupport,
    EntitySetSupport,
    RasterSupport,
    Rect,
    ResultRecord,
    TaskDataset,
    ValidationError,
    load_manifest,
    load_task_dataset,
    validate_manifest,
    write_task_dataset,
)
from urbanbench.grid import HexGrid, parse_hex_cell_key
from urbanbench.split import random_split, write_split_csv

SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)
GRID = HexGrid(0.0, 0.0)


def _valid_files() -> dict[str, bytes]:
    """One small well-formed file of each format, as bytes."""
    units = [TaskUnit(f"u{i}", 0.001 * i, 0.002 * i) for i in range(4)]
    cells = [TaskUnit(f"r{i}", 0.5 + i, 0.5, "raster_cell", Rect(i, 0.0, i + 1.0, 1.0))
             for i in range(3)]
    probs = np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0], [0.0, 1.0]])
    rows = [ResultRecord("m", "POP", "c", 42, "spatial", "r2", 0.5, 7),
            ResultRecord("m", "POP", "c", 42, "spatial", "mae", float("nan"), 7),
            ResultRecord("m", "POP", "c", 42, "spatial", "rmse", 1.5, 7)]
    with tempfile.TemporaryDirectory() as d:
        d = Path(d)
        pop = dataset("c", "POP", units, np.arange(4.0), Rect(0.0, 0.0, 1.0, 1.0))
        write_task_dataset(d / "pop.csv", pop)
        write_task_dataset(d / "luc.csv", dataset("c", "LUC", units, np.array([0, 1, 2, 1]),
                                                  Rect(0.0, 0.0, 1.0, 1.0), n_classes=3))
        write_task_dataset(d / "age.csv", dataset("c", "AGE", units, probs, Rect(0.0, 0.0, 1.0, 1.0)))
        write_task_dataset(d / "lst.csv", dataset("c", "LST", cells, np.ones(3), Rect(0.0, 0.0, 3.0, 1.0)))
        write_erf(d / "r.erf", RasterSupport(0.0, 0.0, 0.5, 0.5, 2, 2,
                                             np.arange(8, dtype=np.float32).reshape(2, 2, 2)))
        write_entity_csv(d / "e.csv", EntitySetSupport(np.array([0.1, 0.2]), np.array([0.3, 0.4]),
                                                       np.array([[1.0, 2.0], [3.0, 4.0]])))
        write_cell_table_csv(d / "t.csv", CellTableSupport(GRID, {(0, 0): np.ones(2),
                                                                   (1, -1): np.zeros(2)}))
        store = ResultStore(d / "results.csv")
        store.add(rows)
        store.flush()
        write_split_csv(d / "split.csv", random_split(pop, 42))
        files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
    files["factors.csv"] = b"city,area,density\nc,10,\nd,2.5,1e3\n"
    files["manifest.json"] = json.dumps({
        "cities": {"c": {"tasks": {"POP": "pop.csv"}}},
        "models": {"r": {"dim": 2, "support": "raster", "files": {"c": "r.erf"}},
                   "t": {"dim": 2, "support": "cell_table", "files": {"c": "t.csv"}}},
    }).encode()
    return files


VALID = _valid_files()
TOKENS = [b"nan", b"inf", b"-1", b"0", b"1e400", b"abc", b",", b"\n", b"\r", b"#", b'"', b":",
          b" ", b"\t", b"_", "\u0663".encode(), b"\xff", b"\xc3", b"\x00", b"# classes x\n",
          b"# extent 1 2\n", b"# hexgrid 0 0\n", b"9" * 200_001]  # past the csv module's field size limit


# Numbers at and past the float32 range, which an embedding CSV's vector must keep
NUMBERS = [b"1e39", b"-1e39", b"3.4e38", b"3.4028234663852886e38", b"3.4028235e38", b"1e308"]


@st.composite
def mutated(draw, names=tuple(sorted(VALID))):
    """A well-formed file of any format (of `names`) with a few bytes cut,
    changed or inserted, or a number replaced."""
    data = bytearray(VALID[draw(st.sampled_from(names))])
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["cut", "set", "insert", "number"]))
        if op == "cut":
            del data[i:i + draw(st.integers(1, 64))]
        elif op == "set" and i < len(data):
            data[i] = draw(st.integers(0, 255))
        elif op == "number" and (numbers := [m.span() for m in re.finditer(rb"[0-9][0-9.e+-]*", data)]):
            start, end = draw(st.sampled_from(numbers))
            data[start:end] = draw(st.sampled_from(NUMBERS))
        else:
            data[i:i] = draw(st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=4))
    return bytes(data)


FILE_BYTES = st.binary(max_size=64) | mutated()

READERS = {
    "task_csv": load_task_dataset,
    "erf": read_erf,
    "entity_csv": read_entity_csv,
    "cell_table": read_cell_table_csv,
    "manifest": lambda p: validate_manifest(load_manifest(p)),
    "result_store": read_result_store,
    "factors": _read_factors,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, data in VALID.items():
        (d / name).write_bytes(data)
    (d / "junk.bin").write_bytes(b"\xff\xfe\x00junk")
    (d / "subdir").mkdir()
    return d


@pytest.mark.parametrize("reader", sorted(READERS))
@SETTINGS
@given(data=FILE_BYTES)
def test_reader_loads_or_raises_validation_error(workdir, reader, data):
    path = workdir / f"input_{reader}"
    path.write_bytes(data)
    try:
        READERS[reader](path)
    except ValidationError as e:
        assert str(path) in str(e)


def _outcome(read, path):
    """What a CSV reader gives for a file, as comparable bytes."""
    try:
        out = read(path)
    except ValidationError as e:
        return ("error", str(e))
    if isinstance(out, TaskDataset):
        return ("ok", out.city, out.task, out.unit_ids, out.lons.tobytes(), out.lats.tobytes(),
                out.cell_extents.tobytes(), out.labels.dtype.str, out.labels.tobytes(), repr(out.extent),
                out.n_classes)
    if isinstance(out, list):  # result records, whose NaN values compare unequal
        return ("ok", repr(out))
    if isinstance(out, EntitySetSupport):
        return ("ok", out.lons.tobytes(), out.lats.tobytes(), out.vectors.tobytes())
    if isinstance(out, CellTableSupport):
        return ("ok", tuple(out.grid),
                sorted((c, v.tobytes()) for c, v in out.table.items()))
    return ("ok", out)


# (reader, its row-by-row reference, the valid file the inputs are mutated from)
ROW_READERS = {
    "entity_csv": (read_entity_csv, reference.read_entity_csv, "e.csv"),
    "cell_table": (read_cell_table_csv, reference.read_cell_table_csv, "t.csv"),
    "factors": (_read_factors, reference.read_factors, "factors.csv"),
    "result_store": (read_result_store, reference.read_result_store, "results.csv"),
}


@pytest.mark.parametrize("reader", sorted(ROW_READERS))
@SETTINGS
@given(data=st.data())
def test_reader_matches_row_by_row_reference(workdir, reader, data):
    read, ref, name = ROW_READERS[reader]
    path = workdir / f"rows_{reader}"
    path.write_bytes(data.draw(mutated((name,))))
    assert _outcome(read, path) == _outcome(ref, path)


# The readers of the one CSV dialect (`core.read_table`), with the valid files
# their inputs are mutated from
TABLE_READERS = {
    "task_csv": ("pop.csv", "luc.csv", "age.csv", "lst.csv"),
    "entity_csv": ("e.csv",),
    "cell_table": ("t.csv",),
    "result_store": ("results.csv",),
    "factors": ("factors.csv",),
}


@st.composite
def renderings(draw, names):
    """One table, a mutated file of `names` split into lines at CR, LF and
    CRLF, rendered twice: each line ended by LF, and with LF, CRLF or CR
    endings, blank lines inserted anywhere and the last ending maybe left
    out. Returns (plain bytes, rendered bytes, physical line in the rendered
    bytes of each plain line)."""
    lines = re.split(rb"\r\n|\r|\n", draw(mutated(names)))
    if lines[-1] == b"":
        lines.pop()
    ending = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    blanks = draw(st.lists(st.integers(0, 2), min_size=len(lines) + 1, max_size=len(lines) + 1))
    rendered = b"".join(ending * k + line + ending for k, line in zip(blanks, lines))
    if lines and draw(st.booleans()):
        rendered = rendered[:-len(ending)]
    else:
        rendered += ending * blanks[-1]
    physical = [k + 1 + sum(blanks[:k + 1]) for k in range(len(lines))]
    return b"".join(line + b"\n" for line in lines), rendered, physical


@pytest.mark.parametrize("reader", sorted(TABLE_READERS))
@SETTINGS
@given(data=st.data())
def test_line_endings_and_blank_lines_change_nothing(workdir, reader, data):
    plain, rendered, physical = data.draw(renderings(TABLE_READERS[reader]))
    path = workdir / f"dialect_{reader}"
    path.write_bytes(plain)
    expected = _outcome(READERS[reader], path)
    if expected[0] == "error":  # the rendered file's error names the same row, at its physical line
        expected = ("error", re.sub(rf"^{re.escape(str(path))}:(\d+):",
                                    lambda m: f"{path}:{physical[int(m[1]) - 1]}:", expected[1]))
    path.write_bytes(rendered)
    assert _outcome(READERS[reader], path) == expected


@pytest.mark.parametrize("reader", sorted(TABLE_READERS))
def test_one_comment_rule_for_every_table(workdir, reader):
    # `read_table` applies each format's key table: a key outside it is unknown
    # and a key given twice is repeated, even with the same value, each at its
    # line; `#note`, with no space, is a plain comment anywhere before the header
    lines = VALID[TABLE_READERS[reader][0]].decode().splitlines(keepends=True)
    k = sum(line.startswith("# ") for line in lines)  # the writers put every comment first
    path = workdir / f"keys_{reader}"

    def outcome(new_lines):
        path.write_text("".join(new_lines))
        return _outcome(READERS[reader], path)

    loaded = outcome(lines)
    assert loaded[0] == "ok"
    for at in range(k + 1):
        assert outcome([*lines[:at], "#note\n", *lines[at:]]) == loaded
    assert outcome([*lines[:k], "# note x\n", *lines[k:]]) == ("error", f"{path}:{k + 1}: unknown key 'note'")
    assert outcome(["# note x\n", "# note x\n", *lines]) == ("error", f"{path}:1: unknown key 'note'")
    for i in range(k):
        key = lines[i].split(" ")[1]
        assert outcome([*lines[:k], lines[i], *lines[k:]]) == ("error", f"{path}:{k + 1}: repeated key {key!r}")


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def mostly(good):
    """`good` about nine times in ten, any JSON value otherwise (a middle
    value of the integer picks JSON: hypothesis favours the bounds)."""
    return st.integers(0, 9).flatmap(lambda k: JSON if k == 5 else good)


PATHS = mostly(st.sampled_from(sorted(VALID) + ["junk.bin", "subdir", "missing.csv", "", ".", "/"]))
CITIES = st.sampled_from(["c", "London", "Nairobi", ""])
MODEL = mostly(st.fixed_dictionaries({
    "dim": mostly(st.sampled_from([2, 192]) | st.integers()),
    "support": mostly(st.sampled_from(SUPPORT_KINDS)),
}, optional={
    "files": mostly(st.dictionaries(CITIES, PATHS, max_size=3)),
    "encoder": mostly(st.just("pe_spherec_approx")),
}))
CITY = mostly(st.fixed_dictionaries({
    "tasks": mostly(st.dictionaries(st.sampled_from(TASKS) | st.text(max_size=4), PATHS, max_size=3)),
}))
MANIFEST = mostly(st.fixed_dictionaries({
    "cities": mostly(st.dictionaries(CITIES, CITY, min_size=1, max_size=3)),
    "models": mostly(st.dictionaries(st.sampled_from(["r", "t", "pe", "x"]), MODEL,
                                     min_size=1, max_size=3)),
}))


@SETTINGS
@given(doc=MANIFEST)
def test_manifest_loads_and_validates_or_raises_validation_error(workdir, doc):
    path = workdir / "fuzz_manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        manifest = load_manifest(path)
    except ValidationError as e:
        assert str(path) in str(e)
        return
    validate_manifest(manifest)


@SETTINGS
@given(doc=MANIFEST)
def test_validate_verb_exits_0_or_1(workdir, doc):
    path = workdir / "fuzz_manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["validate", str(path)]) in (0, 1)


@pytest.mark.parametrize("reader", sorted(set(READERS) - {"erf"}))
def test_non_utf8_text_names_file(workdir, reader):
    path = workdir / f"latin1_{reader}"
    path.write_bytes("key_or_lon,lat,caf\xe9\n".encode("latin-1"))
    with pytest.raises(ValidationError, match=f"latin1_{reader}: not UTF-8 text"):
        READERS[reader](path)


# One field past the csv module's 131072-character limit, in the first body
# row of each CSV format: the reader names the file and the line.
OVERLONG = {
    "task_csv": ("pop.csv", 5),
    "entity_csv": ("e.csv", 2),
    "cell_table": ("t.csv", 3),
    "result_store": ("results.csv", 2),
    "factors": ("factors.csv", 2),
}


@pytest.mark.parametrize("reader", sorted(OVERLONG))
def test_overlong_csv_field_names_file_and_line(workdir, reader):
    name, line = OVERLONG[reader]
    lines = VALID[name].split(b"\n")
    lines[line - 1] = b"9" * 200_001 + lines[line - 1]
    path = workdir / f"overlong_{reader}"
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValidationError) as e:
        READERS[reader](path)
    assert str(e.value).startswith(f"{path}:{line}: malformed CSV (field larger than field limit")


# (valid file, line, field index, column, the parser Python would read it with):
# each bad form below reads under that parser, and no reader accepts it.
STRICT = {
    "task_csv": ("pop.csv", 6, 1, "lon", float),
    "entity_csv": ("e.csv", 2, 2, "v_0", float),
    "cell_table": ("t.csv", 4, 0, "key_or_lon", parse_hex_cell_key),
    "result_store": ("results.csv", 2, 3, "seed", int),
    "factors": ("factors.csv", 3, 1, "area", float),
}
# a valid field's text -> (bad form, its first character no reader reads)
BAD_FORMS = [
    (lambda t: t[0] + "_" + t[1:] if t[1].isdigit() else "1_" + t, "_"),
    (lambda t: " " + t, " "),
    (lambda t: t + "\t", "\t"),
    (lambda t: t + "\x0b", "\x0b"),
    (lambda t: "\u0661" + t[1:], "\u0661"),  # ARABIC-INDIC DIGIT ONE
]


@pytest.mark.parametrize("form", range(len(BAD_FORMS)))
@pytest.mark.parametrize("reader", sorted(STRICT))
def test_numeric_field_is_printable_ascii_without_underscore(workdir, reader, form):
    name, line, field, column, loose = STRICT[reader]
    lines = VALID[name].decode().split("\n")
    fields = lines[line - 1].rstrip("\r").split(",")
    make, char = BAD_FORMS[form]
    fields[field] = bad = make(fields[field])
    loose(bad)  # Python's own parser reads it
    lines[line - 1] = ",".join(fields)
    path = workdir / f"strict_{reader}"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValidationError) as e:
        READERS[reader](path)
    assert str(e.value) == f"{path}:{line}: column {column!r}: {bad!r} holds {char!r}"
