"""Self-tests of tools/parity.py: a tree compared with itself is identical, in bytes and in law."""

import importlib.util
import pathlib
import warnings

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_parity():
    spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parity_of_a_tree_with_itself_is_identical(tmp_path):
    parity = _load_parity()
    runs = [("sk-run-small", "sk-run", {"n_grid": [8], "t_grid": [0.5, 1.0],
                                        "replicas": 40})]
    lines = parity.parity(ROOT, runs, tmp_path)
    # parity and threads lines for results.json and the two sk-run tables
    assert len(lines) == 6
    assert all(line.endswith(" identical") for line in lines), lines
    assert parity.diff([["a", "1.0"]], [["a", "1.5"]]) == (
        "1 of 1 rows differ, largest relative difference 0.333")


def test_law_of_a_tree_with_itself_has_no_differing_cells(tmp_path):
    parity = _load_parity()
    runs = [(f"sk-run-small-s{seed}", "sk-run", {"n_grid": [8], "t_grid": [0.5, 1.0],
                                                 "replicas": 40, "seed": seed})
            for seed in range(2)]
    lines = parity.law(ROOT, runs, tmp_path)
    assert len(lines) == 1 and lines[0].endswith(" no differing cells"), lines
    names = [name for name, _, _ in parity.law_runs(2)]
    for grid in ("ageing-2x2", "sk-run-3t"):
        assert [f"{grid}-s0", f"{grid}-s1"] == [n for n in names if n.startswith(grid)]


def _write_runs(root, tables):
    for run, text in tables.items():
        (root / run).mkdir(parents=True)
        (root / run / "t.csv").write_text(text)


def test_law_report_gives_fixed_cells_a_relative_difference(tmp_path):
    # column x moves with the seed in both trees; y is exact, equal across
    # seeds within a tree but not between them, so it has no z
    parity = _load_parity()
    old, new = tmp_path / "old", tmp_path / "new"
    _write_runs(old, {"grid-s0": "x,y\n1.0,0.5\n", "grid-s1": "x,y\n2.0,0.5\n",
                      "grid-s2": "x,y\n1.5,0.5\n"})
    _write_runs(new, {"grid-s0": "x,y\n1.1,0.4\n", "grid-s1": "x,y\n1.9,0.4\n",
                      "grid-s2": "x,y\n1.7,0.4\n"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lines = parity.law_report(old, new)
    assert len(lines) == 3, lines
    x, y, every = lines
    assert x.startswith("grid/t.csv/x ") and "paired z" in x and "fixed" not in x
    assert y.startswith("grid/t.csv/y ") and "z " not in y
    assert y.endswith("1 cells; 1 fixed, largest relative difference 0.2")
    assert every.endswith("2 cells; z -0.18 sd 0.00 max|z| 0.18; paired z -0.76 sd 0.00 "
                          "max|z| 0.76; 1 fixed, largest relative difference 0.2")
    assert not any(word in line for line in lines for word in ("inf", "nan"))


def test_law_report_takes_a_cell_that_is_0_in_both_trees_at_one_seed(tmp_path):
    parity = _load_parity()
    old, new = tmp_path / "old", tmp_path / "new"
    _write_runs(old, {"grid-s0": "x\n0.0\n", "grid-s1": "x\n2.0\n", "grid-s2": "x\n1.0\n"})
    _write_runs(new, {"grid-s0": "x\n0.0\n", "grid-s1": "x\n1.5\n", "grid-s2": "x\n1.2\n"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, every = parity.law_report(old, new)
    assert x.startswith("grid/t.csv/x ") and "paired z" in x
    assert not any(word in line for line in (x, every) for word in ("inf", "nan"))
