"""Self-tests of tools/parity.py: a tree compared with itself is identical, in bytes and in law."""

import importlib.util
import pathlib

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
