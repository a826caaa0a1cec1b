"""Self-test of tools/parity.py: a tree compared with itself is identical."""

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
