"""``tools/compare_artifacts.py``'s comparison of two output directories."""
import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_artifacts.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_artifacts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare = load_tool().compare


def write(root: Path, name: str, text: str):
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_identical_trees_have_no_differences(tmp_path):
    for side in ("a", "b"):
        write(tmp_path / side, "smooth/pulse.csv", "t,u\n0,0.1\n1,0.2\n")
        write(tmp_path / side, "smooth/smoothing_run.json", '{"T": 13.6}\n')
    # wall times are not compared
    write(tmp_path / "a", "smooth/run_record.json", '{"wall_s": 1}\n')
    write(tmp_path / "b", "smooth/run_record.json", '{"wall_s": 2}\n')
    assert compare(tmp_path / "a", tmp_path / "b") == (2, 0, [])


def test_differences_name_values_rows_and_columns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "run.json", json.dumps({"T": 13.6, "extras": {"omega": 2.0, "times": [1.0, 2.0]},
                                     "converged": True}))
    write(b, "run.json", json.dumps({"T": 13.6, "extras": {"omega": 2.5, "times": [1.0, 2.25],
                                                           "dT_dR": 30.5}, "converged": True}))
    write(a, "spectrum.csv", "f,abs\n0,1\n0.1,0.5\n")
    write(b, "spectrum.csv", "f,abs\n0,1\n0.1,0.25\n0.2,0.1\n")
    write(a, "gone.csv", "t,u\n")
    write(b, "new.json", "{}")
    n, differing, lines = compare(a, b)
    assert (n, differing) == (4, 4)
    assert lines == [
        "gone.csv: only in the parent tree",
        "new.json: only in the change tree",
        'run.json: extras.dT_dR: "<missing>" -> 30.5',
        "run.json: extras.omega: 2.0 -> 2.5",
        "run.json: extras.times.1: 2.0 -> 2.25",
        "spectrum.csv: rows 2 -> 3; max |diff| f 0, abs 0.25",
    ]


def test_lists_of_other_lengths_and_other_headers(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "r.json", '{"times": [1, 2]}')
    write(b, "r.json", '{"times": [1, 2, 3]}')
    write(a, "p.csv", "t,u\n0,1\n")
    write(b, "p.csv", "t,v\n0,1\n")
    _, _, lines = compare(a, b)
    assert lines == ["p.csv: rows 1 -> 1; header 't,u' -> 't,v'",
                     "r.json: times: 2 entries -> 3 entries"]
