import json
import os
import subprocess
import sys
from pathlib import Path

import psgrowth
from psgrowth.cli import main

GROWTH_CFG = {
    "command": "growth",
    "space": {"backend": "free_group", "rank": 2},
    "set": {"kind": "safin", "n_big": 4},
    "mode": {"name": "practical", "concentration_threshold": "1/2", "displacement_floor": "1"},
    "n_max": 3,
    "seed": 7,
}


def child_pythonpath() -> str:
    """PYTHONPATH for a child interpreter: the directory this process
    imported psgrowth from, then any inherited PYTHONPATH, so the child
    imports the same psgrowth whether or not the package is installed."""
    import_root = str(Path(psgrowth.__file__).resolve().parent.parent)
    return os.pathsep.join(filter(None, [import_root, os.environ.get("PYTHONPATH")]))


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


def test_growth_command(tmp_path):
    cfg = write_cfg(tmp_path, GROWTH_CFG)
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["growth"]["sizes"] == {"1": 10, "2": 35, "3": 148}
    assert report["safin_counts"] == {"powers_block": 9, "with_extra_generator": 10}
    csv_text = (out / "sizes.csv").read_text().splitlines()
    assert csv_text[0] == "n,size,bound"
    assert csv_text[1].startswith("1,10,")


def test_reports_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, GROWTH_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "sizes.csv").read_bytes() == (out2 / "sizes.csv").read_bytes()


def test_random_set_seeded(tmp_path):
    cfg = dict(GROWTH_CFG, set={"kind": "random", "count": 12, "max_length": 5})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    p = write_cfg(tmp_path, cfg)
    assert main(["--config", str(p), "--out", str(out1), "--seed", "3"]) == 0
    assert main(["--config", str(p), "--out", str(out2), "--seed", "3"]) == 0
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r1 == r2
    out3 = tmp_path / "c"
    assert main(["--config", str(p), "--out", str(out3), "--seed", "4"]) == 0
    r3 = json.loads((out3 / "report.json").read_text())
    assert r3["growth"]["sizes"] != r1["growth"]["sizes"] or r3 != r1


def test_unknown_backend_exit_4(tmp_path):
    cfg = dict(GROWTH_CFG, space={"backend": "poincare_disk"})
    p = write_cfg(tmp_path, cfg)
    assert main(["--config", str(p), "--out", str(tmp_path / "o")]) == 4


def test_unknown_key_rejected(tmp_path):
    cfg = dict(GROWTH_CFG, typo_key=1)
    p = write_cfg(tmp_path, cfg)
    assert main(["--config", str(p), "--out", str(tmp_path / "o")]) == 4


def test_missing_config_exit_4(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 4


def test_budget_exit_3(tmp_path):
    cfg = dict(
        GROWTH_CFG,
        set={"kind": "explicit", "elements": ["a", "b", "A", "B"]},
        n_max=9,
    )
    p = write_cfg(tmp_path, cfg)
    assert main(["--config", str(p), "--out", str(tmp_path / "o"), "--budget", "50"]) == 3


def test_energy_command(tmp_path):
    cfg = {
        "command": "energy",
        "space": {"backend": "free_product", "orders": [5, 7]},
        "set": {"kind": "explicit", "elements": ["a", "aa", "ab"]},
        "mode": {"name": "practical", "concentration_threshold": "0", "displacement_floor": "0"},
    }
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["profile"]["case"] == "concentrated"


def test_reduce_command(tmp_path):
    cfg = {
        "command": "reduce",
        "space": {"backend": "free_group", "rank": 2},
        "set": {"kind": "random", "count": 80, "max_length": 8},
        "mode": {"name": "practical", "concentration_threshold": "1", "displacement_floor": "1"},
        "reduce": {"r": "1"},
        "seed": 11,
    }
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["reduction"]["certified"]
    assert "median_split" in rep


def test_pingpong_command(tmp_path):
    cfg = {
        "command": "pingpong",
        "space": {"backend": "free_group", "rank": 2},
        "pingpong": {"root": "ab", "t": "b", "powers": [10, 20, 30], "n": 3, "a_value": "2"},
    }
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["pingpong"]["certified"]
    assert rep["pingpong"]["counts"]["3"] == 27


def test_period_command(tmp_path):
    cfg = {
        "command": "period",
        "space": {"backend": "free_group", "rank": 2},
        "set": {
            "kind": "explicit",
            "elements": ["ababababababababababababababa"],  # (ab)^14 a
        },
        "period": {"root": "ab"},
    }
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["period"][0].get("slack") == "5"


def test_treeapprox_command(tmp_path):
    cfg = {
        "command": "treeapprox",
        "space": {
            "backend": "graph",
            "graph": {
                "vertices": 6,
                "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]],
            },
        },
        "treeapprox": {"base": 0, "targets": [2, 4]},
    }
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["treeapprox"]["distortion"]["ok"]
    assert rep["treeapprox"]["tree"]["parent"].count(-1) == 1


def test_installed_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, GROWTH_CFG)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "psgrowth.cli", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=child_pythonpath()),
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.json").exists()


def test_cross_process_determinism(tmp_path):
    # separate interpreter runs get different hash seeds; reports must not
    # depend on set iteration order anywhere
    cfg = dict(GROWTH_CFG, set={"kind": "random", "count": 40, "max_length": 7})
    p = write_cfg(tmp_path, cfg)
    pythonpath = child_pythonpath()
    blobs = []
    for i, seed in enumerate(("1", "77")):
        out = tmp_path / f"run{i}"
        proc = subprocess.run(
            [sys.executable, "-m", "psgrowth.cli", "--config", str(p), "--out", str(out)],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "report.json").read_bytes())
    assert blobs[0] == blobs[1]
