import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import psgrowth
from psgrowth.cli import CONFIG_SCHEMA, ConfigError, main, run_config
from psgrowth.spaces import NO_HYPERBOLIC_ELEMENT
from psgrowth.words import GroupElement

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


def test_config_schema_is_a_valid_schema():
    # main builds its validator once at import and never re-checks the schema
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


def test_schema_error_message_matches_jsonschema_validate(tmp_path, capsys):
    cfg = dict(GROWTH_CFG, typo_key=1)
    with pytest.raises(jsonschema.ValidationError) as exc:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    p = write_cfg(tmp_path, cfg)
    assert main(["--config", str(p), "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == f"config error: {exc.value.message}\n"


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


PINGPONG_CFG = {
    "command": "pingpong",
    "space": {"backend": "free_group", "rank": 2},
    "pingpong": {"root": "ab", "t": "b", "powers": [10, 20, 30], "n": 3, "a_value": "2"},
}


def test_pingpong_command(tmp_path):
    p = write_cfg(tmp_path, PINGPONG_CFG)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["pingpong"]["certified"]
    assert rep["pingpong"]["counts"]["3"] == 27


def test_pingpong_budget_exit_3(tmp_path):
    # V and t take 2*3 + 1 = 7 letters, within a budget of 8, but
    # |(Vt)^2| = 9 distinct products outgrow it
    section = dict(PINGPONG_CFG["pingpong"], powers=[1, 2, 3], a_value="1/10")
    p = write_cfg(tmp_path, dict(PINGPONG_CFG, pingpong=section))
    assert main(["--config", str(p), "--out", str(tmp_path / "o"), "--budget", "8"]) == 3


@pytest.mark.parametrize("over", [1, 0])
def test_pingpong_size_is_capped_by_the_budget(tmp_path, over):
    # (ab)^30 and t = b take 2*30 + 1 = 61 letters, built before any
    # enumeration budget applies
    p = write_cfg(tmp_path, PINGPONG_CFG)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out), "--budget", str(61 - over)]) == (
        3 if over else 0
    )
    assert (out / "report.json").exists() == (not over)


@pytest.mark.parametrize("power", [10**9, -(10**9)])
def test_pingpong_power_of_a_billion_exits_3_unbuilt(tmp_path, monkeypatch, power):
    # (ab)^(±10^9) would take 2*10^9 letters against the default budget of 10^7
    def no_powers(self, k):
        raise AssertionError(f"built a power {k}")

    monkeypatch.setattr(GroupElement, "__pow__", no_powers)
    cfg = json.loads((CONFIGS / "pingpong_f2.json").read_text())
    cfg["pingpong"]["powers"] = [power]
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == 3
    assert not out.exists()


C9 = {
    "backend": "graph",
    "graph": {
        "vertices": 9,
        "edges": [[i, (i + 1) % 9] for i in range(9)],
        "generators": [[(i + 1) % 9 for i in range(9)], [(-i) % 9 for i in range(9)]],
    },
}


# 60^4 vertex quadruples are above the default budget's n^4 cap
C60 = {
    "backend": "graph",
    "graph": {
        "vertices": 60,
        "edges": [[i, (i + 1) % 60] for i in range(60)],
        "generators": [[(i + 1) % 60 for i in range(60)]],
    },
}


@pytest.mark.parametrize(
    "command, section",
    [
        ("pingpong", {"pingpong": {"root": "a", "t": "aab", "powers": [1, 2], "n": 2}}),
        ("period", {"set": {"elements": ["a", "aa"]}, "period": {"root": "a"}}),
        ("period", {"set": {"elements": ["a", "aa"]}}),
        ("reduce", {"set": {"elements": ["a", "aa"]}}),
        ("pingpong", {"space": C60, "pingpong": {"root": "a", "t": "aa"}}),
        ("period", {"space": C60, "set": {"elements": ["a"]}}),
        ("reduce", {"space": C60, "set": {"elements": ["a"]}}),
    ],
    ids=["pingpong", "period_root", "biperiodic", "reduce", "pingpong_above_the_size_cap",
         "period_above_the_size_cap", "reduce_above_the_size_cap"],
)
def test_graph_has_no_hyperbolic_element(tmp_path, capsys, command, section):
    # the rotation of C_9 moves every vertex but has order 9, so no command
    # that certifies product-set growth has an element to work with; the
    # refusal holds for a graph of any size, so it comes before the size cap
    cfg = {"command": command, "space": C9} | section
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "a finite graph has no hyperbolic element" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_graph_growth_is_not_applicable(tmp_path):
    # <U> acts on C_9 through a finite group: the counts are reported, but no
    # bound is claimed and no case split or pipeline runs
    cfg = {"command": "growth", "space": C9, "set": {"elements": ["a", "b"]}, "n_max": 3}
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["growth"]["not_applicable"] == NO_HYPERBOLIC_ELEMENT
    assert rep["growth"]["violations"] == []
    # counted in the free group on the two generators: positive words
    assert rep["growth"]["sizes"] == {"1": 2, "2": 4, "3": 8}
    assert "profile" not in rep and "pipeline" not in rep
    assert rep["certificates"] == []


PATH_GRAPH = {
    "backend": "graph",
    "graph": {"vertices": 3, "edges": [[0, 1], [1, 2]], "generators": [[2, 1, 0]]},
}


@pytest.mark.parametrize(
    "cfg",
    [
        dict(GROWTH_CFG, space={"backend": "free_group", "rank": 2, "kappa0": "0"}),
        dict(
            GROWTH_CFG,
            space=dict(PATH_GRAPH, kappa0="0"),
            set={"kind": "explicit", "elements": ["a"]},
        ),
        dict(GROWTH_CFG, space={"backend": "free_group", "rank": 2, "rho0": "1/0"}),
        dict(
            GROWTH_CFG,
            space={"backend": "graph", "graph": {"vertices": 3, "edges": [0, 1]}},
        ),
        dict(
            GROWTH_CFG,
            space={
                "backend": "graph",
                "graph": {"vertices": 3, "edges": [[0, 1], [1, 2]], "generators": [2]},
            },
        ),
        dict(PINGPONG_CFG, pingpong=dict(PINGPONG_CFG["pingpong"], powers=[])),
        # 26 generators and words up to 200 letters: more words than a float holds
        dict(
            GROWTH_CFG,
            space={"backend": "free_group", "rank": 26},
            set={"kind": "random", "max_length": 200},
        ),
    ],
    ids=[
        "kappa0_zero_free_group",
        "kappa0_zero_path_graph",
        "rational_zero_denominator",
        "edges_not_pairs",
        "generator_not_array",
        "pingpong_no_powers",
        "random_set_overflows_float",
    ],
)
def test_bad_config_exit_4(tmp_path, cfg, capsys):
    # each one passed the schema and then crashed (or, for the empty powers,
    # exited 4 with an internal message), instead of a plain config error
    p = write_cfg(tmp_path, cfg)
    assert main(["--config", str(p), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "min() arg" not in err


F2_SPACE = {"backend": "free_group", "rank": 2}
Z5Z7_SPACE = {"backend": "free_product", "orders": [5, 7]}
PRACTICAL = {"name": "practical", "concentration_threshold": "1", "displacement_floor": "1"}
LIBRARY_CALLS = ("growth_report", "minimize_energy", "reduce_tree", "is_periodic",
                 "is_biperiodic", "pingpong_certify")
SAFIN = {"kind": "safin", "n_big": 2}


def graph_space(n, edges, generators=()):
    return {"backend": "graph",
            "graph": {"vertices": n, "edges": edges, "generators": list(generators)}}


@pytest.mark.parametrize(
    "cfg, key",
    [
        # an empty explicit set: growth called it the identity alone, period
        # refused it as too small, energy and reduce named no key
        ({"command": "growth", "set": {"elements": []}}, "set.elements"),
        ({"command": "energy", "set": {"elements": []}}, "set.elements"),
        ({"command": "reduce", "set": {"elements": []}, "mode": PRACTICAL}, "set.elements"),
        ({"command": "period", "set": {"elements": []}}, "set.elements"),
        ({"command": "growth", "set": {"elements": ["ab", "a!"]}}, "set.elements[1]"),
        ({"command": "energy", "set": {"elements": ["c"]}}, "set.elements[0]"),
        ({"command": "period", "set": {"elements": ["ab"]}, "period": {"root": "abz"}},
         "period.root"),
        ({"command": "period", "set": {"elements": ["ab"]}, "period": {"root": "aBbA"}},
         "period.root"),
        ({"command": "pingpong", "pingpong": {"root": "1", "t": "b"}}, "pingpong.root"),
        ({"command": "pingpong", "pingpong": {"root": "a-b", "t": "b"}}, "pingpong.root"),
        ({"command": "pingpong", "pingpong": {"root": "ab", "t": "bc"}}, "pingpong.t"),
        # a fixes a vertex of the Bass-Serre tree: it has no axis
        ({"command": "period", "space": Z5Z7_SPACE, "set": {"elements": ["ab"]},
          "period": {"root": "a"}}, "period.root"),
        ({"command": "pingpong", "space": Z5Z7_SPACE, "pingpong": {"root": "a", "t": "b"}},
         "pingpong.root"),
        ({"command": "reduce", "set": {"elements": ["ab"]}, "mode": PRACTICAL,
          "reduce": {"r": "1/2"}}, "reduce.r"),
        ({"command": "reduce", "set": {"elements": ["ab"]}, "mode": PRACTICAL,
          "reduce": {"r": "0"}}, "reduce.r"),
        ({"command": "reduce", "set": {"elements": ["ab"]}, "mode": PRACTICAL,
          "reduce": {"r": "-2"}}, "reduce.r"),
        # rho0 1/2: r = 3/4 is not a whole number of edges
        ({"command": "reduce", "space": dict(F2_SPACE, rho0="1/2"), "mode": PRACTICAL,
          "set": {"elements": ["ab"]}, "reduce": {"r": "3/4"}}, "reduce.r"),
        # paper mode: kappa0 defaults to rho0 = 1, so r = 1 is above kappa0 / 4
        ({"command": "reduce", "set": {"elements": ["ab"]}, "reduce": {"r": "1"}},
         "reduce.r"),
        ({"command": "reduce", "space": dict(F2_SPACE, kappa0="3"),
          "set": {"elements": ["ab"]}, "reduce": {"r": "1"}}, "reduce.r"),
        # paper mode with no reduce.r: the default r = rho0 = 1 is above
        # kappa0 / 4 = 1/4
        ({"command": "reduce", "set": {"kind": "random", "count": 80, "max_length": 8},
          "seed": 11}, "reduce.r"),
        # values a backend constructor rejects
        ({"command": "growth", "space": dict(F2_SPACE, rho0="-1"), "set": {"elements": ["a"]}},
         "space"),
        ({"command": "energy", "space": graph_space(3, [[0, 1]]), "set": {"elements": ["a"]}},
         "space"),
        ({"command": "energy", "space": graph_space(3, [[0, 5]]), "set": {"elements": ["a"]}},
         "space"),
        ({"command": "energy", "space": graph_space(3, [[0, 1], [1, 2]], [[0, 0, 1]]),
          "set": {"elements": ["a"]}}, "space"),
        ({"command": "energy", "space": graph_space(3, [[0, 1], [1, 2]], [[1, 0, 2]]),
          "set": {"elements": ["a"]}}, "space"),
        # a Safin family needs two generators, the first of infinite order:
        # on Z/5 * Z/7 every U_N has 6 elements, so an exponent fit is noise
        ({"command": "growth", "space": dict(F2_SPACE, rank=1), "set": SAFIN}, "set.kind"),
        ({"command": "growth", "space": Z5Z7_SPACE, "set": SAFIN}, "set.kind"),
        ({"command": "growth", "space": {"backend": "free_product", "orders": [2, 3]},
          "set": SAFIN}, "set.kind"),
    ],
    ids=["set_empty_growth", "set_empty_energy", "set_empty_reduce", "set_empty_period",
         "set_bad_character", "set_letter_outside_rank", "period_root_bad_letter",
         "period_root_identity", "pingpong_root_identity", "pingpong_root_bad_character",
         "pingpong_t_outside_rank", "period_root_elliptic", "pingpong_root_elliptic",
         "reduce_r_half_edge", "reduce_r_zero",
         "reduce_r_negative", "reduce_r_not_a_multiple_of_rho0", "reduce_r_paper_default_kappa0",
         "reduce_r_paper_above_kappa0_quarter", "reduce_r_paper_default_rho0",
         "space_rho0_negative", "space_graph_disconnected", "space_edge_not_a_vertex",
         "space_generator_not_a_permutation", "space_generator_not_an_automorphism",
         "set_safin_rank_1", "set_safin_finite_first_factor_z5z7",
         "set_safin_finite_first_factor_z2z3"],
)
def test_config_values_the_library_rejects_are_config_errors(tmp_path, monkeypatch, capsys,
                                                           cfg, key):
    # each one reached a library ValueError (or, for a paper-mode radius, ran
    # outside the paper's r <= kappa0 / 4); now the config is refused, naming
    # its key, before the library is called
    for name in LIBRARY_CALLS:
        monkeypatch.setattr(psgrowth.cli, name,
                            lambda *args, **kw: pytest.fail("the library was called"))
    cfg = {"space": F2_SPACE} | cfg
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
        run_config(cfg, tmp_path / "direct")
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == 4
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert not out.exists()


def test_an_internal_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    # a ValueError that no config value caused is a fault in the code: it
    # leaves main as a traceback, not as exit 4
    def broken(*args, **kw):
        raise ValueError("internal fault")

    monkeypatch.setattr(psgrowth.cli, "growth_report", broken)
    p = write_cfg(tmp_path, GROWTH_CFG)
    with pytest.raises(ValueError, match="internal fault"):
        main(["--config", str(p), "--out", str(tmp_path / "out")])


def test_safin_set_with_an_infinite_first_factor_runs(tmp_path):
    cfg = {"command": "growth", "space": {"backend": "free_product", "orders": [None, 7]},
           "set": SAFIN, "mode": PRACTICAL}
    out = tmp_path / "out"
    assert run_config(cfg, out) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["growth"]["sizes"]["1"] == 6
    assert rep["family_counts"]["2"] < rep["family_counts"]["4"] < rep["family_counts"]["8"]


@pytest.mark.parametrize(
    "space, mode",
    [(dict(F2_SPACE, kappa0="4"), {"name": "paper"}), (dict(F2_SPACE, rho0="1/2"), PRACTICAL)],
    ids=["paper_r_at_kappa0_quarter", "practical_r_two_edges"],
)
def test_reduce_radius_at_the_limits_runs(tmp_path, space, mode):
    cfg = {"command": "reduce", "space": space, "mode": mode,
           "set": {"kind": "explicit", "elements": ["ab", "ba", "abab", "AB"]},
           "reduce": {"r": "1"}}
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["reduction"]["tolerance"] == "1"


def test_reduce_radius_defaults_to_rho0(tmp_path):
    # paper mode: the default r = rho0 = 1 is refused at kappa0 = 1 with the
    # default named, and runs at kappa0 = 4
    cfg = {"command": "reduce", "space": F2_SPACE,
           "set": {"kind": "explicit", "elements": ["ab", "ba", "abab", "AB"]}}
    with pytest.raises(ConfigError, match=r"\(the default r is rho0 = 1\)$"):
        run_config(cfg, tmp_path / "refused")
    cfg["space"] = dict(F2_SPACE, kappa0="4")
    out = tmp_path / "out"
    assert run_config(cfg, out) == 0
    assert json.loads((out / "report.json").read_text())["reduction"]["tolerance"] == "1"


def test_import_does_not_load_numpy():
    # numpy is imported where a graph is built, tree-approximated or an
    # exponent fitted, not by the package or the CLI module
    code = "import sys, psgrowth, psgrowth.cli; print('numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=child_pythonpath()),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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


@pytest.mark.parametrize("elements", [["a", "aa"], ["ab", "aab"]], ids="-".join)
def test_biperiodic_elliptic_quotient_is_refused(tmp_path, elements):
    # v1 v2^-1 = a^-1 fixes a vertex: a valid config whose set is not
    # bi-periodic gets a refusal in its report, not a config error
    cfg = {"command": "period", "space": Z5Z7_SPACE, "set": {"elements": elements}}
    out = tmp_path / "out"
    assert main(["--config", str(write_cfg(tmp_path, cfg)), "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["biperiodic"]["refused"] == "QuotientNotHyperbolic"


C6 = {"backend": "graph", "graph": {"vertices": 6, "edges": [[i, (i + 1) % 6] for i in range(6)]}}
HUGE = "1" + "0" * 400


@pytest.mark.parametrize(
    "cfg, code",
    [
        ({"command": "growth", "space": {"backend": "free_group", "rank": 2, "kappa0": HUGE[:201]},
          "set": {"elements": ["a", "b"]}}, 0),
        ({"command": "growth", "space": {"backend": "free_group", "rank": 2, "rho0": HUGE,
          "kappa0": "1"}, "set": {"elements": ["a", "b"]}}, 2),
        ({"command": "treeapprox", "space": C6 | {"rho0": HUGE},
          "treeapprox": {"base": 0, "targets": [2, 4]}}, 0),
    ],
    ids=["kappa0_1e200", "rho0_1e400", "treeapprox_rho0_1e400"],
)
def test_float_displays_out_of_float_range(tmp_path, capsys, cfg, code):
    # alpha = rho0^2 / (10^15 kappa0^2) underflows or overflows a float, and
    # so does 2 delta on C_6 scaled by rho0: each display is still formed,
    # and the report is strict JSON (no Infinity or NaN); rho0 = 10^400
    # makes every bound exceed |U^n|, a violation (exit 2)
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "config error" not in err and "Traceback" not in err

    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    rep = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    if cfg["command"] == "growth":
        assert isinstance(rep["growth"]["entropy_lower_bound"], float)
    else:
        assert rep["treeapprox"]["distortion"]["bound_2delta_log2n_plus_1"] is None


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


@pytest.mark.parametrize(
    "space, section, named",
    [
        (C9, {"base": 9}, "vertex 9 "),
        (C9, {"base": 0, "targets": [2, 12]}, "vertex 12 "),
        (C9, {"targets": [-1, 3]}, "vertex -1 "),
        ({"backend": "graph", "graph": {"vertices": 1, "edges": []}}, {}, "base 0"),
        ({"backend": "graph", "graph": {"vertices": 1, "edges": []}}, {"targets": []}, "base 0"),
    ],
    ids=["base_not_a_vertex", "target_not_a_vertex", "negative_target", "one_vertex",
         "one_vertex_empty_targets"],
)
def test_treeapprox_bad_vertices_exit_4(tmp_path, capsys, monkeypatch, space, section, named):
    # each one used to reach a library ValueError; now the config is refused,
    # naming the id, before tree approximation is called
    monkeypatch.setattr(psgrowth.cli, "approximate_tree",
                        lambda *args: pytest.fail("tree approximation was called"))
    cfg = {"command": "treeapprox", "space": space, "treeapprox": section}
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["--config", str(p), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error: treeapprox")
    assert named in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("budget, code", [(14640, 3), (14641, 0)])
def test_graph_size_is_capped_by_the_budget(tmp_path, budget, code):
    # the four-point delta of an n-vertex graph scans all n^4 quadruples, so
    # the run's budget caps n^4 (its time) before the graph is built
    n = 11
    cfg = {
        "command": "treeapprox",
        "space": {
            "backend": "graph",
            "graph": {"vertices": n, "edges": [[i, (i + 1) % n] for i in range(n)]},
        },
    }
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    assert n**4 == 14641
    assert main(["--config", str(p), "--out", str(out), "--budget", str(budget)]) == code
    assert (out / "report.json").exists() == (code == 0)


@pytest.mark.parametrize(
    "section, size",
    [
        ({"kind": "random", "count": 4, "max_length": 3}, 12),
        ({"kind": "safin", "n_big": 4}, 10),
    ],
)
@pytest.mark.parametrize("over", [1, 0])
def test_set_size_is_capped_by_the_budget(tmp_path, section, size, over):
    # count x max_length letters of a random set, 2 n_big + 2 elements of a
    # Safin set: both are built before any enumeration budget applies
    cfg = {
        "command": "energy",
        "space": {"backend": "free_group", "rank": 2},
        "set": section,
        "mode": {"name": "practical"},
    }
    p = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code = main(["--config", str(p), "--out", str(out), "--budget", str(size - over)])
    assert code == (3 if over else 0)
    assert (out / "report.json").exists() == (not over)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# sha256 of report.json and of sizes.csv (None where the command writes no
# table) for every config but verify_all, whose criteria test_acceptance runs
GOLDEN = {
    "energy_free_product": (
        "83f37677fa061dc4ed2a72449759b9d5a45e9bf25e8ca43601cc388da68d46e1", None,
    ),
    "growth_random_paper": (
        "13fd24db815bb97c082bb8e0b5b100475875feeff5fe2c450a770911fad4941c",
        "f07f420914b0db0f20785947dfbe322a7b94747f26739721ade67ecfd7577eb1",
    ),
    "growth_safin": (
        "dd70d84deceddeb9d579cbbf1099195f3f917a76dcb4787267aee3ceedda804e",
        "8d560c67f222aad9f8d0c8b800189580f4891bb7f6fbd20d0f0f8f0e7242b019",
    ),
    "pingpong_f2": (
        "94c26942fca20a57dd0dce9558ea503884b054edf53c13173cb3296a2d955a9a", None,
    ),
    "reduce_random": (
        "8a5d6e72634db231c9af8623036d6e81c758de35959f553644c198cbaa67a7e7", None,
    ),
    "treeapprox_cycle": (
        "a53c0f4194bcbf09843e3de042c4d505ea9c402c2bceef5ab3335a3353abd2f7", None,
    ),
}


def _sha256(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_config_reports_are_byte_identical_to_golden(tmp_path, name):
    out = tmp_path / "out"
    assert main(["--config", str(CONFIGS / f"{name}.json"), "--out", str(out)]) == 0
    assert (_sha256(out / "report.json"), _sha256(out / "sizes.csv")) == GOLDEN[name]


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


def test_a_level_over_the_default_budget_exits_3_in_bounded_memory(tmp_path):
    # 40 random F_2 words of up to 7 letters, n_max 5, no budget key: |U^5|
    # passes the default budget of 10^7 elements, which the counts find out
    # with no level stored, far inside 2 GB of address space
    import resource

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, 2 * 1024**3))

    cfg = {
        "command": "growth",
        "space": {"backend": "free_group", "rank": 2},
        "set": {"kind": "random", "count": 40, "max_length": 7},
        "mode": {"name": "paper"},
        "n_max": 5,
        "seed": 3,
    }
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "psgrowth.cli", "--config", str(write_cfg(tmp_path, cfg)),
         "--out", str(out)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=child_pythonpath()),
        preexec_fn=limit_memory,
        timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    growth = json.loads((out / "report.json").read_text())["growth"]
    assert sorted(growth["sizes"]) == ["1", "2", "3", "4"]
    assert growth["truncated"] is True


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
