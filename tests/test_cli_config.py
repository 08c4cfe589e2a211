"""How the CLI checks a config: its schema walker against jsonschema as an
oracle, integers that JSON writes as floats, the command-line overrides, and
a crash search that runs schema-valid configs through the CLI in child
processes."""

import copy
import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from psgrowth.cli import CONFIG_SCHEMA, _config_error, main

from conftest import child_pythonpath

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
COMMITTED = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}

# the draft jsonschema picks for CONFIG_SCHEMA, with `integer` narrowed to
# JSON integers as the CLI reads them: an int that is not a bool
_DRAFT = jsonschema.validators.validator_for(CONFIG_SCHEMA)
ORACLE = jsonschema.validators.extend(
    _DRAFT,
    type_checker=_DRAFT.TYPE_CHECKER.redefine(
        "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)
    ),
)(CONFIG_SCHEMA)

WALKER_KEYWORDS = {
    "type", "properties", "additionalProperties", "required", "items", "enum",
    "minimum", "maximum", "minItems", "maxItems", "pattern",
}


def test_oracle_is_the_draft_jsonschema_picks():
    assert _DRAFT is jsonschema.Draft202012Validator


def _subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


def test_config_schema_uses_only_the_walkers_keywords():
    # the walker skips a keyword it does not know, so a new one in the
    # schema would go unchecked
    for schema in _subschemas(CONFIG_SCHEMA):
        assert set(schema) <= WALKER_KEYWORDS, set(schema) - WALKER_KEYWORDS
        assert schema.get("additionalProperties", False) is False


def from_schema(schema):
    """Small values that CONFIG_SCHEMA's subschema `schema` accepts."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
    return st.one_of([_of_type(t, schema) for t in types])


def _of_type(name, schema):
    if name == "null":
        return st.none()
    if name == "integer":
        return st.integers(schema.get("minimum"), schema.get("maximum"))
    if name == "string":
        if "pattern" in schema:
            return st.from_regex(schema["pattern"])
        return st.text(max_size=4)
    if name == "array":
        return st.lists(from_schema(schema["items"]), min_size=schema.get("minItems", 0),
                        max_size=schema.get("maxItems", 3))
    props, required = schema["properties"], schema.get("required", [])
    return st.fixed_dictionaries(
        {k: from_schema(props[k]) for k in required},
        optional={k: from_schema(v) for k, v in props.items() if k not in required},
    )


JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 30), st.floats(), st.sampled_from([2.0, 1e7]),
    st.text(max_size=3), st.sampled_from(["1/0", "-0", "1/2", "free_group", "growth"]),
    st.lists(st.integers(-1, 3), max_size=3), st.just({}),
)
_NAMES = sorted({k for s in _subschemas(CONFIG_SCHEMA) for k in s.get("properties", {})})


def _locations(value, path=()):
    yield path
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _locations(child, path + (key,))


def _near(value):
    """Values next to `value`: a list cut short or one item longer, an
    integer one step off, 30 up or written as a float, a string one letter
    off."""
    if isinstance(value, list):
        return st.sampled_from([value[:0], value[:1], value + value[:1]])
    if isinstance(value, int) and not isinstance(value, bool):
        return st.sampled_from([value - 1, value + 1, value + 30, -value, float(value)])
    if isinstance(value, str):
        return st.sampled_from([value + "x", value[:-1]])
    return JUNK


def mutate(data, cfg):
    """`cfg` with one change at a drawn location: its value replaced by junk
    or by a value next to it, the key or item deleted, or keys added to an
    object there."""
    cfg = copy.deepcopy(cfg)
    path = data.draw(st.sampled_from(list(_locations(cfg))))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    here = parent[path[-1]] if path else cfg
    ops = ["replace"] + (["delete"] if path else []) + (["add"] if isinstance(here, dict) else [])
    op = data.draw(st.sampled_from(ops))
    if op == "add":
        for _ in range(data.draw(st.integers(1, 2))):
            here[data.draw(st.sampled_from(_NAMES + ["typo_key"]))] = data.draw(JUNK)
    elif op == "delete":
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = data.draw(_near(here) if data.draw(st.booleans()) else JUNK)
    else:
        cfg = data.draw(JUNK)
    return cfg


def _assert_walker_agrees(cfg):
    expected = jsonschema.exceptions.best_match(ORACLE.iter_errors(cfg))
    assert _config_error(cfg) == (None if expected is None else expected.message)
    assert (_config_error(cfg) is None) == ORACLE.is_valid(cfg)


@settings(derandomize=True, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_walker_agrees_with_jsonschema(data):
    cfg = data.draw(st.sampled_from(list(COMMITTED.values())) | from_schema(CONFIG_SCHEMA))
    _assert_walker_agrees(cfg)
    assert _config_error(cfg) is None
    # one mutation, then more on top of it: errors at several paths test
    # which one the walker reports
    for _ in range(data.draw(st.integers(1, 4))):
        cfg = mutate(data, cfg)
        _assert_walker_agrees(cfg)


GROWTH_CFG = {
    "command": "growth",
    "space": {"backend": "free_group", "rank": 2},
    "set": {"kind": "safin", "n_big": 4},
    "n_max": 3,
}


def _with(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    *head, last = path
    target = cfg
    for key in head:
        target = target[key]
    target[last] = value
    return cfg


# JSON Schema's `integer` takes 2.0; the engine does not (a TypeError in
# some, a run in others), so the CLI takes only JSON integers
FLOAT_INTEGERS = {
    "rank": (_with(GROWTH_CFG, ["space", "rank"], 2.0), "2.0 is not of type 'integer'"),
    "n_big": (_with(GROWTH_CFG, ["set", "n_big"], 4.0), "4.0 is not of type 'integer'"),
    "n_max": (_with(GROWTH_CFG, ["n_max"], 3.0), "3.0 is not of type 'integer'"),
    "orders": (
        _with(COMMITTED["energy_free_product"], ["space", "orders"], [5.0, 7]),
        "5.0 is not of type 'integer', 'null'",
    ),
    "powers": (
        _with(COMMITTED["pingpong_f2"], ["pingpong", "powers"], [1.0, 2]),
        "1.0 is not of type 'integer'",
    ),
    "count": (
        _with(GROWTH_CFG, ["set"], {"kind": "random", "count": 5.0, "max_length": 3}),
        "5.0 is not of type 'integer'",
    ),
    "budget": (_with(GROWTH_CFG, ["budget"], 1e7), "10000000.0 is not of type 'integer'"),
}


def _write(directory, cfg):
    path = Path(directory) / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("name", sorted(FLOAT_INTEGERS))
def test_an_integer_written_as_a_float_is_a_config_error(tmp_path, capsys, name):
    cfg, message = FLOAT_INTEGERS[name]
    assert main(["--config", _write(tmp_path, cfg), "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_a_budget_override_is_checked_by_the_schema(tmp_path, capsys, budget):
    out = tmp_path / "out"
    code = main(["--config", str(CONFIGS / "growth_safin.json"), "--out", str(out),
                 "--budget", budget])
    assert code == 4
    assert capsys.readouterr().err == f"config error: {budget} is less than the minimum of 1\n"
    assert not out.exists()


@pytest.mark.parametrize("cfg, message", [
    (dict(GROWTH_CFG, mode="paper"), "'paper' is not of type 'object'"),
    ([], "[] is not of type 'object'"),
])
def test_a_mode_override_leaves_a_config_of_the_wrong_shape_to_the_schema(tmp_path, capsys,
                                                                         cfg, message):
    code = main(["--config", _write(tmp_path, cfg), "--out", str(tmp_path / "out"),
                 "--mode", "practical", "--seed", "1", "--budget", "9"])
    assert code == 4
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("text", [b"\xff\xfe{}", b"[" * 100_000, b"1" * 5_000])
def test_a_config_file_json_cannot_read_is_a_config_error(tmp_path, capsys, text):
    # bad UTF-8, nesting past the recursion limit, an integer of too many digits
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err.startswith("config error: ")


# --- crash search: schema-valid configs through `python -m psgrowth.cli` ---

# mostly values a space accepts, with the edge values "0", "-1" and "-0" that
# the space or a command's own check must refuse as config errors
RATIONALS = st.one_of(
    st.sampled_from(["1", "1/2", "2", "4", "3/2", "007/02", "1/3", "0", "-1", "-0"]),
    st.fractions(Fraction(1, 6), 8, max_denominator=6).map(str),
)
COMMANDS = CONFIG_SCHEMA["properties"]["command"]["enum"]


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):  # a cycle and its rotation, or a path
        edges = [[i, (i + 1) % n] for i in range(n if n > 2 else n - 1)]
        gens = [[(i + 1) % n for i in range(n)]] if n > 2 else []
    else:
        edges = [[i, i + 1] for i in range(n - 1)]
        gens = draw(st.lists(st.permutations(range(n)), max_size=2))
    # n itself is not a vertex id
    edges += draw(st.lists(st.lists(st.integers(0, n), min_size=2, max_size=2), max_size=2))
    graph = {"vertices": n, "edges": edges}
    if gens or draw(st.booleans()):
        graph["generators"] = gens
    return graph


def rarely(draw, usual, rare):
    """A draw from `rare` one time in eight, else from `usual`."""
    return draw(rare if draw(st.integers(0, 7)) == 0 else usual)


BACKENDS = ["free_group", "free_product", "graph"]
# the backends a command runs on; the rest are refused, and drawn less
FITTING = {"treeapprox": ["graph"], "reduce": BACKENDS[:2], "period": BACKENDS[:2],
           "pingpong": BACKENDS[:2]}


@st.composite
def spaces(draw, command):
    backend = rarely(draw, st.sampled_from(FITTING.get(command, BACKENDS)),
                     st.sampled_from(BACKENDS))
    space = {"backend": backend}
    if backend == "free_group":
        space["rank"] = rarely(draw, st.integers(1, 3), st.just(26))
    elif backend == "free_product":
        space["orders"] = draw(st.lists(st.sampled_from([2, 3, 5, None]), min_size=2,
                                        max_size=2))
    else:
        space["graph"] = draw(graphs())
    for key, values in [("rho0", RATIONALS), ("kappa0", RATIONALS), ("n0", st.integers(1, 3))]:
        if draw(st.integers(0, 3)) == 0:
            space[key] = draw(values)
    return space


def _letters(space):
    count = {"free_group": space.get("rank"), "free_product": 2}.get(
        space["backend"], len(space.get("graph", {}).get("generators", [])))
    return "abcdefghijklmnopqrstuvwxyz"[:count] + "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[:count]


@st.composite
def configs(draw, commands):
    """A small schema-valid config: mostly a backend the command runs on and
    words in the space's letters, rarely the empty word, "1" or a string
    that does not parse, and sizes that keep a run short."""
    command = draw(st.sampled_from(commands))
    space = draw(spaces(command))
    letters = _letters(space)
    words = st.text(letters, min_size=1, max_size=5) if letters else st.just("1")
    words = st.integers(0, 7).flatmap(
        lambda i: st.sampled_from(["", "1", "z", "a!"]) if i == 0 else words)
    free = space["backend"] == "free_group"
    sets = [
        st.fixed_dictionaries({"elements": st.lists(words, min_size=1, max_size=4)},
                              optional={"kind": st.just("explicit")}),
        st.fixed_dictionaries({"kind": st.just("safin"), "n_big": st.integers(1, 4)}),
        st.fixed_dictionaries({"kind": st.just("random")}, optional={
            "count": st.integers(1, 8), "max_length": st.integers(1, 4)}),
    ]
    optional = {
        "mode": st.one_of(
            st.fixed_dictionaries({}, optional={"name": st.just("paper")}),
            st.fixed_dictionaries({"name": st.just("practical")},
                                  optional={"concentration_threshold": RATIONALS,
                                            "displacement_floor": RATIONALS}),
        ),
        "n_max": st.integers(1, 4),
        "seed": st.integers(-1, 2**32),
        "budget": st.integers(1, 10**5),
        "reduce": st.fixed_dictionaries({}, optional={"r": RATIONALS}),
        "period": st.fixed_dictionaries({}, optional={"root": words, "threshold": RATIONALS}),
        "treeapprox": st.fixed_dictionaries(
            {}, optional={"base": st.integers(0, 7),
                          "targets": st.lists(st.integers(0, 7), max_size=4)}),
    }
    cfg = draw(st.fixed_dictionaries({"command": st.just(command), "space": st.just(space)},
                                     optional=optional))
    # random sets are for free groups, and an empty explicit set is refused
    if rarely(draw, st.just(True), st.booleans()):
        cfg["set"] = rarely(draw, st.sampled_from(sets if free else sets[:2]).flatmap(lambda s: s),
                            st.one_of(*sets, st.just({"elements": []})))
    if command == "pingpong" or draw(st.integers(0, 3)) == 0:
        cfg["pingpong"] = draw(st.fixed_dictionaries(
            {"root": words, "t": words},
            optional={"powers": st.lists(st.integers(-6, 6), min_size=1, max_size=3),
                      "n": st.integers(1, 4), "a_value": RATIONALS},
        ))
    return cfg


CHILD_MEMORY = 2 * 1024**3
CHILD_SECONDS = 60


def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))
    signal.alarm(CHILD_SECONDS)  # an alarm survives exec: SIGALRM ends the child


def _assert_exits_cleanly(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", "psgrowth.cli", "--config", _write(tmp, cfg),
             "--out", str(Path(tmp) / "out")],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=child_pythonpath(), OPENBLAS_NUM_THREADS="1"),
            preexec_fn=_limit_child,
            timeout=CHILD_SECONDS + 30,
        )
    context = f"config {json.dumps(cfg)} exited {proc.returncode}:\n{proc.stderr[-3000:]}"
    assert proc.returncode in (0, 2, 3, 4), context
    assert "Traceback" not in proc.stderr, context


AIM3_CFG = {
    "command": "growth",
    "space": {"backend": "free_group", "rank": 2},
    "set": {"kind": "random", "count": 40, "max_length": 7},
    "mode": {"name": "paper"},
    "n_max": 5,
    "seed": 3,
}


def _with_examples(test):
    for cfg, _ in FLOAT_INTEGERS.values():
        test = example(cfg)(test)
    return example(AIM3_CFG)(test)


@_with_examples
@settings(derandomize=True, deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs([c for c in COMMANDS if c != "verify-all"]))
def test_schema_valid_configs_exit_cleanly(cfg):
    # verify-all runs the whole acceptance suite (about 5 s), which the
    # longer search below covers
    _assert_exits_cleanly(cfg)


@pytest.mark.slow
@settings(derandomize=True, deadline=None, max_examples=600,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs(COMMANDS))
def test_schema_valid_configs_exit_cleanly_long_search(cfg):
    _assert_exits_cleanly(cfg)
