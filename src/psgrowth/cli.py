"""Batch front-end: experiment configs in, JSON/CSV reports out.

Exit codes: 0 success, 2 certified-bound violation, 3 budget truncation,
4 config error.  Reports embed the full config echo and are byte-identical
across runs for identical configs and seeds.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import acceptance
from .energy import Case, Mode, classify, minimize_energy
from .growth import concentrated_pipeline, diffuse_pipeline, exponent_fit, growth_report
from .periodicity import is_biperiodic, is_periodic, pingpong_certify
from .reduction import median_split, reduce_tree
from .spaces import NO_HYPERBOLIC_ELEMENT, FreeGroupTree, FreeProductTree, load_graph
from .treeapprox import approximate_tree, distortion_report
from .words import (
    BudgetExceededError,
    ElementSet,
    parse,
    random_reduced_word,
    safin_counts,
    safin_family,
)

EXIT_OK = 0
EXIT_BOUND_VIOLATION = 2
EXIT_BUDGET = 3
EXIT_CONFIG = 4

_RATIONAL = {"type": "string", "pattern": r"^-?\d+(/0*[1-9]\d*)?$"}
_INTEGERS = {"type": "array", "items": {"type": "integer"}}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["space", "command"],
    "properties": {
        "command": {
            "enum": [
                "growth",
                "energy",
                "reduce",
                "period",
                "pingpong",
                "treeapprox",
                "verify-all",
            ]
        },
        "space": {
            "type": "object",
            "additionalProperties": False,
            "required": ["backend"],
            "properties": {
                "backend": {"enum": ["free_group", "free_product", "graph"]},
                "rank": {"type": "integer", "minimum": 1, "maximum": 26},
                "orders": {
                    "type": "array",
                    "items": {"type": ["integer", "null"], "minimum": 2},
                    "minItems": 2,
                    "maxItems": 2,
                },
                "rho0": _RATIONAL,
                "kappa0": _RATIONAL,
                "n0": {"type": "integer", "minimum": 1},
                "graph": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["vertices", "edges"],
                    "properties": {
                        "vertices": {"type": "integer", "minimum": 1},
                        "edges": {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "items": {"type": "integer", "minimum": 0},
                                "minItems": 2,
                                "maxItems": 2,
                            },
                        },
                        "generators": {"type": "array", "items": _INTEGERS},
                    },
                },
            },
        },
        "set": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["explicit", "safin", "random"]},
                "elements": {"type": "array", "items": {"type": "string"}},
                "n_big": {"type": "integer", "minimum": 1},
                "count": {"type": "integer", "minimum": 1},
                "max_length": {"type": "integer", "minimum": 1},
            },
        },
        "mode": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "name": {"enum": ["paper", "practical"]},
                "concentration_threshold": _RATIONAL,
                "displacement_floor": _RATIONAL,
            },
        },
        "n_max": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "budget": {"type": "integer", "minimum": 1},
        "reduce": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"r": _RATIONAL},
        },
        "period": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"root": {"type": "string"}, "threshold": _RATIONAL},
        },
        "pingpong": {
            "type": "object",
            "additionalProperties": False,
            "required": ["root", "t"],
            "properties": {
                "root": {"type": "string"},
                "t": {"type": "string"},
                "powers": dict(_INTEGERS, minItems=1),
                "n": {"type": "integer", "minimum": 1},
                "a_value": _RATIONAL,
            },
        },
        "treeapprox": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "base": {"type": "integer", "minimum": 0},
                "targets": _INTEGERS,
            },
        },
    },
}

# the JSON types CONFIG_SCHEMA names; an integer is a JSON integer (2, not 2.0)
_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "null": lambda v: v is None,
}


def _schema_errors(value, schema: dict, path: tuple = ()):
    """Every way `value` breaks `schema`, as (path, message) pairs, in the
    order and words of jsonschema's Draft 2020-12 validator.  Only the
    keywords CONFIG_SCHEMA uses are read, and `additionalProperties` is
    always false there."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    for keyword, rule in schema.items():
        if keyword == "type":
            types = [rule] if isinstance(rule, str) else rule
            if not any(_IS_TYPE[t](value) for t in types):
                yield path, f"{value!r} is not of type {', '.join(map(repr, types))}"
        elif keyword == "enum":
            if value not in rule:
                yield path, f"{value!r} is not one of {rule!r}"
        elif keyword == "minimum":
            if number and value < rule:
                yield path, f"{value!r} is less than the minimum of {rule!r}"
        elif keyword == "maximum":
            if number and value > rule:
                yield path, f"{value!r} is greater than the maximum of {rule!r}"
        elif keyword == "pattern":
            if isinstance(value, str) and not re.search(rule, value):
                yield path, f"{value!r} does not match {rule!r}"
        elif isinstance(value, list):
            if keyword == "items":
                for i, item in enumerate(value):
                    yield from _schema_errors(item, rule, path + (i,))
            elif keyword == "minItems" and len(value) < rule:
                yield path, f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}"
            elif keyword == "maxItems" and len(value) > rule:
                yield path, f"{value!r} is too long"
        elif isinstance(value, dict):
            if keyword == "properties":
                for key, subschema in rule.items():
                    if key in value:
                        yield from _schema_errors(value[key], subschema, path + (key,))
            elif keyword == "required":
                for key in rule:
                    if key not in value:
                        yield path, f"{key!r} is a required property"
            elif keyword == "additionalProperties":
                extras = sorted(set(value) - set(schema["properties"]), key=str)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, (
                        f"Additional properties are not allowed "
                        f"({', '.join(map(repr, extras))} {verb} unexpected)"
                    )


def _config_error(cfg) -> str | None:
    """Why `cfg` breaks CONFIG_SCHEMA, or None if it does not: the message
    jsonschema's `best_match` picks, the first of the errors whose path is
    shortest and, among those, greatest as a tuple."""
    best = None
    for path, message in _schema_errors(cfg, CONFIG_SCHEMA):
        rank = (-len(path), path)
        if best is None or rank > best[0]:
            best = rank, message
    return None if best is None else best[1]


class ConfigError(Exception):
    pass


def _frac(s, default=None):
    if s is None:
        return default
    try:
        return Fraction(s)
    except ValueError as exc:  # the schema's pattern passes; int() refuses too many digits
        raise ConfigError(f"{s[:20]}...: {exc}") from None


def _parse_at(ctx, text: str, key: str):
    """`parse`, with a string it rejects reported as a config error at `key`."""
    try:
        return parse(ctx, text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _root_at(space, text: str, key: str):
    """A period or ping-pong root: a hyperbolic element of the space."""
    root = _parse_at(space.context, text, key)
    if root.is_identity:
        raise ConfigError(f"{key}: the identity is not a root (it has no primitive root)")
    if not space.translation_length(root).is_hyperbolic:
        raise ConfigError(f"{key}: {text} is not hyperbolic (it fixes a point)")
    return root


def _reduce_radius(cfg: dict, space, mode: Mode):
    """`reduce.r`, default rho0: a positive multiple of rho0, as the tree
    reduction checks it, and in paper mode at most kappa0 / 4, the paper's
    regime, which only this check enforces."""
    r = _frac(cfg.get("reduce", {}).get("r"), space.rho0)
    if r <= 0 or (r / space.rho0).denominator != 1:
        raise ConfigError(f"reduce.r: {r} is not a positive multiple of rho0 = {space.rho0}")
    if mode.name == "paper" and r > space.kappa0 / 4:
        raise ConfigError(
            f"reduce.r: paper mode needs r <= kappa0 / 4 = {space.kappa0 / 4} "
            f"(the default r is rho0 = {space.rho0})"
        )
    return r


def build_space(cfg: dict):
    """The backend; a value its constructor rejects is a config error at `space`."""
    section = cfg["space"]
    backend = section["backend"]
    rho0 = _frac(section.get("rho0"), Fraction(1))
    kappa0 = _frac(section.get("kappa0"))
    n0 = section.get("n0", 1)
    try:
        if backend == "free_group":
            if "rank" not in section:
                raise ConfigError("free_group needs 'rank'")
            return FreeGroupTree(section["rank"], rho0=rho0, kappa0=kappa0, N0=n0)
        if backend == "free_product":
            if "orders" not in section:
                raise ConfigError("free_product needs 'orders'")
            return FreeProductTree(section["orders"], rho0=rho0, kappa0=kappa0, N0=n0)
        if "graph" not in section:
            raise ConfigError("graph backend needs 'graph'")
        return load_graph(section["graph"], rho0=rho0, kappa0=kappa0, N0=n0)
    except ValueError as exc:
        raise ConfigError(f"space: {exc}") from None


# a random set's size when the config leaves it out
_RANDOM_SET_COUNT = 50
_RANDOM_SET_MAX_LENGTH = 6


def _set_build_size(section: dict) -> int:
    """What `build_set` makes before any budget applies: the letters of a
    random set's `count` words of up to `max_length` letters, the 2·n_big + 2
    elements of a Safin family, or nothing beyond an explicit list."""
    kind = section.get("kind", "explicit")
    if kind == "random":
        return section.get("count", _RANDOM_SET_COUNT) * section.get(
            "max_length", _RANDOM_SET_MAX_LENGTH
        )
    if kind == "safin":
        return 2 * section.get("n_big", 0) + 2
    return 0


def build_set(cfg: dict, space, seed: int) -> ElementSet:
    section = cfg.get("set")
    if section is None:
        raise ConfigError("this command needs a 'set'")
    kind = section.get("kind", "explicit")
    ctx = space.context
    if ctx is None:
        raise ConfigError("the graph has no group action; supply generators")
    if kind == "explicit":
        if "elements" not in section:
            raise ConfigError("explicit set needs 'elements'")
        if not section["elements"]:
            raise ConfigError("set.elements: U must be nonempty")
        return ElementSet(
            ctx,
            [_parse_at(ctx, t, f"set.elements[{i}]") for i, t in enumerate(section["elements"])],
        )
    if kind == "safin":
        if "n_big" not in section:
            raise ConfigError("safin set needs 'n_big'")
        try:
            return safin_family(ctx, section["n_big"])
        except ValueError as exc:  # fewer than two generators, or a finite first one
            raise ConfigError(f"set.kind: safin: {exc}") from None
    # random: uniform over reduced words of length <= max_length
    count = section.get("count", _RANDOM_SET_COUNT)
    max_len = section.get("max_length", _RANDOM_SET_MAX_LENGTH)
    rng = random.Random(seed)
    if ctx.kind != "free":
        raise ConfigError("random sets are defined for free-group backends")
    k = ctx.rank
    # rng.choices adds the weights up as a float, so the number of words in
    # the ball must fit in one
    total = 0
    for l in range(1, max_len + 1):
        total += (2 * k) * (2 * k - 1) ** (l - 1)
        try:
            float(total)
        except OverflowError:
            raise ConfigError(
                f"rank {k} has more reduced words of length <= {max_len} than "
                "a float can count; lower 'max_length'"
            ) from None
    weights = [(2 * k) * (2 * k - 1) ** (l - 1) for l in range(1, max_len + 1)]
    members = set()
    attempts = 0
    while len(members) < count:
        attempts += 1
        if attempts > 100 * count:
            raise ConfigError("random set generation stalled; lower 'count'")
        length = rng.choices(range(1, max_len + 1), weights=weights)[0]
        members.add(random_reduced_word(rng, ctx, length))
    return ElementSet(ctx, members)


def build_mode(cfg: dict) -> Mode:
    section = cfg.get("mode", {"name": "paper"})
    if section.get("name", "paper") == "paper":
        return Mode.paper()
    return Mode.practical(
        _frac(section.get("concentration_threshold"), Fraction(1)),
        _frac(section.get("displacement_floor"), Fraction(0)),
    )


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def run_config(cfg: dict, out_dir: Path) -> int:
    command = cfg["command"]
    seed = cfg.get("seed", 0)
    budget = cfg.get("budget", 10_000_000)
    # refusals by backend come first: they hold for a space of any size
    on_graph = cfg["space"]["backend"] == "graph"
    if command == "treeapprox" and not on_graph:
        raise ConfigError("treeapprox needs the graph backend")
    if command in ("reduce", "period", "pingpong") and on_graph:
        raise ConfigError(f"{command} needs a hyperbolic element, and {NO_HYPERBOLIC_ELEMENT}")
    if on_graph and "graph" in cfg["space"]:
        # the four-point delta scans every vertex quadruple: n^4 time
        n = cfg["space"]["graph"]["vertices"]
        if n**4 > budget:
            raise BudgetExceededError(f"{n} vertices make {n**4} quadruples")
    # a set is built whole before any enumeration budget applies
    size = _set_build_size(cfg.get("set", {}))
    if size > budget:
        raise BudgetExceededError(f"building the set takes {size} > {budget} units")
    space = build_space(cfg)
    mode = build_mode(cfg)
    report: dict = {"config_echo": cfg, "command": command}
    exit_code = EXIT_OK
    sizes_rows: list[tuple] = []

    if command == "verify-all":
        results, all_ok = acceptance.verify_all(echo=True)
        report["criteria"] = [r.as_dict() for r in results]
        if not all_ok:
            exit_code = EXIT_BOUND_VIOLATION

    elif command == "growth":
        U = build_set(cfg, space, seed)
        n_max = cfg.get("n_max", 3)
        try:
            rep = growth_report(space, U, n_max, mode, budget)
        except BudgetExceededError:
            return EXIT_BUDGET
        report["growth"] = rep.as_dict()
        report["certificates"] = []
        if cfg.get("set", {}).get("kind") == "safin":
            report["safin_counts"] = safin_counts(cfg["set"]["n_big"])
            slope, counts = exponent_fit(
                space, lambda N: safin_family(space.context, N), min(n_max, 3), [2, 4, 8], budget
            )
            report["growth"]["exponent_fit"] = round(slope, 6)
            report["family_counts"] = {str(k): v for k, v in counts.items()}
        else:
            report["safin_counts"] = None
        if rep.profile is not None:
            report["profile"] = {
                "base_point": space.encode_point(rep.profile.base_point),
                "energy": str(rep.profile.energy),
                "displacement": str(rep.profile.displacement),
                "case": rep.profile.case.value if rep.profile.case else None,
            }
            if rep.profile.case is Case.CONCENTRATED:
                out = concentrated_pipeline(
                    space, U, rep.profile.base_point, mode, n_max=n_max, budget=budget
                )
                report["pipeline"] = {"branch": "concentrated"} | out.as_dict()
                report["certificates"].append(out.as_dict())
            elif rep.profile.case is Case.DIFFUSE:
                out = diffuse_pipeline(space, U, mode, n=n_max, budget=budget)
                report["pipeline"] = {"branch": out.branch} | out.as_dict()
                report["certificates"].append(out.as_dict())
        sizes_rows = [
            (n, rep.sizes[n], str(rep.bounds[n])) for n in sorted(rep.sizes)
        ]
        if rep.violations:
            exit_code = EXIT_BOUND_VIOLATION
        elif rep.truncated:
            exit_code = EXIT_BUDGET

    elif command == "energy":
        U = build_set(cfg, space, seed)
        prof = classify(space, U, minimize_energy(space, U), mode)
        report["profile"] = {
            "base_point": space.encode_point(prof.base_point),
            "energy": str(prof.energy),
            "displacement": str(prof.displacement),
            "d_factor": str(prof.d_factor),
            "case": prof.case.value,
            "mode": prof.mode_name,
        }

    elif command == "reduce":
        r = _reduce_radius(cfg, space, mode)
        U = build_set(cfg, space, seed)
        prof = minimize_energy(space, U)
        x0 = prof.base_point
        res = reduce_tree(space, U, x0, r)
        report["reduction"] = res.as_dict()
        if not res.failed:
            out1, out2 = median_split(space, res.u1, res.u2, x0)
            report["median_split"] = {"u1": out1.to_strings(), "u2": out2.to_strings()}
        report["base_point"] = space.encode_point(x0)

    elif command == "period":
        section = cfg.get("period", {})
        root = None
        if "root" in section:
            root = _root_at(space, section["root"], "period.root")
        U = build_set(cfg, space, seed)
        x0 = space.basepoint()
        threshold = _frac(section.get("threshold"))
        if root is not None:
            report["period"] = [
                is_periodic(space, v, root, x0, threshold).as_dict() for v in U
            ]
        else:
            res = is_biperiodic(space, U, x0, threshold)
            report["biperiodic"] = res.as_dict()

    elif command == "pingpong":
        section = cfg.get("pingpong")
        if section is None:
            raise ConfigError("pingpong needs a 'pingpong' section")
        root = _root_at(space, section["root"], "pingpong.root")
        t = _parse_at(space.context, section["t"], "pingpong.t")
        powers = section.get("powers", [10, 20, 30])
        # V's largest power is built whole before any enumeration budget applies
        size = root.word_length() * max(abs(k) for k in powers) + t.word_length()
        if size > budget:
            raise BudgetExceededError(f"building V and t takes {size} > {budget} letters")
        V = ElementSet(space.context, [root**k for k in powers])
        cert = pingpong_certify(
            space,
            V,
            root,
            t,
            section.get("n", 3),
            space.basepoint(),
            a_value=_frac(section.get("a_value")),
            budget=budget,
        )
        report["pingpong"] = cert.as_dict()
        if not cert.certified:
            exit_code = EXIT_BOUND_VIOLATION

    elif command == "treeapprox":
        section = cfg.get("treeapprox", {})
        base = section.get("base", 0)
        targets = section.get("targets") or [v for v in range(space.n) if v != base]
        for v in [base, *targets]:
            if not 0 <= v < space.n:
                raise ConfigError(
                    f"treeapprox vertex {v} is not a vertex id in 0..{space.n - 1}"
                )
        if not targets:
            raise ConfigError(f"treeapprox: the graph has no vertex other than base {base}")
        approx = approximate_tree(space, base, targets)
        rep = distortion_report(approx)
        report["treeapprox"] = {
            "distortion": rep.as_dict(),
            "tree": approx.export(),
        }
        if not rep.ok:
            exit_code = EXIT_BOUND_VIOLATION

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_bytes(_json_bytes(report))
    if sizes_rows:
        with (out_dir / "sizes.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "size", "bound"])
            writer.writerows(sizes_rows)
    return exit_code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="psgrowth",
        description="product-set growth experiments on trees and hyperbolic graphs",
    )
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--mode", choices=["paper", "practical"], help="override mode name")
    parser.add_argument("--budget", type=int, help="override enumeration budget")
    parser.add_argument("--seed", type=int, help="override RNG seed")
    parser.add_argument("--out", default="out", help="report directory")
    args = parser.parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON, bad UTF-8, or an integer of too many digits
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    # the overrides go in first, so the schema checks them too
    if isinstance(cfg, dict):
        if args.mode and isinstance(cfg.setdefault("mode", {}), dict):
            cfg["mode"]["name"] = args.mode
        if args.budget is not None:
            cfg["budget"] = args.budget
        if args.seed is not None:
            cfg["seed"] = args.seed
    error = _config_error(cfg)
    if error is not None:
        print(f"config error: {error}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        code = run_config(cfg, Path(args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    print(f"report written to {Path(args.out) / 'report.json'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
