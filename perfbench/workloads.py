"""The three workloads: set-up (parse the generated strings into psgrowth
objects) and the fixed job list one round runs.

A job is `(name, run, check)`.  `run(rec)` makes its calls into psgrowth
through `rec.call(span, fn, ...)` and returns the outputs; `check(out,
full)` raises `CheckFailed` unless the outputs agree with the reference
computations in `reference.py` or with a property the method must have.
`full` is set on the first round; later rounds skip only the comparisons
of whole product sets, which the first round has already made.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from functools import cache
from math import comb
from pathlib import Path

import reference as ref
from inputs import APPROX_SIZES, CYCLE_SIZE, FP, GRAPH_SIZES, Z57


class CheckFailed(Exception):
    pass


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def f2_str(element) -> str:
    s = str(element)
    return "" if s == "1" else s


def fp_tuple(element) -> tuple:
    s = str(element)
    return () if s == "1" else FP.parse(s)


def f2_strings(strings) -> list[str]:
    return ["" if s == "1" else s for s in strings]


def parse_set(rec, psg, ctx, strings):
    return rec.call("words.parse", psg.ElementSet.from_strings, ctx, strings)


def parse_list(rec, psg, ctx, strings):
    return rec.call("words.parse", lambda: [psg.parse(ctx, s) for s in strings])


def write_config(workdir: Path, name: str, config: dict) -> Path:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(config))
    return path


def cli_job(rec, psg, config_path: Path, out_dir: Path) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        code = rec.call("cli.job", psg.cli.main,
                        ["--config", str(config_path), "--out", str(out_dir)])
    expect(code == 0, f"cli exit code {code}")
    return json.loads((out_dir / "report.json").read_text())


# -- enumerate -------------------------------------------------------------------


def enumerate_jobs(psg, spec: dict, rec, workdir: Path) -> list:
    f2 = psg.FreeGroupTree(2)
    z57 = psg.FreeProductTree(Z57)
    sets = {key: parse_set(rec, psg, f2.context, spec[key])
            for key in ("safin_n4", "safin_n5", "symmetric")}
    sets.update({key: parse_set(rec, psg, z57.context, spec[key])
                 for key in ("fp_product", "fp_growth")})
    config = write_config(workdir, "cli_growth", spec["cli_growth"])
    cli_set = spec["cli_growth"]["set"]["elements"]

    @cache
    def f2_levels(key, n):
        return ref.power_levels(f2_strings(spec[key]), n, ref.f2_mul)

    @cache
    def fp_levels(key, n):
        return ref.power_levels([FP.parse(s) for s in spec[key]], n, FP.mul)

    def product_job(name, key, n, span, levels, to_ref):
        def run(rec):
            return rec.call(span, psg.product_set, sets[key], n)

        def check(out, full):
            want = levels(key, n)[-1]
            expect(len(out) == len(want), f"|U^{n}| = {len(out)}, reference {len(want)}")
            if full:
                expect({to_ref(x) for x in out} == want, "product set differs from reference")
        return (name, run, check)

    def symmetric_run(rec):
        return rec.call("words.product_set", psg.product_set, sets["symmetric"], 8)

    def symmetric_check(out, full):
        want = ref.symmetric_power_size(8)
        expect(len(out) == want, f"|S^8| = {len(out)}, closed form {want}")
        if full:
            expect(all(len(w) <= 8 and len(w) % 2 == 0 and ref.f2_reduce(w) == w
                       for w in map(f2_str, out)),
                   "S^8 holds a word of the wrong length or parity")

    def fp_growth_run(rec):
        return rec.call("growth.growth_report", psg.growth_report, z57,
                        sets["fp_growth"], 3, psg.Mode.paper())

    def fp_growth_check(rep, full):
        want = {k + 1: len(level) for k, level in enumerate(fp_levels("fp_growth", 3))}
        expect(rep.sizes == want, f"growth sizes {rep.sizes}, reference {want}")
        expect(not rep.truncated and not rep.violations, "growth report truncated or violated")

    @cache
    def cli_sizes():
        levels = ref.power_levels(cli_set, 3, ref.f2_mul)
        return {str(k + 1): len(level) for k, level in enumerate(levels)}

    def cli_run(rec):
        return cli_job(rec, psg, config, workdir / "out_growth")

    def cli_check(report, full):
        expect(report["growth"]["sizes"] == cli_sizes(), "cli growth sizes differ from reference")
        expect(not report["growth"]["violations"], "cli growth reports a violation")

    return [
        product_job("safin_n4", "safin_n4", 4, "words.product_set", f2_levels, f2_str),
        product_job("safin_n5", "safin_n5", 5, "words.product_set", f2_levels, f2_str),
        ("symmetric_n8", symmetric_run, symmetric_check),
        product_job("fp_product_n4", "fp_product", 4, "words.product_set_fp", fp_levels, fp_tuple),
        ("fp_growth_n3", fp_growth_run, fp_growth_check),
        ("cli_growth", cli_run, cli_check),
    ]


# -- certify_tree ------------------------------------------------------------------


class F2Oracle:
    point = staticmethod(f2_str)
    element = staticmethod(f2_str)
    energy = staticmethod(ref.f2_energy)
    neighbours = staticmethod(ref.f2_neighbours)
    cross_products = staticmethod(ref.f2_cross_products)
    displacement = staticmethod(ref.f2_displacement)


class FPOracle:
    element = staticmethod(fp_tuple)
    energy = staticmethod(FP.energy)
    neighbours = staticmethod(FP.neighbours)
    cross_products = staticmethod(FP.cross_products)
    displacement = staticmethod(FP.displacement)

    @staticmethod
    def point(vertex):
        return (fp_tuple(vertex[0]), vertex[1])


def check_reduced_pair(oracle, members: set, u1, u2, x0, r) -> tuple:
    """The reduced-product certificate, rechecked: U1, U2 inside U, each of
    size at least |U|/100, and every cross Gromov product at most r.
    Returns the two maximal cross products."""
    e1 = [oracle.element(u) for u in u1]
    e2 = [oracle.element(u) for u in u2]
    expect(set(e1) <= members and set(e2) <= members, "reduced sets leave U")
    expect(100 * len(e1) >= len(members) and 100 * len(e2) >= len(members),
           "reduced sets below |U|/100")
    maxima = oracle.cross_products(e1, e2, x0)
    expect(max(maxima) <= r, f"cross products {maxima} exceed {r}")
    return maxima


def check_energy_minimum(oracle, members, x0, energy=None) -> None:
    """The base point's energy is as reported and no tree neighbour has less."""
    here = oracle.energy(members, x0)
    expect(energy is None or here == energy, f"energy at base point {here}, reported {energy}")
    for y in oracle.neighbours(x0):
        expect(oracle.energy(members, y) >= here, "a neighbour of the base point has lower energy")


def check_median_split(oracle, pool: set, out1, out2, x0) -> None:
    d1 = [oracle.displacement(oracle.element(u), x0) for u in out1]
    d2 = [oracle.displacement(oracle.element(u), x0) for u in out2]
    expect(d1 and d2, "median split emptied a side")
    expect({oracle.element(u) for u in out1} | {oracle.element(u) for u in out2} <= pool,
           "median split output leaves U1 and U2")
    expect(max(d1) <= min(d2), "median split: first side moves x0 further than the second")


def certify_tree_jobs(psg, spec: dict, rec, workdir: Path) -> list:
    f2 = psg.FreeGroupTree(2)
    z57 = psg.FreeProductTree(Z57)
    spaces = {"free_group": f2, "free_product": z57}
    sets = {
        "f2_big": parse_set(rec, psg, f2.context, spec["f2_big"]),
        "f2_conj": parse_set(rec, psg, f2.context, spec["f2_conj"]),
        "fp_conj": parse_set(rec, psg, z57.context, spec["fp_conj"]),
        "diffuse": parse_set(rec, psg, f2.context, spec["diffuse"]),
    }
    equations = []
    for system in spec["equations"]:
        strings = [system["base"]] + [s for eq in system["equations"] for s in eq]
        base, *flat = parse_list(rec, psg, f2.context, strings)
        eqs = [tuple(flat[i:i + 3]) for i in range(0, len(flat), 3)]
        equations.append((eqs, base, system["root"]))
    pingpong = []
    for inst in spec["pingpong"]:
        space = spaces[inst["space"]]
        root, t = parse_list(rec, psg, space.context, [inst["root"], inst["t"]])
        V = parse_set(rec, psg, space.context, inst["elements"])
        pingpong.append((space, root, t, V, inst))
    config = write_config(workdir, "cli_reduce", spec["cli_reduce"])
    cli_members = set(spec["cli_reduce"]["set"]["elements"])
    one = Fraction(1)

    def pipeline_job(key, space, oracle):
        U = sets[key]
        members = {oracle.element(u) for u in U}

        def run(rec):
            prof = rec.call("energy.minimize", psg.minimize_energy, space, U)
            x0 = prof.base_point
            red = rec.call("reduction.reduce_tree", psg.reduce_tree, space, U, x0, 1)
            cert = rec.call("reduction.certify", psg.reduction.certify_cross_products,
                            space, red.u1, red.u2, x0, one)
            split = rec.call("reduction.median_split", psg.median_split,
                             space, red.u1, red.u2, x0)
            return prof, red, cert, split

        def check(out, full):
            prof, red, (ok, maxima), (out1, out2) = out
            x0 = oracle.point(prof.base_point)
            check_energy_minimum(oracle, members, x0, prof.energy)
            expect(red.certified and red.cardinality_ok, f"reduce_tree: {red.branch} {red.reason}")
            want = check_reduced_pair(oracle, members, red.u1, red.u2, x0, 1)
            got = (maxima["u1_inv_vs_u2"], maxima["u2_inv_vs_u1"])
            expect(ok and got == want, f"certify_cross_products maxima {got}, reference {want}")
            pool = {oracle.element(u) for u in red.u1} | {oracle.element(u) for u in red.u2}
            check_median_split(oracle, pool, out1, out2, x0)
        return (key, run, check)

    def equations_run(rec):
        out = []
        for eqs, base, _ in equations:
            cert = rec.call("periodicity.extract", psg.extract_period_from_equations,
                            f2, eqs, base)
            axis = rec.call("hypgeom.translation_length", psg.translation_length,
                            f2, cert.period_root)
            out.append((cert, axis))
        return out

    def equations_check(out, full):
        for (cert, axis), (_, _, root) in zip(out, equations):
            period = f2_str(cert.period_root)
            expect(period in (root, ref.f2_inv(root)), f"period {period}, expected {root}")
            want = ref.f2_cyclic_length(root)
            expect(axis.translation_length == want,
                   f"translation length {axis.translation_length}, reference {want}")

    def pingpong_run(rec):
        out = []
        for space, root, t, V, inst in pingpong:
            axis = rec.call("hypgeom.translation_length", psg.translation_length, space, root)
            a_value = min(inst["powers"]) * axis.translation_length / 10
            out.append(rec.call("periodicity.pingpong", psg.pingpong_certify, space, V, root,
                                t, 3, space.basepoint(), a_value=a_value))
        return out

    @cache
    def pingpong_reference(i):
        inst = pingpong[i][4]
        if inst["space"] == "free_group":
            words = [ref.f2_mul(v, inst["t"]) for v in inst["elements"]]
            levels = ref.power_levels(words, 3, ref.f2_mul)
        else:
            words = [FP.mul(FP.parse(v), FP.parse(inst["t"])) for v in inst["elements"]]
            levels = ref.power_levels(words, 3, FP.mul)
        return {k + 1: len(level) for k, level in enumerate(levels)}

    def pingpong_check(out, full):
        for i, cert in enumerate(out):
            size = len(pingpong[i][3])
            want = {k: size ** k for k in (1, 2, 3)}
            expect(cert.certified, f"ping-pong instance {i} not certified: {cert.reason}")
            expect(cert.counts == want, f"ping-pong counts {cert.counts}, want {want}")
            expect(pingpong_reference(i) == want,
                   f"reference counts {pingpong_reference(i)} differ from |V|^k")

    diffuse_members = set(spec["diffuse"])

    def diffuse_run(rec):
        return rec.call("growth.diffuse_pipeline", psg.diffuse_pipeline, f2,
                        sets["diffuse"], psg.Mode.practical(1, 1), n=3)

    def diffuse_check(out, full):
        expect(out.certified, f"diffuse pipeline: {out.branch} {out.reason}")
        red = out.reduction
        expect(red["certified"] and red["cardinality_ok"], "diffuse reduction not certified")
        expect(100 * red["u1_size"] >= len(diffuse_members)
               and 100 * red["u2_size"] >= len(diffuse_members),
               "diffuse reduction below |U|/100")
        expect(all(Fraction(v) <= Fraction(red["tolerance"])
                   for v in red["max_products"].values()), "diffuse cross products above r")

    def cli_run(rec):
        return cli_job(rec, psg, config, workdir / "out_reduce")

    def cli_check(report, full):
        red = report["reduction"]
        x0 = f2_str(report["base_point"])
        expect(red["certified"] and red["cardinality_ok"], f"cli reduce: {red['reason']}")
        expect(all(Fraction(v) <= 1 for v in red["max_products"].values()),
               "cli reduce: cross products above r")
        split = report["median_split"]
        check_median_split(F2Oracle, cli_members, split["u1"], split["u2"], x0)
        check_energy_minimum(F2Oracle, cli_members, x0)

    return [
        pipeline_job("f2_big", f2, F2Oracle),
        pipeline_job("f2_conj", f2, F2Oracle),
        pipeline_job("fp_conj", z57, FPOracle),
        ("equations", equations_run, equations_check),
        ("pingpong", pingpong_run, pingpong_check),
        ("diffuse", diffuse_run, diffuse_check),
        ("cli_reduce", cli_run, cli_check),
    ]


# -- graph -------------------------------------------------------------------------


def graph_jobs(psg, spec: dict, rec, workdir: Path) -> list:
    rotations = parse_set(rec, psg, psg.free_group(1), spec["rotations"])
    config = write_config(workdir, "cli_treeapprox", spec["cli_treeapprox"])
    edges = {n: [tuple(e) for e in spec["graphs"][n]] for n in GRAPH_SIZES}
    built: dict = {}  # graphs of the current round, for the later jobs

    @cache
    def distances(n):
        return ref.bfs_distances(n, edges[n])

    @cache
    def delta(n):
        return ref.four_point_delta(distances(n))

    def build_job(n):
        def run(rec):
            built[n] = rec.call("spaces.graph_build", psg.FiniteHypGraph, n, edges[n])
            return built[n]

        def check(g, full):
            expect(g.delta == delta(n), f"delta {g.delta}, brute force {delta(n)}")
            d = distances(n)
            expect(all(g.dist(i, j) == d[i][j] for i in range(n) for j in range(n)),
                   "graph distances differ from BFS")
        return (f"build_{n}", run, check)

    def approx_job(n):
        base = spec["approx_bases"][n]
        targets = [v for v in range(n) if v != base]

        def run(rec):
            approx = rec.call("treeapprox.approximate", psg.approximate_tree,
                              built[n], base, targets)
            return approx, rec.call("treeapprox.distortion", psg.distortion_report, approx)

        def check(out, full):
            approx, rep = out
            check_tree_approximation(approx.export(), distances(n), delta(n), len(targets),
                                     rep.max_shrink)
            expect(rep.ok and not rep.expansion_found, "distortion report not ok")
            expect(rep.n_pairs == comb(n, 2), f"distortion pairs {rep.n_pairs}")
        return (f"treeapprox_{n}", run, check)

    def cycle_run(rec):
        c = rec.call("spaces.graph_build", psg.cycle_graph, CYCLE_SIZE)
        return rec.call("energy.minimize", psg.minimize_energy, c, rotations)

    def cycle_check(prof, full):
        steps = [len(s) % CYCLE_SIZE for s in spec["rotations"]]
        want = Fraction(sum(min(k, CYCLE_SIZE - k) for k in steps), len(steps))
        expect(prof.energy == want, f"cycle energy {prof.energy}, rotation formula {want}")

    cli_n = spec["cli_treeapprox"]["space"]["graph"]["vertices"]
    cli_edges = spec["cli_treeapprox"]["space"]["graph"]["edges"]

    @cache
    def cli_delta():
        return ref.four_point_delta(ref.bfs_distances(cli_n, cli_edges))

    def cli_run(rec):
        return cli_job(rec, psg, config, workdir / "out_treeapprox")

    def cli_check(report, full):
        dist = report["treeapprox"]["distortion"]
        expect(dist["ok"] and not dist["expansion_found"], "cli treeapprox distortion not ok")
        expect(Fraction(dist["delta"]) == cli_delta(),
               f"cli delta {dist['delta']}, brute force {cli_delta()}")
        expect(dist["n_pairs"] == comb(cli_n, 2), f"cli distortion pairs {dist['n_pairs']}")

    return (
        [build_job(n) for n in GRAPH_SIZES]
        + [approx_job(n) for n in APPROX_SIZES]
        + [("cycle_energy", cycle_run, cycle_check), ("cli_treeapprox", cli_run, cli_check)]
    )


def check_tree_approximation(tree: dict, d, delta, n_leaves: int, reported_shrink) -> None:
    """From the exported tree alone: no sampled pair is expanded, and the
    worst shrink is within 2 delta (log2 n + 1) and equals the report's."""
    images = {int(p.lstrip("v")): node for p, node in tree["f_images"].items()}
    lengths = [Fraction(x) for x in tree["edge_length"]]
    tdist = ref.tree_distances(tree["parent"], lengths, sorted(set(images.values())))
    shrink = Fraction(0)
    points = sorted(images)
    for i_idx, p in enumerate(points):
        for q in points[i_idx + 1:]:
            a, b = sorted((images[p], images[q]))
            t = tdist[a, b] if a != b else Fraction(0)
            expect(t <= d[p][q], f"tree approximation expands the pair ({p}, {q})")
            shrink = max(shrink, d[p][q] - t)
    expect(shrink == reported_shrink, f"max shrink {shrink}, reported {reported_shrink}")
    expect(ref.within_log_bound(shrink, delta, n_leaves),
           f"shrink {shrink} above 2 delta (log2 {n_leaves} + 1)")


WORKLOADS = {
    "enumerate": enumerate_jobs,
    "certify_tree": certify_tree_jobs,
    "graph": graph_jobs,
}
