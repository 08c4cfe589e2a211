"""How the benchmark times its calls into psgrowth.

Every call a job makes into a public psgrowth function goes through
`call(span_name, fn, *args)`.  `Timer` only accumulates the time spent in
those calls (the end-to-end figure); `Tracer` also records a span per call
under the span of its job; `Counter` runs one untimed pass with wrappers
around the hot methods, because wrapping `GroupElement.__mul__` would
swamp any time measured beside it.
"""

from __future__ import annotations

import sys
import tracemalloc
from collections import Counter as Tally
from pathlib import Path
from time import perf_counter


class Timer:
    def __init__(self):
        self.busy = 0.0

    def begin_job(self, name: str, round_no: int) -> None:
        pass

    def end_job(self) -> None:
        pass

    def call(self, name: str, fn, *args, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        self.busy += perf_counter() - start
        return out


class Tracer(Timer):
    """Spans kept in memory: name, start, end, parent span id, job id, round."""

    def __init__(self):
        super().__init__()
        self.spans: list[dict] = []
        self._job: dict | None = None
        self._jobs = 0

    def begin_job(self, name: str, round_no: int) -> None:
        self._jobs += 1
        self._job = {
            "id": len(self.spans), "name": f"job.{name}", "start": perf_counter(),
            "end": None, "parent": None, "job": self._jobs, "round": round_no,
        }
        self.spans.append(self._job)

    def end_job(self) -> None:
        self._job["end"] = perf_counter()
        self._job = None

    def call(self, name: str, fn, *args, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        end = perf_counter()
        self.busy += end - start
        job = self._job
        self.spans.append({
            "id": len(self.spans), "name": name, "start": start, "end": end,
            "parent": job["id"] if job else None,
            "job": job["job"] if job else None,
            "round": job["round"] if job else None,
        })
        return out


def _report_bytes(args, kwargs, out) -> tuple[str, int]:
    argv = args[0]
    report = Path(argv[argv.index("--out") + 1]) / "report.json"
    return "cli.report_bytes", report.stat().st_size


# per span name: what a call's arguments and result add to which count
TALLIES = {
    "words.product_set": lambda a, k, out: ("words.distinct_elements", len(out)),
    "words.product_set_fp": lambda a, k, out: ("words.distinct_elements", len(out)),
    "spaces.graph_build": lambda a, k, out: ("spaces.delta_quadruples", out.n ** 4),
    "energy.minimize": lambda a, k, out: ("energy.descent_steps", out.descent_steps),
    "reduction.reduce_tree": lambda a, k, out: ("reduction.peel_rounds", out.peel_rounds),
    "reduction.certify": lambda a, k, out: (
        "reduction.certify_pairs", 2 * len(a[1]) * len(a[2])),
    "periodicity.pingpong": lambda a, k, out: (
        "periodicity.pingpong_products", sum(out.counts.values())),
    "treeapprox.distortion": lambda a, k, out: ("treeapprox.distortion_pairs", out.n_pairs),
    "cli.job": _report_bytes,
}


class Counter(Timer):
    """One pass with call-counting wrappers installed; its times are not
    reported.  Counts are attributed to the span the call happened in."""

    def __init__(self):
        super().__init__()
        self.counts: Tally = Tally()
        self.current = None
        self.graph_build_peak = 0

    def call(self, name: str, fn, *args, **kwargs):
        self.current = name
        measure_memory = name == "spaces.graph_build"
        if measure_memory:
            tracemalloc.start()
        try:
            out = fn(*args, **kwargs)
        finally:
            if measure_memory:
                self.graph_build_peak = max(self.graph_build_peak,
                                            tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            self.current = None
        if name in TALLIES:
            key, value = TALLIES[name](args, kwargs, out)
            self.counts[key] += value
        return out

    def _wrap(self, fn, what: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[what, self.current] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, psg) -> list:
        """Wrap the counted functions; returns what `uninstall` restores."""
        saved = []
        methods = [(psg.words.GroupElement, "__mul__", "words.mul"),
                   (psg.words.GroupElement, "inverse", "words.inverse")]
        for cls in (psg.FreeGroupTree, psg.FreeProductTree, psg.FiniteHypGraph):
            for meth in ("dist", "geodesic", "act"):
                methods.append((cls, meth, f"spaces.{meth}"))
        for cls, attr, what in methods:
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, what))
        # module functions are imported by name into other modules: rebind
        # every psgrowth module attribute that is the original function
        for original, what in ((psg.energy.energy_at, "energy.energy_at"),
                               (psg.hypgeom.translation_length, "hypgeom.translation_length")):
            wrapped = self._wrap(original, what)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "psgrowth":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        return saved

    @staticmethod
    def uninstall(saved: list) -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    def total(self, what: str, within=None) -> int:
        return sum(v for k, v in self.counts.items()
                   if isinstance(k, tuple) and k[0] == what
                   and (within is None or k[1] in within))
