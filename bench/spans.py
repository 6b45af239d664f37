"""In-memory spans around the program's public functions, recorded from outside.

A target "module.function" is wrapped wherever a ``matrixbs`` module binds
the function object, so calls are seen through whatever module binding
the CLI reaches them by; nothing under ``src/`` changes.  Each call gets
one span (name, start, end, parent, attributes).  A target the program no
longer defines is reported absent instead of failing the run.  Spans made
in pool worker processes stay in those processes: the parent sees only
its wait.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager


def _attr(fn):
    """Run an attribute getter, tolerating a changed signature or result."""
    try:
        return fn()
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


def _fit_attrs(args, kwargs, result):
    spec = args[1] if len(args) > 1 else kwargs.get("spec")
    return {"family": _attr(lambda: spec.family),
            "iterations": _attr(lambda: int(result.iterations))}


def _count_arg(args, kwargs, result):
    return {"rows": _attr(lambda: int(args[2] if len(args) > 2 else kwargs["count"]))}


# target -> annotator(args, kwargs, result) -> extra span attributes
TARGETS = {
    "dataio.read_batch": lambda a, k, res: {"rows": _attr(lambda: int(res.count))},
    "dataio.write_batch": lambda a, k, res: {"rows": _attr(lambda: int(a[1].count))},
    "sampling.sample_batch": _count_arg,
    "kernels.sample_symmetric": None,
    "transform.inverse_map_branch": None,
    "density.logpdf_T": None,
    "kernels.log_h": None,
    "linalg.check_spd": None,
    "fit.init_guess": None,
    "fit.fit_mle": _fit_attrs,
    "fit.profile_s_grid": lambda a, k, res: {
        "kotz_iterations": _attr(lambda: sum(int(r.fit.iterations) for r in res.rows))},
}


class Tracer:
    """Span recorder; spans are [name, start_ns, end_ns, parent_index, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []
        self.absent: list[str] = []

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, None])
        self._open.append(index)
        return index

    def _end(self, index: int, attrs=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[4] = attrs
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _wrap(self, name: str, fn, annotate):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._end(index, annotate(args, kwargs, result) if annotate else None)
        return traced

    def install(self, package: str = "matrixbs") -> None:
        """Wrap every target at every binding inside the loaded package."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == package or key.startswith(package + "."))]
        for target, annotate in TARGETS.items():
            home_name, attr = target.rsplit(".", 1)
            home = sys.modules.get(f"{package}.{home_name}")
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original, annotate)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, attrs) in enumerate(self.spans):
                record = {"id": index, "name": name, "start_ns": start, "end_ns": end,
                          "parent": parent}
                if attrs:
                    record.update(attrs)
                out.write(json.dumps(record) + "\n")


def _per(total, count, scale=1.0):
    return total * scale / count if count else None


def layer_metrics(spans: list[list], rounds: int) -> dict:
    """Per-layer figures from the spans of ``rounds`` traced workload rounds.

    Times are inclusive of child spans except ``cli.*.self_s``, which is a
    command span minus the time its direct children cover.  A figure whose
    spans never occurred is None (absent).
    """
    dur = [(s[2] - s[1]) * 1e-9 for s in spans]
    child_time = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def total(name):
        return sum(dur[i] for i in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def rows(name):
        return sum((spans[i][4] or {}).get("rows") or 0 for i in by_name.get(name, ()))

    out = {}
    for cmd in ("sample", "density", "fit", "compare"):
        ids = by_name.get(f"cli.{cmd}", ())
        out[f"cli.{cmd}.self_s"] = _per(sum(dur[i] - child_time[i] for i in ids), len(ids))
    out["dataio.write_batch.us_per_row"] = _per(total("dataio.write_batch"),
                                                rows("dataio.write_batch"), 1e6)
    out["dataio.read_batch.us_per_row"] = _per(total("dataio.read_batch"),
                                               rows("dataio.read_batch"), 1e6)
    out["sampling.sample_batch.us_per_draw"] = _per(total("sampling.sample_batch"),
                                                    rows("sampling.sample_batch"), 1e6)
    for name in ("kernels.sample_symmetric", "transform.inverse_map_branch",
                 "density.logpdf_T", "kernels.log_h", "linalg.check_spd"):
        out[f"{name}.us_per_call"] = _per(total(name), calls(name), 1e6)
    out["linalg.check_spd.calls"] = (calls("linalg.check_spd") / rounds
                                     if calls("linalg.check_spd") else None)
    out["fit.init_guess.ms_per_call"] = _per(total("fit.init_guess"),
                                             calls("fit.init_guess"), 1e3)

    gauss = [i for i in by_name.get("fit.fit_mle", ())
             if (spans[i][4] or {}).get("family") == "gaussian"]
    gauss_iters = sum((spans[i][4] or {}).get("iterations") or 0 for i in gauss)
    out["fit.fit_mle.gaussian.iterations"] = _per(gauss_iters, len(gauss))
    out["fit.fit_mle.gaussian.us_per_iteration"] = _per(sum(dur[i] for i in gauss),
                                                        gauss_iters, 1e6)
    # Kotz rows may run in pool workers, so their cost is read off the grid
    # span: its duration minus its Gaussian baseline child.
    profiles = by_name.get("fit.profile_s_grid", ())
    kotz_iters = sum((spans[i][4] or {}).get("kotz_iterations") or 0 for i in profiles)
    baseline = sum(dur[i] for i in gauss if spans[i][3] in set(profiles))
    out["fit.fit_mle.kotz.iterations"] = _per(kotz_iters, len(profiles))
    out["fit.fit_mle.kotz.us_per_iteration"] = _per(
        sum(dur[i] for i in profiles) - baseline, kotz_iters, 1e6)
    out["fit.profile_s_grid.s"] = _per(total("fit.profile_s_grid"), len(profiles))
    return out
