"""End-to-end benchmark of the matrixbs command-line tool.

Runs one workload as a closed loop of sequential CLI calls made in process
through ``matrixbs.cli.main``, checks every output against the independent
references in ``reference.py``, and prints one JSON result as the last line
of standard output:

    python3 bench/run.py --workload paper-k20 --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a separate
traced run that reports the per-layer metrics (see ``spans.py``) and writes
its spans under ``.bench_out/``.  The program is imported from ``src/`` of
the checkout this file sits in; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import reference as ref
from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Relative agreement demanded of values the program and the references both
# compute; the program's own optimum may sit this far below a closed form.
EXACT_RTOL = 1e-8
OPTIMUM_RTOL = 1e-6
KS_MIN_P = 1e-3
SETUP_REPEATS = 5
IMPORT_PROBES = 3
# Calls of the cheap commands per population and round, on distinct inputs,
# so that their totals rest on more calls.
REPEATS = 3

XI2 = np.array([[1.0, 0.3], [0.3, 0.8]])
PAPER_A = ref.Model(n=6, beta=100.0 * np.eye(2), xi=XI2)
PAPER_B = ref.Model(n=6, beta=100.0 * np.eye(2), xi=XI2, family="kotz", q=2.0, r=0.5, s=1.5)
BULK = ref.Model(n=8, beta=np.array([[100.0, 10.0, 0.0], [10.0, 120.0, 5.0], [0.0, 5.0, 90.0]]),
                 xi=np.array([[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 1.2]]),
                 family="kotz", q=2.0, r=0.5, s=1.5)

END_TO_END_UNITS = {"setup_s": "s", "sample_draws_per_s": "draws/s",
                    "density_rows_per_s": "rows/s", "fit_s": "s", "compare_s": "s",
                    "peak_rss_mib": "MiB"}
LAYER_UNITS = {
    "import.matrixbs_cli_ms": "ms", "import.matrixbs_validate_ms": "ms",
    "import.scipy_optimize_ms": "ms", "import.scipy_integrate_ms": "ms",
    "cli.sample.self_s": "s", "cli.density.self_s": "s", "cli.fit.self_s": "s",
    "cli.compare.self_s": "s",
    "dataio.write_batch.us_per_row": "us", "dataio.read_batch.us_per_row": "us",
    "sampling.sample_batch.us_per_draw": "us",
    "kernels.sample_symmetric.us_per_call": "us",
    "transform.inverse_map_branch.us_per_call": "us",
    "density.logpdf_T.us_per_call": "us", "kernels.log_h.us_per_call": "us",
    "linalg.check_spd.calls": "count", "linalg.check_spd.us_per_call": "us",
    "fit.init_guess.ms_per_call": "ms", "fit.loglik.ms_per_call": "ms",
    "fit.fit_mle.gaussian.iterations": "count",
    "fit.fit_mle.gaussian.us_per_iteration": "us",
    "fit.fit_mle.kotz.iterations": "count", "fit.fit_mle.kotz.us_per_iteration": "us",
    "fit.profile_s_grid.s": "s", "trace.overhead_pct": "%",
}
IMPORT_MODULES = {"import.matrixbs_cli_ms": "matrixbs.cli",
                  "import.matrixbs_validate_ms": "matrixbs.validate",
                  "import.scipy_optimize_ms": "scipy.optimize",
                  "import.scipy_integrate_ms": "scipy.integrate"}


def sample_seed(workload: str, j: int, k: int) -> int:
    """Seed of the k-th `sample` call for population j, the same in every round.

    It depends on neither --seed nor the round, so the 1-in-1000 false alarm
    of the KS check cannot differ between runs or rounds: with the first
    sampler benchmarked each of these seeds passes.  Gaussian draws give
    u = tr Z'Z whatever the fitted model, and the Kotz model is fixed.
    """
    base = 1000 if workload == "paper-k20" else 3000
    return base + REPEATS * j + k


def num(x: float) -> str:
    return repr(float(x))


def triangle(M: np.ndarray) -> str:
    m = M.shape[0]
    return ",".join(num(M[i, j]) for i in range(m) for j in range(i, m))


def write_csv(path: Path, T: np.ndarray) -> str:
    m = T.shape[1]
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    lines = [",".join(f"t{i + 1}{j + 1}" for i, j in pairs)]
    lines += [",".join(num(t[i, j]) for i, j in pairs) for t in T]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def close(a: float, b: float, rtol: float = EXACT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def model_from(estimates: dict, n: int, family: str = "gaussian", s: float = 1.0):
    xi = np.asarray(estimates["xi"], dtype=float)
    beta = float(estimates["beta"]) * np.eye(xi.shape[0])
    if family == "gaussian":
        return ref.Model(n=n, beta=beta, xi=xi)
    return ref.Model(n=n, beta=beta, xi=xi, family="kotz",
                     q=float(estimates["q"]), r=float(estimates["r"]), s=s)


# ---------------------------------------------------------------- checks


def check_sample(model: ref.Model, count: int):
    def check(out: dict) -> list[str]:
        T = np.asarray(out["matrices"], dtype=float)
        if T.shape != (count, model.m, model.m):
            return [f"expected {count} draws of order {model.m}, got shape {T.shape}"]
        problems = []
        low = np.linalg.eigvalsh(ref.whitened(T, model.beta))[:, 0]
        if not np.all(low > 1.0):
            problems.append(f"{int(np.sum(low <= 1.0))} draws outside the branch region")
        p = ref.radial_pvalue(T, model)
        if not p > KS_MIN_P:
            problems.append(f"radial law rejected by KS (p = {p:.3g})")
        return problems
    return check


def check_density(T: np.ndarray, model: ref.Model, convention: str):
    def check(out: dict) -> list[str]:
        got = np.asarray(out["logpdf"], dtype=float)
        if got.shape != (T.shape[0],) or out.get("convention") != convention:
            return [f"expected {T.shape[0]} {convention} values"]
        want = ref.logpdf_T(T, model, convention)
        bad = np.abs(got - want) > EXACT_RTOL * np.maximum(1.0, np.abs(want))
        return [f"{int(bad.sum())} rows differ from the reference"] if bad.any() else []
    return check


def check_fit(T: np.ndarray, n: int, truth: ref.Model | None):
    """Reported loglik and BIC* equal the reference at the estimates; the fit is
    no worse than the closed-form shape at its beta, nor than the truth."""
    def check(out: dict) -> list[str]:
        conv = out["convention"]
        model = model_from(out["estimates"], n)
        ll = float(out["loglik"])
        problems = []
        ll_ref = ref.loglik(T, model, conv)
        if not close(ll, ll_ref):
            problems.append(f"loglik {ll!r} but reference {ll_ref!r}")
        bic = ref.bic_star(ll_ref, model.n_params, T.shape[0])
        if not close(float(out["bic_star"]), bic):
            problems.append(f"BIC* {out['bic_star']!r} but reference {bic!r}")
        b = float(out["estimates"]["beta"])
        profiled = ref.Model(n=n, beta=model.beta, xi=ref.gaussian_shape(T, n, b))
        ll_cf = ref.loglik(T, profiled, conv)
        if ll < ll_cf - OPTIMUM_RTOL * abs(ll):
            problems.append(f"loglik {ll!r} below closed-form shape value {ll_cf!r}")
        if truth is not None:
            ll_true = ref.loglik(T, truth, conv)
            if ll < ll_true - EXACT_RTOL * abs(ll):
                problems.append(f"loglik {ll!r} below the true parameters' {ll_true!r}")
        return problems
    return check


def check_compare(T: np.ndarray, n: int, truth: ref.Model | None):
    """bic_diff recomputed per row, grades from 2/6/10, the nested s = 1 row
    at least the Gaussian, and the generating power at least the truth."""
    def check(out: dict) -> list[str]:
        K = T.shape[0]
        base = out["baseline"]
        conv = base["convention"]
        gauss = model_from(base["estimates"], n)
        ll_g = ref.loglik(T, gauss, conv)
        bic_g = ref.bic_star(ll_g, gauss.n_params, K)
        problems = []
        if not close(float(base["loglik"]), ll_g):
            problems.append(f"baseline loglik {base['loglik']!r} but reference {ll_g!r}")
        m = gauss.m
        for row in out["rows"]:
            s = float(row["s"])
            xi = np.array([[row[f"alpha{min(i, j) + 1}{max(i, j) + 1}"] for j in range(m)]
                           for i in range(m)], dtype=float)
            kotz = model_from({"beta": row["beta"], "xi": xi, "q": row["q"], "r": row["r"]},
                              n, "kotz", s)
            ll_k = ref.loglik(T, kotz, conv)
            diff = ref.bic_star(ll_k, kotz.n_params, K) - bic_g
            if not close(float(row["bic_diff"]), diff, EXACT_RTOL * max(1.0, abs(bic_g))):
                problems.append(f"s={s:g}: bic_diff {row['bic_diff']!r} but reference {diff!r}")
            if row["evidence"] != ref.grade(float(row["bic_diff"])):
                problems.append(f"s={s:g}: grade {row['evidence']!r} for {row['bic_diff']!r}")
            if s == 1.0 and ll_k < ll_g - OPTIMUM_RTOL * abs(ll_g):
                problems.append(f"s=1 loglik {ll_k!r} below the nested Gaussian {ll_g!r}")
            if truth is not None and s == truth.s:
                ll_true = ref.loglik(T, truth, conv)
                if ll_k < ll_true - EXACT_RTOL * abs(ll_true):
                    problems.append(f"s={s:g} loglik {ll_k!r} below the truth's {ll_true!r}")
        return problems
    return check


# ---------------------------------------------------------------- running


class Runner:
    """Makes CLI calls, checks their outputs and keeps per-kind timings."""

    def __init__(self, main, work: Path):
        self.main = main
        self.work = work
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # failed operations that exited 0 with wrong output
        self.calls: dict[str, list[tuple[float, int]]] = {
            "sample": [], "density": [], "fit": [], "compare": []}

    def call(self, kind: str, argv: list[str], check, amount: int = 1):
        """One operation: returns the parsed JSON output, or None if it failed."""
        out_path = self.work / f"{kind}.json"
        if out_path.exists():
            out_path.unlink()
        argv = [kind, *argv, "--out", str(out_path)]
        self.attempted += 1
        span = self.tracer.span(f"cli.{kind}") if self.tracer else nullcontext()
        start = time.perf_counter()
        try:
            with span:
                code = self.main(argv)
        except SystemExit as stop:
            code = stop.code
        except Exception:  # an escaped exception is a failed operation, not a crash
            traceback.print_exc()
            code = "exception"
        self.calls[kind].append((time.perf_counter() - start, amount))
        result, problems = None, []
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            try:
                result = json.loads(out_path.read_text(encoding="utf-8"))
                problems = check(result)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as bad:
                problems = [f"unreadable output: {bad!r}"]
            self.wrong += bool(problems)
        if problems:
            self.failed += 1
            print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
            return None
        return result


def paper_round(run: Runner, seed: int, index: int) -> None:
    """Per population type: fit REPEATS K = 20 batches, compare the first,
    then sample and density, alternately, under its fitted Gaussian model."""
    for j, (label, truth) in enumerate((("A", PAPER_A), ("B", PAPER_B))):
        rng = np.random.default_rng([seed, index, j])
        batches = [ref.generate(truth, 20, rng) for _ in range(REPEATS)]
        common = [["--data", write_csv(run.work / f"pop{label}{k}.csv", T), "--n", "6",
                   "--seed", "0"] for k, T in enumerate(batches)]
        fits = [run.call("fit", [*args, "--family", "gaussian"],
                         check_fit(T, 6, truth if truth.family == "gaussian" else None))
                for args, T in zip(common, batches)]
        run.call("compare", common[0],
                 check_compare(batches[0], 6, truth if truth.family == "kotz" else None))
        fitted = (model_from(fits[0]["estimates"], 6) if fits[0]
                  else ref.Model(n=6, beta=truth.beta, xi=truth.xi))
        params = ["--n", "6", "--beta", num(fitted.beta[0, 0]), "--xi", triangle(fitted.xi)]
        for k in range(REPEATS):
            run.call("sample", [*params, "--m", "2", "--count", "2000",
                                "--seed", str(sample_seed("paper-k20", j, k))],
                     check_sample(fitted, 2000), amount=2000)
            rows = ref.generate(fitted, 2000, rng)
            run.call("density", [*params, "--data", write_csv(run.work / f"rows{label}.csv", rows)],
                     check_density(rows, fitted, ref.BRANCH), amount=2000)


def bulk_round(run: Runner, seed: int, index: int) -> None:
    """K = 2000 Kotz populations with full beta: REPEATS pairs of a sample
    and a density (of the population, then of two more batches), with a fit
    of the first two batches and a serial compare of the first after them.

    Interleaving the cheap calls with the long ones spreads each command's
    calls over the whole run, so a few seconds of a slower host weigh
    less in any one command's total."""
    K = 2000
    rng = np.random.default_rng([seed, index])
    T = ref.generate(BULK, K, rng)
    data = write_csv(run.work / "bulk.csv", T)
    params = ["--n", "8", "--beta", triangle(BULK.beta), "--xi", triangle(BULK.xi),
              "--family", "kotz", "--q", num(BULK.q), "--r", num(BULK.r), "--s", num(BULK.s)]
    batches = [(T, data)]
    for k in range(1, REPEATS):
        rows = ref.generate(BULK, K, rng)
        batches.append((rows, write_csv(run.work / f"rows{k}.csv", rows)))
    for k, (rows, path) in enumerate(batches):
        run.call("sample", [*params, "--m", "3", "--count", str(K),
                            "--seed", str(sample_seed("bulk-k2000", 0, k))],
                 check_sample(BULK, K), amount=K)
        run.call("density", [*params, "--data", path, "--convention", ref.AS_PUBLISHED],
                 check_density(rows, BULK, ref.AS_PUBLISHED), amount=K)
        if k < 2:
            run.call("fit", ["--data", path, "--n", "8", "--seed", "0", "--family", "gaussian"],
                     check_fit(rows, 8, None))
        else:
            run.call("compare", ["--data", data, "--n", "8", "--seed", "0", "--s-grid", "1,1.5"],
                     check_compare(T, 8, None))


WORKLOADS = {"paper-k20": (paper_round, 20, PAPER_A),
             "bulk-k2000": (bulk_round, 2000, BULK)}


def run_rounds(round_fn, run: Runner, seed: int, seconds: float | None = None,
               count: int | None = None) -> list[float]:
    """Rounds 0, 1, ... until ``count`` are done or, timed, while starting one
    more ends nearer to ``seconds`` than stopping does."""
    durations: list[float] = []
    start = time.perf_counter()
    while count is None or len(durations) < count:
        if count is None and durations and (time.perf_counter() - start
                                            + 0.5 * statistics.median(durations) > seconds):
            break
        t0 = time.perf_counter()
        round_fn(run, seed, len(durations))
        durations.append(time.perf_counter() - t0)
    return durations


def fresh_import(flags: list[str], code: str) -> subprocess.CompletedProcess:
    prog = f"import sys, time; sys.path.insert(0, {str(SRC)!r}); {code}"
    return subprocess.run([sys.executable, *flags, "-c", prog], capture_output=True,
                          text=True, timeout=120, check=True, cwd=ROOT)


def setup_seconds() -> float:
    """Median wall time of ``import matrixbs.cli`` in fresh interpreters."""
    code = "t = time.perf_counter(); import matrixbs.cli; print(time.perf_counter() - t)"
    return statistics.median(float(fresh_import([], code).stdout.split()[-1])
                             for _ in range(SETUP_REPEATS))


def import_times() -> dict:
    """Cumulative import times in ms, from ``-X importtime``; 0 for a module
    that ``import matrixbs.cli`` no longer imports."""
    samples = {key: [] for key in IMPORT_MODULES}
    for _ in range(IMPORT_PROBES):
        log = fresh_import(["-X", "importtime"], "import matrixbs.cli").stderr
        cumulative = {}
        for line in log.splitlines():
            match = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)", line)
            if match:
                cumulative[match.group(3)] = int(match.group(2)) / 1000.0
        for key, module in IMPORT_MODULES.items():
            samples[key].append(cumulative.get(module, 0.0))
    return {key: statistics.median(vals) for key, vals in samples.items()}


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus the largest peak of any
    process the CLI started, such as a pool worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(run: Runner) -> dict:
    """Work over wall time summed across the run's calls of each command.

    Totals, not per-call medians or minima: the host's speed drifts while
    a run lasts, and a total moves in proportion to the share of time spent
    slow (README.md gives the measurements).
    """
    def total(kind, index):
        return sum(call[index] for call in run.calls[kind])

    rss = peak_rss_mib()
    return {
        "setup_s": setup_seconds(),
        "sample_draws_per_s": total("sample", 1) / total("sample", 0),
        "density_rows_per_s": total("density", 1) / total("density", 0),
        "fit_s": total("fit", 0) / len(run.calls["fit"]),
        "compare_s": total("compare", 0) / len(run.calls["compare"]),
        "peak_rss_mib": rss,
    }


def traced(run: Runner, workload: str, seed: int, seconds: float) -> dict:
    """Untraced rounds for half the time, the same rounds traced, then the
    per-layer figures and the tracing overhead."""
    from matrixbs import fit as fit_module
    from matrixbs.kernels import gaussian_kernel

    round_fn, K, model = WORKLOADS[workload]
    T = ref.generate(model, K, np.random.default_rng([seed, 0, 0]))
    beta = 0.9 * float(np.linalg.eigvalsh(T)[:, 0].min())
    probe = []
    for _ in range(5 if hasattr(fit_module, "loglik") else 0):
        start = time.perf_counter()
        fit_module.loglik(T, model.n, beta, model.xi, gaussian_kernel(model.n, model.m))
        probe.append(time.perf_counter() - start)

    plain = run_rounds(round_fn, run, seed, seconds=seconds / 2)
    run.tracer = tracer = Tracer()
    tracer.install()
    try:
        with_spans = run_rounds(round_fn, run, seed, count=len(plain))
    finally:
        tracer.uninstall()
        run.tracer = None
    metrics = layer_metrics(tracer.spans, len(with_spans))
    metrics["fit.loglik.ms_per_call"] = statistics.median(probe) * 1e3 if probe else None
    metrics["trace.overhead_pct"] = 100.0 * (sum(with_spans) / sum(plain) - 1.0)
    metrics.update(import_times())
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl")
    absent = sorted(set(tracer.absent) | {k for k, v in metrics.items() if v is None})
    if absent:
        print(f"absent: {', '.join(absent)}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "matrixbs" / "cli.py").is_file():
        print(f"no matrixbs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import matrixbs.cli

    if Path(matrixbs.cli.__file__).resolve().parent != SRC / "matrixbs":
        print(f"matrixbs imported from {matrixbs.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    problems = ref.self_test()
    if problems:
        print("reference self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    run = Runner(matrixbs.cli.main, work)
    try:
        if args.trace:
            metrics = traced(run, args.workload, args.seed, args.seconds)
            units = LAYER_UNITS
        else:
            round_fn = WORKLOADS[args.workload][0]
            run_rounds(round_fn, run, args.seed, seconds=args.seconds)
            metrics = end_to_end(run)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for kind, calls in run.calls.items():
        print(f"{kind}: " + " ".join(f"{dt:.3f}" for dt, _ in calls), file=sys.stderr)
    result = {"correct": run.wrong == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": metrics.get(name), "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
