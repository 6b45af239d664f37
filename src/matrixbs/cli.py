"""Command-line interface.

Subcommands and the flags each takes; every subcommand also takes
``--config`` and ``--out``:

- ``density`` evaluates the matrix log density on a data file:
  ``--data --n --beta --xi --family --q --r --s --convention``;
- ``sample`` writes a synthetic batch:
  ``--n --m --count --seed --beta --xi --family --q --r --s``;
- ``fit`` is maximum likelihood for one family:
  ``--data --n --seed --family --s --convention --max-iter``;
- ``compare`` grades a Kotz power grid against the Gaussian baseline:
  ``--data --n --seed --s-grid --convention --max-iter``;
- ``validate`` runs the built-in oracle suite: ``--seed``.

A flag a subcommand does not take is a usage error, and so is a Kotz
parameter (``--q --r --s``) given without ``--family kotz``.  Options may also
come from a JSON config file via ``--config``; explicit flags win over
config values.  All randomness flows from ``--seed``.
Exit codes: 0 success, 1 validation failure, 2 usage or data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .density import Convention, logpdf_T
from .errors import (DataFormatError, DomainError, MatrixBsError, NotSpdError,
                     NotSymmetricError)
from .fit import DEFAULT_S_GRID, FitSpec, fit_mle, profile_s_grid
from .kernels import GAUSSIAN, KOTZ, KernelSpec, gaussian_kernel, kotz_kernel
from .sampling import sample_batch
from .transform import GbsParams

__all__ = ["main"]

CONVENTIONS = {
    "as-published": Convention.AS_PUBLISHED,
    "branch": Convention.BRANCH_NORMALIZED,
}


class UsageError(Exception):
    pass


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low (else a usage error)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its message for a non-integer
    return parse


_SEED = _int_at_least(0)
_POSITIVE = _int_at_least(1)


# a command validates one stack, the --data file's: these errors name its row
_ROW_FAULTS = {NotSpdError: "positive definite", NotSymmetricError: "symmetric",
               DomainError: "finite"}

_PARSER: argparse.ArgumentParser | None = None  # built by the first main() call


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matrixbs",
        description="Matrix-variate generalised Birnbaum-Saunders toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "config": dict(help="JSON file with defaults for this command's flags"),
        "out": dict(help="output file (.json for JSON, else text)"),
        "seed": dict(type=_SEED, help="seed for all randomness (default 0)"),
        "family": dict(choices=[GAUSSIAN, KOTZ], help="kernel family (default gaussian)"),
        "q": dict(type=float, help="Kotz power of the radial term (kotz family only)"),
        "r": dict(type=float, help="Kotz exponential rate (kotz family only)"),
        "s": dict(type=float, help="Kotz power s inside the exponential (kotz family only)"),
        "n": dict(type=_POSITIVE, help="degrees parameter of the model"),
        "convention": dict(choices=sorted(CONVENTIONS),
                           help="density normalisation convention (default branch)"),
        "data": dict(help="CSV or JSON batch file"),
        "beta": dict(help="scale: one value for beta*I or m(m+1)/2"
                          " upper-triangle values, comma separated"),
        "xi": dict(help="shape: one value for xi*I or m(m+1)/2"
                        " upper-triangle values, comma separated"),
        "m": dict(type=_POSITIVE, help="matrix order of each draw"),
        "count": dict(type=_POSITIVE, help="number of draws"),
        "s-grid": dict(help="comma-separated Kotz powers"
                            " (default 0.5,0.75,1,1.25,1.5,1.75,2,3,4,5)"),
        "max-iter": dict(type=int, help="Newton-step budget of both fits; the Gaussian"
                                        " counts its evaluations after the start (default 5000)"),
    }
    # each command takes exactly the flags its handler reads
    commands = {
        "density": ("evaluate the matrix log density per data row",
                    "config out family q r s n convention data beta xi"),
        "sample": ("draw a batch and write it to a file",
                   "config out seed family q r s n m count beta xi"),
        "fit": ("maximum-likelihood fit of one family",
                "config out seed family s n convention data max-iter"),
        "compare": ("profile Kotz powers against the Gaussian baseline",
                    "config out seed n convention data s-grid max-iter"),
        "validate": ("run the oracle cross-check suite", "config out seed"),
    }
    for command, (help_text, names) in commands.items():
        p = sub.add_parser(command, help=help_text)
        for name in names.split():
            p.add_argument(f"--{name}", **flags[name])
    return parser


def _merge_config(parser: argparse.ArgumentParser, argv: list[str],
                  args: argparse.Namespace) -> argparse.Namespace:
    """Fill flags not given on the command line from the --config file, parsing
    each value as its flag would be parsed (a bad value exits 2 with usage)."""
    if not getattr(args, "config", None):
        return args
    try:
        cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as bad:
        raise UsageError(f"cannot read config {args.config}: {bad}")
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = sorted(key for key in cfg if not hasattr(args, key.replace("-", "_")))
    if unknown:
        raise UsageError(f"config names options {args.command} does not take:"
                         f" {', '.join(unknown)}")
    extra = [f"--{key.replace('_', '-')}={value}" for key, value in cfg.items()
             if value is not None and getattr(args, key.replace("-", "_"), False) is None]
    return parser.parse_args([args.command, *extra, *argv[1:]])


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required for"
                             f" the {args.command} command")


def _parse_triangle(text, m: int, what: str) -> np.ndarray:
    try:
        vals = [float(v) for v in str(text).split(",")]
    except ValueError:
        raise UsageError(f"--{what} must be comma-separated numbers")
    if len(vals) == 1:
        return vals[0] * np.eye(m)
    expected = m * (m + 1) // 2
    if len(vals) != expected:
        raise UsageError(f"--{what} needs 1 or {expected} values for m={m},"
                         f" got {len(vals)}")
    M = np.zeros((m, m))
    it = iter(vals)
    for i in range(m):
        for j in range(i, m):
            v = next(it)
            M[i, j] = v
            M[j, i] = v
    return M


def _family(args, *names) -> str:
    """The family of args; each Kotz parameter in names is required with kotz, refused without."""
    family = args.family or GAUSSIAN
    for name in names:
        if (getattr(args, name) is None) == (family == KOTZ):
            raise UsageError(f"--{name} is required for the kotz family" if family == KOTZ
                             else f"--{name} applies only to --family kotz")
    return family


def _kernel(args, n: int, m: int) -> KernelSpec:
    if _family(args, "q", "r", "s") == GAUSSIAN:
        return gaussian_kernel(n, m)
    return kotz_kernel(args.q, args.r, args.s, n, m)


def _convention(args) -> Convention:
    return CONVENTIONS[args.convention or "branch"]


def _emit(args, text_payload, json_payload) -> None:
    """Write the JSON payload to a .json --out, else the text payload to
    --out or stdout.  Both are callables; only the one written is built.
    The JSON payload is an object to dump, or its text already dumped."""
    if args.out and args.out.lower().endswith(".json"):
        payload = json_payload()
        if not isinstance(payload, str):
            payload = json.dumps(payload, indent=2) + "\n"
        Path(args.out).write_text(payload, encoding="utf-8")
    elif args.out:
        Path(args.out).write_text(text_payload(), encoding="utf-8")
    else:
        sys.stdout.write(text_payload())


def _cmd_density(args) -> int:
    _require(args, "data", "n")
    batch = dataio.read_batch(args.data)
    m = batch.m
    if args.beta is None or args.xi is None:
        raise UsageError("density needs --beta and --xi")
    params = GbsParams(n=args.n, xi=_parse_triangle(args.xi, m, "xi"),
                       beta=_parse_triangle(args.beta, m, "beta"))
    kernel = _kernel(args, args.n, m)
    conv = _convention(args)
    values = logpdf_T(batch.matrices, params, kernel, conv)
    _emit(args, lambda: "".join(f"{v:.17g}\n" for v in values.tolist()),
          lambda: dataio.density_to_json(values, conv.value))
    return 0


def _cmd_sample(args) -> int:
    _require(args, "n", "m", "count", "seed", "out")
    m = args.m
    beta = _parse_triangle(args.beta, m, "beta") if args.beta is not None else np.eye(m)
    xi = _parse_triangle(args.xi, m, "xi") if args.xi is not None else np.eye(m)
    params = GbsParams(n=args.n, xi=xi, beta=beta)
    kernel = _kernel(args, args.n, m)
    batch = sample_batch(params, kernel, args.count, args.seed)
    dataio.write_batch(args.out, batch)
    return 0


def _fit_spec(args, family: str, s: float = 1.0) -> FitSpec:
    kwargs = {"family": family, "seed": args.seed if args.seed is not None else 0,
              "convention": _convention(args)}
    if family == KOTZ:
        kwargs["s"] = s
    if args.max_iter is not None:
        kwargs["max_iter"] = args.max_iter
    return FitSpec(**kwargs)


def _cmd_fit(args) -> int:
    _require(args, "data", "n")
    batch = dataio.read_batch(args.data)
    family = _family(args, "s")
    result = fit_mle(batch, _fit_spec(args, family, args.s), args.n)
    _emit(args, lambda: dataio.format_fit_text(result),
          lambda: dataio.fit_result_to_dict(result))
    return 0


def _cmd_compare(args) -> int:
    _require(args, "data", "n")
    batch = dataio.read_batch(args.data)
    if args.s_grid is not None:
        try:
            grid = [float(v) for v in str(args.s_grid).split(",")]
        except ValueError:
            raise UsageError("--s-grid must be comma-separated numbers")
    else:
        grid = list(DEFAULT_S_GRID)
    profile = profile_s_grid(batch, grid, args.n, spec=_fit_spec(args, KOTZ))
    _emit(args, lambda: dataio.format_profile_table(profile),
          lambda: dataio.profile_to_dict(profile))
    return 0


def _cmd_validate(args) -> int:
    from .validate import format_report, run_validation

    checks = run_validation(seed=args.seed if args.seed is not None else 0)
    report = format_report(checks)
    _emit(args, lambda: report, lambda: [{"name": c.name, "passed": c.passed,
                                          "detail": c.detail} for c in checks])
    if args.out:
        sys.stdout.write(report)
    return 0 if all(c.passed for c in checks) else 1


def main(argv=None) -> int:
    global _PARSER
    parser = _PARSER = _PARSER or _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    handlers = {"density": _cmd_density, "sample": _cmd_sample, "fit": _cmd_fit,
                "compare": _cmd_compare, "validate": _cmd_validate}
    try:
        args = _merge_config(parser, argv, args)
        return handlers[args.command](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MatrixBsError as err:
        fault = _ROW_FAULTS.get(type(err)) if err.row is not None else None
        if fault or isinstance(err, DataFormatError):
            detail = f"row {err.row + 1}: matrix is not {fault}" if fault else err
            print(f"data error in {getattr(args, 'data', '<input>')}: {detail}",
                  file=sys.stderr)
        else:
            print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
