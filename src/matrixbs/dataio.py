"""File formats: sample batches as CSV or JSON, fit reports, text tables.

CSV batches hold one matrix per row as the upper triangle in row-major
order under a ``t11,t12,...,tmm`` header, written with 17 significant
digits so values round-trip exactly.  JSON batches are an object with
``matrices`` plus optional provenance (a bare array of matrices is also
accepted).  The format is picked by file extension.  Reading checks only
what the format fixes; the consumer of a batch checks that each matrix is
finite, symmetric and positive definite, by linalg's one eigenvalue floor,
when it factors the stack.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import DataFormatError, MatrixBsError
from .fit import FitResult, ProfileResult
from .kernels import kernel_from_json, kernel_to_json
from .sampling import SampleBatch
from .transform import GbsParams

__all__ = ["density_to_json", "format_fit_text", "format_profile_table",
           "fit_result_to_dict", "profile_to_dict", "read_batch", "write_batch"]


def _triangle_pairs(m: int):
    return [(i, j) for i in range(m) for j in range(i, m)]


def _infer_m(n_cols: int) -> int:
    m = int(round((math.sqrt(8 * n_cols + 1) - 1) / 2))
    if m * (m + 1) // 2 != n_cols:
        raise DataFormatError(
            f"{n_cols} columns is not an upper-triangle count m(m+1)/2")
    return m


def _batch_to_csv(batch: SampleBatch) -> str:
    pairs = _triangle_pairs(batch.m)
    header = ",".join(f"t{i + 1}{j + 1}" for i, j in pairs)
    rows, cols = np.triu_indices(batch.m)  # row-major, the order of pairs
    upper = batch.matrices[:, rows, cols].ravel().tolist()
    line = ",".join(["%.17g"] * len(pairs))
    return header + "\n" + "\n".join([line] * batch.count) % tuple(upper) + "\n"


def _batch_from_csv(text: str) -> SampleBatch:
    lines = list(filter(None, map(str.strip, text.splitlines())))
    if not lines:
        raise DataFormatError("empty CSV file")
    header = [c.strip() for c in lines[0].split(",")]
    if not header or header[0] != "t11":
        raise DataFormatError("CSV header must list upper-triangle columns t11,t12,...")
    m = _infer_m(len(header))
    width = len(header)
    body = lines[1:]
    try:
        if any(line.count(",") != width - 1 for line in body):
            raise ValueError
        # one pass over every cell of the body joined into one line
        cells = ",".join(body).split(",")  # count=0 reads nothing of an empty body
        upper = np.fromiter(map(float, cells), float, count=len(body) * width)
    except ValueError:
        for k, line in enumerate(body):  # name the first bad row
            row = line.split(",")
            if len(row) != width:
                raise DataFormatError(f"row {k + 1}: expected {width} values, got {len(row)}")
            try:
                [float(c) for c in row]
            except ValueError as bad:
                raise DataFormatError(f"row {k + 1}: {bad}")
    upper = upper.reshape(len(body), width)
    mats = np.empty((len(body), m, m))
    i, j = np.triu_indices(m)  # row-major, the column order
    mats[:, i, j] = upper
    mats[:, j, i] = upper
    return SampleBatch(m=m, count=mats.shape[0], matrices=mats)


def _provenance_dict(batch: SampleBatch) -> dict | None:
    if batch.params is None and batch.kernel is None and batch.seed is None:
        return None
    prov: dict = {}
    if batch.params is not None:
        prov["n"] = batch.params.n
        prov["xi"] = batch.params.xi.tolist()
        prov["beta"] = batch.params.beta.tolist()
    if batch.kernel is not None:
        prov["kernel"] = kernel_to_json(batch.kernel)
    if batch.seed is not None:
        prov["seed"] = batch.seed
    return prov


def _json_numbers(values: np.ndarray) -> list[str]:
    """JSON's spelling of each entry: str(float), or NaN and -Infinity as
    json.dumps writes them."""
    flat = values.ravel().tolist()
    if np.isfinite(values).all():
        return list(map(repr, flat))
    return list(map(json.dumps, flat))


def _batch_to_json(batch: SampleBatch) -> str:
    """The text json.dumps(indent=2) gives, with the matrices block filled
    from one template: with indent, json.dumps runs its pure-Python encoder.
    An exactly symmetric stack has each (i, j) pair spelled once."""
    obj = {"m": batch.m, "count": batch.count, "matrices": []}
    prov = _provenance_dict(batch)
    if prov is not None:
        obj["provenance"] = prov
    m, mats = batch.m, batch.matrices
    row = "      [\n" + ",\n".join(["        %s"] * m) + "\n      ]"
    matrix = "    [\n" + ",\n".join([row] * m) + "\n    ]"
    bits = mats.view(np.uint64)  # -0.0 and 0.0 are spelled apart
    if np.array_equal(bits, np.swapaxes(bits, 1, 2)):
        i, j = np.triu_indices(m)
        pair = np.empty((m, m), dtype=np.intp)
        pair[i, j] = pair[j, i] = np.arange(i.size)
        upper = np.array(_json_numbers(mats[:, i, j]), dtype=object).reshape(batch.count, -1)
        values = upper[:, pair.ravel()].ravel().tolist()
    else:
        values = _json_numbers(mats)
    block = ",\n".join([matrix] * batch.count) % tuple(values)
    head, _, tail = json.dumps(obj, indent=2).partition('"matrices": []')
    return "".join([head, '"matrices": [\n', block, "\n  ]", tail, "\n"])


def density_to_json(values: np.ndarray, convention: str) -> str:
    """The text json.dumps({"logpdf": values, "convention": convention},
    indent=2) gives plus a newline, with the values filled from one template."""
    head, _, tail = json.dumps({"logpdf": [], "convention": convention},
                               indent=2).partition("[]")
    block = "[\n    " + ",\n    ".join(_json_numbers(values)) + "\n  ]" if values.size else "[]"
    return "".join([head, block, tail, "\n"])


def _batch_from_json(text: str) -> SampleBatch:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as bad:
        raise DataFormatError(f"invalid JSON: {bad}")
    if isinstance(obj, list):
        obj = {"matrices": obj}
    if not isinstance(obj, dict) or "matrices" not in obj:
        raise DataFormatError("JSON batch needs a 'matrices' array")
    try:
        mats = np.asarray(obj["matrices"], dtype=float)
    except (TypeError, ValueError) as bad:
        raise DataFormatError(f"matrices must be a K x m x m array of numbers: {bad}")
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise DataFormatError(f"matrices must be a K x m x m array, got {mats.shape}")
    batch = SampleBatch(m=mats.shape[1], count=mats.shape[0], matrices=mats)
    prov = obj.get("provenance")
    if prov is not None and not isinstance(prov, dict):
        raise DataFormatError("provenance must be an object")
    if prov:
        batch.seed = prov.get("seed")
        try:
            if "kernel" in prov and "n" in prov:
                batch.kernel = kernel_from_json(prov["kernel"], int(prov["n"]), batch.m)
            if {"n", "xi", "beta"} <= prov.keys():
                batch.params = GbsParams(n=int(prov["n"]),
                                         xi=np.asarray(prov["xi"], dtype=float),
                                         beta=np.asarray(prov["beta"], dtype=float))
        except (TypeError, ValueError, MatrixBsError) as bad:
            raise DataFormatError(f"malformed provenance: {bad}")
    return batch


def write_batch(path, batch: SampleBatch) -> None:
    """Write a batch as CSV or JSON depending on the file extension."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        path.write_text(_batch_to_json(batch), encoding="utf-8")
    else:
        path.write_text(_batch_to_csv(batch), encoding="utf-8")


def read_batch(path) -> SampleBatch:
    """Read a batch file, auto-detecting the format from the extension.

    Only the format is checked; the matrices come back as written.  The
    factorisation that uses them (the fit's eigh, the density's Cholesky)
    checks that each is finite, symmetric and above linalg's eigenvalue
    floor, so every command accepts the same rows.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    json_file = path.suffix.lower() == ".json"
    return _batch_from_json(text) if json_file else _batch_from_csv(text)


N_P_NOTE = ("n_p counts beta plus the upper triangle of the shape matrix"
            " (plus r and q for the Kotz family, as the paper counts them;"
            " r is pinned at 1/2, so q is the one free extra); BIC* penalises"
            " with the sample size K")


def fit_result_to_dict(result: FitResult) -> dict:
    return {
        "family": result.family,
        "s": result.s,
        "estimates": {
            "beta": result.beta,
            "xi": result.xi.tolist(),
            "r": result.r,
            "q": result.q,
        },
        "loglik": result.loglik_max,
        "n_params": result.n_params,
        "bic_star": result.bic_star,
        "converged": result.converged,
        "iterations": result.iterations,
        "seed": result.seed,
        "n": result.n,
        "m": result.m,
        "K": result.K,
        "convention": result.convention.value,
        "notes": N_P_NOTE,
    }


def format_fit_text(result: FitResult) -> str:
    lines = [
        f"family       {result.family}" + (f" (s = {result.s:g})" if result.s else ""),
        f"data         K = {result.K}, m = {result.m}, degrees n = {result.n}",
        f"beta         {result.beta:.8g}",
    ]
    for i in range(result.m):
        for j in range(i, result.m):
            lines.append(f"alpha{i + 1}{j + 1}      {result.xi[i, j]:.8g}")
    if result.r is not None:
        lines.append(f"r            {result.r:.8g}")
        lines.append(f"q            {result.q:.8g}")
    lines += [
        f"loglik       {result.loglik_max:.8g}  ({result.convention.value})",
        f"n_params     {result.n_params}",
        f"BIC*         {result.bic_star:.8g}",
        f"converged    {result.converged}  (iterations {result.iterations},"
        f" seed {result.seed})",
        f"note         {N_P_NOTE}",
    ]
    return "\n".join(lines) + "\n"


def profile_to_dict(profile: ProfileResult) -> dict:
    cols = list(profile.column_names())
    rows = []
    for row in profile.rows:
        entry = dict(zip(cols, profile.row_values(row)))
        entry["evidence"] = row.grade.value
        entry["converged"] = row.fit.converged
        rows.append(entry)
    return {
        "columns": cols,
        "baseline": fit_result_to_dict(profile.baseline),
        "rows": rows,
    }


def format_profile_table(profile: ProfileResult) -> str:
    """Aligned text table: one row per grid power plus the baseline row."""
    cols = list(profile.column_names()) + ["evidence"]
    base = profile.baseline
    base_upper = [base.xi[i, j] for i in range(base.m) for j in range(i, base.m)]
    base_cells = (["gaussian", f"{base.beta:.6g}"]
                  + [f"{v:.6g}" for v in base_upper] + ["-", "-", "0", "-"])
    table = [cols, base_cells]
    for row in profile.rows:
        vals = profile.row_values(row)
        cells = [f"{vals[0]:g}"] + [f"{v:.6g}" for v in vals[1:]]
        cells.append(row.grade.value if row.fit.converged else
                     f"{row.grade.value} (not converged)")
        table.append(cells)
    widths = [max(len(r[c]) for r in table) for c in range(len(cols))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in table]
    return "\n".join(lines) + "\n"
