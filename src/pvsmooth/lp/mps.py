"""Fixed-format MPS interchange for :class:`LpProblem`.

Classical MPS has no objective sense, so ``* SENSE: MAX`` is written as a
comment for maximize problems; readers missing the comment assume minimize.
The objective constant rides on the objective row's RHS entry, negated, per
the usual convention.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from ..errors import MpsFormatError
from .problem import LpProblem, build_problem

_REL_TO_TYPE = {"<=": "L", ">=": "G", "=": "E"}
_TYPE_TO_REL = {"L": "<=", "G": ">=", "E": "="}
_NAME_RE = re.compile(r"[^A-Za-z0-9_]")


def _short_names(originals: list[str], fallback_prefix: str) -> list[str]:
    """Map identifiers to unique MPS names of at most 8 characters."""
    out: list[str] = []
    seen: set[str] = set()
    for k, raw in enumerate(originals):
        name = _NAME_RE.sub("", raw)[:8].upper()
        if not name or name in seen:
            name = f"{fallback_prefix}{k + 1:07d}"
        out.append(name)
        seen.add(name)
    return out


def _num(v: float) -> str:
    return f"{v:.15g}"


def _data_line(f2: str, f3: str, f4: str, f5: str = "", f6: str = "") -> str:
    line = f"    {f2:<8}  {f3:<8}  {f4}"
    if f5:
        line = f"{line:<38}  {f5:<8}  {f6}"
    return line


def render_mps(problem: LpProblem) -> str:
    col_names = _short_names(list(problem.col_names), "C")
    row_names = _short_names(list(problem.row_names), "R")
    obj_name = "OBJ"
    while obj_name in row_names:
        obj_name = "X" + obj_name  # never more than a few collisions

    lines: list[str] = []
    if problem.sense == "maximize":
        lines.append("* SENSE: MAX")
    lines.append(f"NAME          {_NAME_RE.sub('', problem.name)[:8].upper() or 'LP'}")

    lines.append("ROWS")
    lines.append(f" N  {obj_name}")
    for relation, rname in zip(problem.relations, row_names):
        lines.append(f" {_REL_TO_TYPE[relation]}  {rname}")

    # column-major entries, one coefficient per line
    lines.append("COLUMNS")
    by_col = problem.A.tocsc()
    indptr, row_of, vals = by_col.indptr.tolist(), by_col.indices.tolist(), by_col.data.tolist()
    for j, (cname, cost) in enumerate(zip(col_names, problem.objective.tolist())):
        if cost != 0.0:
            lines.append(_data_line(cname, obj_name, _num(cost)))
        for k in range(indptr[j], indptr[j + 1]):
            lines.append(_data_line(cname, row_names[row_of[k]], _num(vals[k])))

    lines.append("RHS")
    if problem.objective_offset != 0.0:
        lines.append(_data_line("RHS", obj_name, _num(-problem.objective_offset)))
    for rname, rhs in zip(row_names, problem.rhs.tolist()):
        if rhs != 0.0:
            lines.append(_data_line("RHS", rname, _num(rhs)))

    lines.append("RANGES")

    lines.append("BOUNDS")
    for j in range(problem.n_vars):
        lo = problem.lower[j]
        hi = problem.upper[j]
        cname = col_names[j]
        if lo == hi:
            lines.append(f" FX {'BND':<8}  {cname:<8}  {_num(lo)}")
            continue
        lo_finite = math.isfinite(lo)
        hi_finite = math.isfinite(hi)
        if not lo_finite and not hi_finite:
            lines.append(f" FR {'BND':<8}  {cname}")
            continue
        if not lo_finite:
            lines.append(f" MI {'BND':<8}  {cname}")
        elif lo != 0.0:
            lines.append(f" LO {'BND':<8}  {cname:<8}  {_num(lo)}")
        if hi_finite:
            lines.append(f" UP {'BND':<8}  {cname:<8}  {_num(hi)}")

    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def write_mps(problem: LpProblem, path) -> None:
    Path(path).write_text(render_mps(problem), encoding="ascii")


def _pairs(tokens: list[str], line_no: int) -> list[tuple[str, float]]:
    if len(tokens) % 2 != 0 or not tokens:
        raise MpsFormatError(f"line {line_no}: expected name/value pairs, got {len(tokens)} fields")
    out = []
    for k in range(0, len(tokens), 2):
        try:
            out.append((tokens[k], float(tokens[k + 1])))
        except ValueError as exc:
            raise MpsFormatError(f"line {line_no}: bad numeric field {tokens[k + 1]!r}") from exc
    return out


def parse_mps(text: str) -> LpProblem:
    sense = "minimize"
    name = "LP"
    section = None
    row_types: dict[str, str] = {}
    row_order: list[str] = []
    obj_row: str | None = None
    col_order: list[str] = []
    col_index: dict[str, int] = {}
    obj_coeffs: dict[int, float] = {}
    entries: dict[str, dict[int, float]] = {}
    rhs: dict[str, float] = {}
    offset = 0.0
    bounds: dict[int, list[float]] = {}
    saw = {"ROWS": False, "COLUMNS": False, "RHS": False}
    ended = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("*"):
            if "SENSE:" in raw and "MAX" in raw.upper():
                sense = "maximize"
            continue
        if not raw.strip():
            continue
        if not raw[0].isspace():
            tokens = raw.split()
            keyword = tokens[0].upper()
            if keyword == "NAME":
                name = tokens[1] if len(tokens) > 1 else "LP"
                continue
            if keyword == "ENDATA":
                ended = True
                break
            if keyword not in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS"):
                raise MpsFormatError(f"line {line_no}: malformed section header {tokens[0]!r}")
            section = keyword
            if keyword in saw:
                saw[keyword] = True
            continue

        tokens = raw.split()
        if section == "ROWS":
            if len(tokens) != 2:
                raise MpsFormatError(f"line {line_no}: ROWS entry needs type and name")
            rtype, rname = tokens[0].upper(), tokens[1]
            if rtype == "N":
                if obj_row is not None:
                    raise MpsFormatError(f"line {line_no}: multiple objective (N) rows")
                obj_row = rname
            elif rtype in _TYPE_TO_REL:
                if rname in row_types:
                    raise MpsFormatError(f"line {line_no}: duplicate row {rname!r}")
                row_types[rname] = rtype
                row_order.append(rname)
            else:
                raise MpsFormatError(f"line {line_no}: unknown row type {tokens[0]!r}")
        elif section == "COLUMNS":
            cname = tokens[0]
            if cname not in col_index:
                col_index[cname] = len(col_order)
                col_order.append(cname)
            j = col_index[cname]
            for rname, val in _pairs(tokens[1:], line_no):
                if rname == obj_row:
                    if j in obj_coeffs:
                        raise MpsFormatError(f"line {line_no}: duplicate objective entry for {cname!r}")
                    obj_coeffs[j] = val
                elif rname in row_types:
                    row_entries = entries.setdefault(rname, {})
                    if j in row_entries:
                        raise MpsFormatError(f"line {line_no}: duplicate entry {cname!r} in row {rname!r}")
                    row_entries[j] = val
                else:
                    raise MpsFormatError(f"line {line_no}: entry for undeclared row {rname!r}")
        elif section == "RHS":
            for rname, val in _pairs(tokens[1:], line_no):
                if rname == obj_row:
                    offset = -val
                elif rname in row_types:
                    rhs[rname] = val
                else:
                    raise MpsFormatError(f"line {line_no}: RHS for undeclared row {rname!r}")
        elif section == "RANGES":
            raise MpsFormatError(f"line {line_no}: RANGES entries are not supported")
        elif section == "BOUNDS":
            key = tokens[0].upper()
            if key in ("UP", "LO", "FX"):
                if len(tokens) != 4:
                    raise MpsFormatError(f"line {line_no}: bound {key} needs set, column and value")
                cname, sval = tokens[2], tokens[3]
            elif key in ("FR", "MI", "PL"):
                if len(tokens) != 3:
                    raise MpsFormatError(f"line {line_no}: bound {key} needs set and column")
                cname, sval = tokens[2], ""
            else:
                raise MpsFormatError(f"line {line_no}: unknown bound key {tokens[0]!r}")
            if cname not in col_index:
                raise MpsFormatError(f"line {line_no}: bound on undeclared column {cname!r}")
            j = col_index[cname]
            bnd = bounds.setdefault(j, [0.0, float("inf")])
            if key == "UP":
                bnd[1] = float(sval)
            elif key == "LO":
                bnd[0] = float(sval)
            elif key == "FX":
                bnd[0] = bnd[1] = float(sval)
            elif key == "FR":
                bnd[0], bnd[1] = float("-inf"), float("inf")
            elif key == "MI":
                bnd[0] = float("-inf")
            # PL is the default upper bound; nothing to do
        else:
            raise MpsFormatError(f"line {line_no}: data before any section header")

    if not ended:
        raise MpsFormatError("missing ENDATA")
    if not saw["ROWS"]:
        raise MpsFormatError("missing ROWS section")
    if not saw["COLUMNS"]:
        raise MpsFormatError("missing COLUMNS section")
    if obj_row is None:
        raise MpsFormatError("no objective (N) row declared")

    n = len(col_order)
    objective = [obj_coeffs.get(j, 0.0) for j in range(n)]
    bound_list = [tuple(bounds.get(j, [0.0, float("inf")])) for j in range(n)]
    rows = []
    for rname in row_order:
        coeffs = sorted(entries.get(rname, {}).items())
        rows.append((list(coeffs), _TYPE_TO_REL[row_types[rname]], rhs.get(rname, 0.0)))
    return build_problem(
        sense,
        bound_list,
        rows,
        objective,
        offset=offset,
        col_names=col_order,
        row_names=row_order,
        name=name,
    )


def read_mps(path) -> LpProblem:
    return parse_mps(Path(path).read_text(encoding="ascii"))
