"""Fixed-format MPS interchange for :class:`LpProblem`.

Classical MPS has no objective sense, so ``* SENSE: MAX`` is written as a
comment for maximize problems; readers missing the comment assume minimize.
The objective constant rides on the objective row's RHS entry, negated, per
the usual convention.

Both directions work on whole sections as arrays: the writer formats each
distinct value and pads each name once, and the reader splits each run of
data lines once and checks it with array operations.
"""

from __future__ import annotations

import re
from itertools import chain, count, repeat
from pathlib import Path

import numpy as np

from ..errors import MpsFormatError
from .problem import CsrRows, LpProblem, build_problem

_REL_TO_TYPE = {"<=": "L", ">=": "G", "=": "E"}
_TYPE_TO_REL = {"L": "<=", "G": ">=", "E": "="}
#: characters a name keeps; the newline separates names sanitised together
_NAME_RE = re.compile(r"[^A-Za-z0-9_\n]")
_SECTIONS = ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS")
#: the newline before a header or comment line, which starts with no blank
_MARK_RE = re.compile(r"\n(?=\S)")
#: line breaks of str.splitlines other than "\n"
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _short_names(originals, fallback_prefix: str) -> list[str]:
    """Map identifiers to unique MPS names of at most 8 characters."""
    if not originals:
        return []
    joined = "\n".join(originals)
    if joined.count("\n") >= len(originals):
        # a name holds a newline, which sanitising drops anyway
        joined = "\n".join(name.replace("\n", "") for name in originals)
    out = [name[:8] for name in _NAME_RE.sub("", joined).upper().split("\n")]
    distinct = set(out)
    if len(distinct) == len(out) and "" not in distinct:
        return out
    seen: set[str] = set()
    for k, name in enumerate(out):
        if not name or name in seen:
            # a fallback may already be the name of an earlier entry
            j = k + 1
            while (name := f"{fallback_prefix}{j:07d}") in seen:
                j += 1
            out[k] = name
        seen.add(name)
    return out


def _num(v: float) -> str:
    return f"{v:.15g}"


def _text(values) -> np.ndarray:
    """Each value as written, formatted once per distinct bit pattern so
    that -0.0 stays apart from 0.0."""
    bits, inverse = np.unique(
        np.ascontiguousarray(values, dtype=float).view(np.int64), return_inverse=True
    )
    return np.array([_num(v) for v in bits.view(float).tolist()], dtype=object)[inverse.ravel()]


def _padded(names, prefix: str = "") -> np.ndarray:
    return np.array([f"{prefix}{name:<8}  " for name in names], dtype=object)


def _lines(*fields) -> str:
    """Lines made of ``fields``, each a string or an array with one entry
    per line, joined without building each line on its own."""
    count = max(len(field) for field in fields if not isinstance(field, str))
    table = np.empty((count, len(fields) + 1), dtype=object)
    for k, field in enumerate(fields):
        table[:, k] = field
    table[:, -1] = "\n"
    return "".join(table.ravel().tolist())


def render_mps(problem: LpProblem) -> str:
    col_names = _short_names(problem.col_names, "C")
    row_names = _short_names(problem.row_names, "R")
    # OBJ, XOBJ, ... while they fit in 8 characters, then numbered names
    taken = set(row_names)
    candidates = chain(("X" * k + "OBJ" for k in range(6)), (f"O{j:07d}" for j in count()))
    obj_name = next(name for name in candidates if name not in taken)
    n, m = problem.n_vars, problem.n_rows
    col_pad = _padded(col_names)
    row_pad = _padded(row_names + [obj_name])  # the objective row is number m

    head = "* SENSE: MAX\n" if problem.sense == "maximize" else ""
    head += f"NAME          {_NAME_RE.sub('', problem.name)[:8].upper() or 'LP'}\n"
    head += f"ROWS\n N  {obj_name}\n"
    types = np.array([f" {_REL_TO_TYPE[rel]}  " for rel in problem.relations], dtype=object)
    rows = _lines(types, np.array(row_names, dtype=object))

    # column-major entries, one coefficient per line, each column's
    # objective entry ahead of its constraint entries
    by_col = problem.A.tocsc()
    costed = np.flatnonzero(problem.objective)
    col_of = np.concatenate([costed, np.repeat(np.arange(n), np.diff(by_col.indptr))])
    order = np.argsort(col_of, kind="stable")
    row_of = np.concatenate([np.full(len(costed), m), by_col.indices])[order]
    value = np.concatenate([problem.objective[costed], by_col.data])[order]
    columns = _lines(_padded(col_names, "    ")[col_of[order]], row_pad[row_of], _text(value))

    with_rhs = np.flatnonzero(problem.rhs != 0.0)
    rhs_rows, rhs_values = with_rhs, problem.rhs[with_rhs]
    if problem.objective_offset != 0.0:
        rhs_rows = np.concatenate([[m], rhs_rows])
        rhs_values = np.concatenate([[-problem.objective_offset], rhs_values])
    rhs = _lines("    RHS       ", row_pad[rhs_rows], _text(rhs_values))

    # at most two lines per column: FX, FR, MI or LO, then UP
    lo, hi = problem.lower, problem.upper
    fixed = lo == hi
    free = ~fixed & ~np.isfinite(lo) & ~np.isfinite(hi)
    minus = ~fixed & ~free & ~np.isfinite(lo)
    low = ~fixed & ~free & np.isfinite(lo) & (lo != 0.0)
    up = ~fixed & ~free & np.isfinite(hi)
    names = np.array(col_names, dtype=object)
    lines = np.empty((n, 2), dtype=object)
    lines[fixed, 0] = " FX BND       " + col_pad[fixed] + _text(lo[fixed])
    lines[free, 0] = " FR BND       " + names[free]
    lines[minus, 0] = " MI BND       " + names[minus]
    lines[low, 0] = " LO BND       " + col_pad[low] + _text(lo[low])
    lines[up, 1] = " UP BND       " + col_pad[up] + _text(hi[up])
    bounds = _lines(lines[np.column_stack([fixed | free | minus | low, up])])

    return "".join(
        [head, rows, "COLUMNS\n", columns, "RHS\n", rhs, "RANGES\nBOUNDS\n", bounds, "ENDATA\n"]
    )


def write_mps(problem: LpProblem, path) -> None:
    Path(path).write_text(render_mps(problem), encoding="ascii")


def _floats(tokens) -> tuple[np.ndarray, int]:
    """The tokens as floats, and the position of the first that is not a
    number, or -1."""
    try:
        return np.fromiter(map(float, tokens), dtype=float, count=len(tokens)), -1
    except ValueError:
        for k, token in enumerate(tokens):
            try:
                float(token)
            except ValueError:
                return np.zeros(len(tokens)), k
        raise


def _upper(tokens) -> np.ndarray:
    """The tokens in upper case, converted in one call."""
    return np.array("\n".join(tokens).upper().splitlines(), dtype=object)


def _repeats(keys: np.ndarray) -> np.ndarray:
    """True where a key already occurred earlier in ``keys``."""
    order = np.argsort(keys, kind="stable")
    out = np.zeros(len(keys), dtype=bool)
    out[order[1:][keys[order[1:]] == keys[order[:-1]]]] = True
    return out


def _last(keys: np.ndarray) -> np.ndarray:
    """Positions of the last occurrence of each distinct key."""
    _, first_from_end = np.unique(keys[::-1], return_index=True)
    return len(keys) - 1 - first_from_end


class _Faults:
    """Faults of one run of data lines; :meth:`raise_first` raises the one
    the line-by-line reading would meet first.

    Each check flags items (lines or name/value pairs) in file order. Within
    a line, checks of a lower stage come first, and pairs in their order.
    """

    def __init__(self, line_no: np.ndarray) -> None:
        self.line_no = line_no
        self.found: list[tuple[int, int, int, str]] = []

    def check(self, bad, line, stage: int, message) -> None:
        """``line[k]`` is the line of item ``k``, ``message(k)`` its text."""
        if np.any(bad):
            k = int(np.argmax(bad))
            self.found.append((int(line[k]), stage, k, message(k)))

    def raise_first(self) -> None:
        if self.found:
            line, _, _, message = min(self.found)
            raise MpsFormatError(f"line {self.line_no[line]}: {message}")


class _Reader:
    """Parse state, fed header lines and runs of data lines in file order."""

    def __init__(self) -> None:
        self.sense = "minimize"
        self.name = "LP"
        self.section: str | None = None
        self.saw: set[str] = set()
        self.ended = False
        self.obj_row: str | None = None
        self.row_names: list[str] = []
        self.relations: list[str] = []
        self.row_index: dict[str, int] = {}
        self.col_index: dict[str, int] = {}
        self.entry_keys: list[np.ndarray] = []  # row << 32 | column
        self.entry_vals: list[np.ndarray] = []
        self.cost_cols: list[np.ndarray] = []
        self.cost_vals: list[np.ndarray] = []
        self.rhs_rows: list[np.ndarray] = []
        self.rhs_vals: list[np.ndarray] = []
        self.offset = 0.0
        # per end of the box (lower, upper): the columns and values set, in file order
        self.bound_cols: tuple[list[np.ndarray], ...] = ([], [])
        self.bound_vals: tuple[list[np.ndarray], ...] = ([], [])

    def mark(self, line: str, line_no: int) -> bool:
        """A comment or header line; False once ENDATA is read."""
        if line.startswith("*"):
            if "SENSE:" in line and "MAX" in line.upper():
                self.sense = "maximize"
            return True
        tokens = line.split()
        keyword = tokens[0].upper()
        if keyword == "NAME":
            self.name = tokens[1] if len(tokens) > 1 else "LP"
        elif keyword == "ENDATA":
            self.ended = True
            return False
        elif keyword in _SECTIONS:
            self.section = keyword
            self.saw.add(keyword)
        else:
            raise MpsFormatError(f"line {line_no}: malformed section header {tokens[0]!r}")
        return True

    def data(self, chunk: str, first_line: int) -> None:
        """Data lines ``chunk``, the first of them numbered ``first_line``."""
        lines = chunk.split("\n")
        counts = np.fromiter(map(len, map(str.split, lines)), dtype=np.int64, count=len(lines))
        del lines  # free the line strings before the tokens are made
        nonblank = np.flatnonzero(counts)
        if not len(nonblank):
            return
        line_no = first_line + nonblank
        if self.section is None:
            raise MpsFormatError(f"line {line_no[0]}: data before any section header")
        if self.section == "RANGES":
            raise MpsFormatError(f"line {line_no[0]}: RANGES entries are not supported")
        counts = counts[nonblank]
        tokens = np.array(chunk.split(), dtype=object)
        start = np.cumsum(counts) - counts
        faults = _Faults(line_no)
        if self.section == "ROWS":
            self._rows(tokens, start, counts, faults)
        elif self.section == "BOUNDS":
            self._bounds(tokens, start, counts, faults)
        else:
            self._pairs(tokens, start, counts, faults)

    def _rows(self, tokens, start, counts, faults: _Faults) -> None:
        lines = np.arange(len(counts))
        faults.check(counts != 2, lines, 0, lambda k: "ROWS entry needs type and name")
        lines = lines[counts == 2]
        raw_types = tokens[start[lines]]
        types = _upper(raw_types)
        names = tokens[start[lines] + 1]
        objective = types == "N"
        constraint = np.fromiter(map(_TYPE_TO_REL.__contains__, types), dtype=bool,
                                 count=len(types))
        faults.check(~objective & ~constraint, lines, 1,
                     lambda k: f"unknown row type {raw_types[k]!r}")
        # the first N row names the objective, unless an earlier run did
        extra_n = objective.copy()
        if self.obj_row is None and objective.any():
            extra_n[np.argmax(objective)] = False
        faults.check(extra_n, lines, 1, lambda k: "multiple objective (N) rows")
        new = names[constraint].tolist()
        everything = self.row_names + new
        first = dict(zip(reversed(everything), range(len(everything) - 1, -1, -1)))
        again = np.zeros(len(names), dtype=bool)
        again[constraint] = np.fromiter(
            map(first.__getitem__, new), dtype=np.int64, count=len(new)
        ) != np.arange(len(self.row_names), len(everything))
        faults.check(again, lines, 1, lambda k: f"duplicate row {names[k]!r}")
        faults.raise_first()

        if self.obj_row is None and objective.any():
            self.obj_row = names[np.argmax(objective)]
        self.row_names = everything
        self.relations += [_TYPE_TO_REL[t] for t in types[constraint]]
        self.row_index = first

    def _pairs(self, tokens, start, counts, faults: _Faults) -> None:
        """COLUMNS or RHS lines: a column or set name, then name/value pairs."""
        lines = np.arange(len(counts))
        paired = (counts % 2 == 1) & (counts > 1)
        faults.check(~paired, lines, 0,
                     lambda k: f"expected name/value pairs, got {counts[k] - 1} fields")
        n_pairs = np.where(paired, (counts - 1) // 2, 0)
        pair_line = np.repeat(lines, n_pairs)
        first_pair = np.cumsum(n_pairs) - n_pairs
        at = start[pair_line] + 1 + 2 * (np.arange(len(pair_line)) - first_pair[pair_line])
        row_tokens, value_tokens = tokens[at], tokens[at + 1]
        values, bad = _floats(value_tokens)
        faults.check(np.arange(len(values)) == bad, pair_line, 1,
                     lambda k: f"bad numeric field {value_tokens[k]!r}")
        lookup = dict(self.row_index)
        if self.obj_row is not None:
            lookup[self.obj_row] = -1  # the objective row is looked for first
        row = np.fromiter(map(lookup.get, row_tokens, repeat(-2)), dtype=np.int64,
                          count=len(row_tokens))
        cost = row == -1
        known = row >= 0

        if self.section == "RHS":
            faults.check(row == -2, pair_line, 2,
                         lambda k: f"RHS for undeclared row {row_tokens[k]!r}")
            faults.raise_first()
            if cost.any():
                self.offset = -values[cost][-1]
            self.rhs_rows.append(row[known])
            self.rhs_vals.append(values[known])
            return

        faults.check(row == -2, pair_line, 2,
                     lambda k: f"entry for undeclared row {row_tokens[k]!r}")
        # a column's lines follow each other, so names are looked up per run
        col_tokens = tokens[start]
        run = np.flatnonzero(np.concatenate([[True], col_tokens[1:] != col_tokens[:-1]]))
        heads = col_tokens[run].tolist()
        new = [name for name in dict.fromkeys(heads) if name not in self.col_index]
        self.col_index.update(zip(new, range(len(self.col_index), len(self.col_index) + len(new))))
        col = np.repeat(
            np.fromiter(map(self.col_index.__getitem__, heads), dtype=np.int64, count=len(heads)),
            np.diff(np.append(run, len(col_tokens))),
        )[pair_line]

        done = sum(map(len, self.cost_cols))
        again = np.zeros(len(row), dtype=bool)
        again[cost] = _repeats(np.concatenate(self.cost_cols + [col[cost]]))[done:]
        faults.check(again, pair_line, 2,
                     lambda k: f"duplicate objective entry for {col_tokens[pair_line[k]]!r}")
        keys = row[known] << 32 | col[known]
        done = sum(map(len, self.entry_keys))
        again = np.zeros(len(row), dtype=bool)
        again[known] = _repeats(np.concatenate(self.entry_keys + [keys]))[done:]
        faults.check(again, pair_line, 2, lambda k: (
            f"duplicate entry {col_tokens[pair_line[k]]!r} in row {row_tokens[k]!r}"))
        faults.raise_first()

        self.cost_cols.append(col[cost])
        self.cost_vals.append(values[cost])
        self.entry_keys.append(keys)
        self.entry_vals.append(values[known])

    def _bounds(self, tokens, start, counts, faults: _Faults) -> None:
        lines = np.arange(len(counts))
        raw_keys = tokens[start]
        keys = _upper(raw_keys)
        valued = np.array([key in ("UP", "LO", "FX") for key in keys], dtype=bool)
        bare = np.array([key in ("FR", "MI", "PL") for key in keys], dtype=bool)
        faults.check(~valued & ~bare, lines, 0, lambda k: f"unknown bound key {raw_keys[k]!r}")
        faults.check(valued & (counts != 4), lines, 0,
                     lambda k: f"bound {keys[k]} needs set, column and value")
        faults.check(bare & (counts != 3), lines, 0,
                     lambda k: f"bound {keys[k]} needs set and column")
        ok = np.flatnonzero((valued & (counts == 4)) | (bare & (counts == 3)))
        names = tokens[start[ok] + 2]
        col = np.fromiter(map(self.col_index.get, names, repeat(-1)), dtype=np.int64,
                          count=len(names))
        faults.check(col < 0, ok, 1, lambda k: f"bound on undeclared column {names[k]!r}")
        with_value = ok[valued[ok]]
        value_tokens = tokens[start[with_value] + 3]
        values, bad = _floats(value_tokens)
        faults.check(np.arange(len(values)) == bad, with_value, 2,
                     lambda k: f"bad numeric field {value_tokens[k]!r}")
        faults.raise_first()

        # LO, UP and FX set ends of the box to the value, FR frees both ends
        # and MI the lower one
        keys = keys[ok].tolist()
        value = np.zeros(len(ok))
        value[valued[ok]] = values
        frees = np.array([key in ("FR", "MI") for key in keys], dtype=bool)
        for end, setters, free in ((0, ("LO", "FX", "FR", "MI"), -np.inf),
                                   (1, ("UP", "FX", "FR"), np.inf)):
            sets = np.array([key in setters for key in keys], dtype=bool)
            self.bound_cols[end].append(col[sets])
            self.bound_vals[end].append(np.where(frees, free, value)[sets])

    def problem(self) -> LpProblem:
        if not self.ended:
            raise MpsFormatError("missing ENDATA")
        if "ROWS" not in self.saw:
            raise MpsFormatError("missing ROWS section")
        if "COLUMNS" not in self.saw:
            raise MpsFormatError("missing COLUMNS section")
        if self.obj_row is None:
            raise MpsFormatError("no objective (N) row declared")
        n, m = len(self.col_index), len(self.row_names)

        def joined(parts, dtype=float):
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        objective = np.zeros(n)
        objective[joined(self.cost_cols, np.int64)] = joined(self.cost_vals)

        rhs = np.zeros(m)
        rows, values = joined(self.rhs_rows, np.int64), joined(self.rhs_vals)
        last = _last(rows)
        rhs[rows[last]] = values[last]

        # the last bound line to set an end of a column's box wins
        bounds = np.zeros((n, 2))
        bounds[:, 1] = np.inf
        for end in (0, 1):
            cols, values = joined(self.bound_cols[end], np.int64), joined(self.bound_vals[end])
            last = _last(cols)
            bounds[cols[last], end] = values[last]

        keys = joined(self.entry_keys, np.int64)
        order = np.argsort(keys)
        keys, values = keys[order], joined(self.entry_vals)[order]
        rows = keys >> 32
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=m))])
        return build_problem(
            self.sense,
            bounds,
            CsrRows(indptr, keys & 0xFFFFFFFF, values, self.relations, rhs),
            objective,
            offset=self.offset,
            col_names=list(self.col_index),
            row_names=self.row_names,
            name=self.name,
        )


def parse_mps(text: str) -> LpProblem:
    if any(brk in text for brk in _OTHER_BREAKS):
        # lines are numbered as str.splitlines counts them
        text = "\n".join(text.splitlines())
    marks = [m.end() for m in _MARK_RE.finditer(text)]
    if text[:1].strip():
        marks.insert(0, 0)
    reader = _Reader()
    pos, line_no = 0, 1
    for start in marks:
        if start > pos:
            reader.data(text[pos:start], line_no)
            line_no += text.count("\n", pos, start)
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        if not reader.mark(text[start:end], line_no):
            break
        pos, line_no = end + 1, line_no + 1
    else:
        reader.data(text[pos:], line_no)
    return reader.problem()


def read_mps(path) -> LpProblem:
    return parse_mps(Path(path).read_text(encoding="ascii"))
