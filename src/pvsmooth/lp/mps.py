"""Fixed-format MPS interchange for :class:`LpProblem`.

Classical MPS has no objective sense, so ``* SENSE: MAX`` is written as a
comment for maximize problems; readers missing the comment assume minimize.
The objective constant rides on the objective row's RHS entry, negated, per
the usual convention.

Both directions work in blocks of at most ``_BLOCK_LINES`` lines, so that
beyond the problem itself only one block's text, tokens and line tables are
held at a time. The writer formats each distinct value once per file and
pads each name once, then joins each block's lines from those tables:
:func:`write_mps` writes the blocks to the file as they come, and
:func:`render_mps` joins them into one string. The reader splits each
run of data lines with one ``str.split``, a marker past ASCII in place of
each line break: each marker is a token of its own, so the markers bound
each line's tokens and give its number. It checks the tokens with array
operations. :func:`read_mps` reads the file in byte
chunks sized to the block and cuts them at every ``_BLOCK_LINES``-th line
break, found with numpy, so no line becomes an object of its own. What the
sections have read so far is kept across blocks, so a block's work is in
proportion to the block, and a fault is reported at its line whatever the
block size. A file's byte past ASCII is a fault of its line too, and so is
a COLUMNS or RHS value that is not finite, or a bound that is NaN.

A column's lines may come back after another column's. Columns are numbered
by first appearance, so a run's entries are checked for duplicates against
the runs from the one that added its earliest returning column on, filtered
to its returning columns. In the files this module writes, a run's only
returning column is the one a block boundary split, so that is the run
before; in a file whose column comes back many runs later, the search
covers every entry since that column's run.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterator
from itertools import chain, count, repeat

import numpy as np
import scipy.sparse as sp

from ..errors import MpsFormatError
from .problem import CsrRows, LpProblem, build_problem

_REL_TO_TYPE = {"<=": "L", ">=": "G", "=": "E"}
_ROW_TYPE = {rel: f" {key}  " for rel, key in _REL_TO_TYPE.items()}
_BOUND_KEYS = np.array(
    [f" {key} BND       " for key in ("FX", "FR", "MI", "LO", "UP")], dtype=object
)
_TYPE_TO_REL = {"L": "<=", "G": ">=", "E": "="}
#: what a bound key does, as bits: LO, UP and FX set ends of the box to
#: their value, FR frees both ends and MI the lower one, and PL sets none
_VALUED, _SETS_LOWER, _SETS_UPPER, _FREES = 1, 2, 4, 8
_BOUND_ACTS = {
    "UP": _VALUED | _SETS_UPPER,
    "LO": _VALUED | _SETS_LOWER,
    "FX": _VALUED | _SETS_LOWER | _SETS_UPPER,
    "FR": _SETS_LOWER | _SETS_UPPER | _FREES,
    "MI": _SETS_LOWER | _FREES,
    "PL": 0,
}
#: characters a name keeps; the newline separates names sanitised together
_NAME_RE = re.compile(r"[^A-Za-z0-9_\n]")
_SECTIONS = ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS")
#: the newline before a header or comment line, which starts with no blank
_MARK_RE = re.compile(r"\n(?=\S)")
#: the ASCII line breaks of str.splitlines other than "\n"
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e"
_BREAK_RE = re.compile(r"\r\n?|[\v\f\x1c\x1d\x1e]")
#: a character past ASCII; a byte past ASCII decodes to one of U+DC80 to
#: U+DCFF with errors="surrogateescape"
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")
#: stands in for each line break of a data run: past ASCII, so in no token
#: of the run, and not whitespace to str.split
_LINE_MARK = "\x80"
#: at most this many lines are rendered, or read and parsed, at a time
_BLOCK_LINES = 1 << 15
#: a file is read this many bytes at a time per line of a block
_READ_BYTES_PER_LINE = 16


def _short_names(originals, fallback_prefix: str) -> list[str]:
    """Map identifiers to unique MPS names of at most 8 characters."""
    if not originals:
        return []
    joined = "\n".join(originals)
    if joined.count("\n") >= len(originals):
        # a name holds a newline, which sanitising drops anyway
        joined = "\n".join(name.replace("\n", "") for name in originals)
    out = _NAME_RE.sub("", joined).upper().split("\n")
    if max(map(len, out)) > 8:
        out = [name[:8] for name in out]
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


def _padded(names) -> np.ndarray:
    """The names, each at most 8 characters, padded to a 10-character field."""
    return np.fromiter(map(str.ljust, names, repeat(10)), dtype=object, count=len(names))


def _lines(count: int, *fields) -> Iterator[str]:
    """``count`` lines made of ``fields``, the last of which ends each line
    with its line break, in blocks of at most ``_BLOCK_LINES``. A field is
    a string, the same on every line, or a function from a slice of the
    lines to their strings; no line is built on its own."""
    for start in range(0, count, _BLOCK_LINES):
        lines = slice(start, min(start + _BLOCK_LINES, count))
        table = np.empty((lines.stop - start, len(fields)), dtype=object)
        for k, field in enumerate(fields):
            table[:, k] = field if isinstance(field, str) else field(lines)
        yield "".join(table.ravel().tolist())


def _pick(table: np.ndarray, index: np.ndarray):
    """The field whose entry on line ``k`` is ``table[index[k]]``."""
    return lambda lines: table[index[lines]]


def _blocks(problem: LpProblem) -> Iterator[str]:
    """The MPS text of ``problem`` in blocks of whole lines.

    A table is made just before the first section that reads it, a name is
    held bare or padded but not both, and each block looks up its own
    values, so little beyond the problem is held at once.
    """
    n, m = problem.n_vars, problem.n_rows
    names = _short_names(problem.row_names, "R")
    # OBJ, XOBJ, ... while they fit in 8 characters, then numbered names
    taken = set(names)
    candidates = chain(("X" * k + "OBJ" for k in range(6)), (f"O{j:07d}" for j in count()))
    obj_name = next(name for name in candidates if name not in taken)
    del taken
    yield "* SENSE: MAX\n" if problem.sense == "maximize" else ""
    yield f"NAME          {_NAME_RE.sub('', problem.name)[:8].upper() or 'LP'}\n"
    yield f"ROWS\n N  {obj_name}\n"
    types = np.fromiter(map(_ROW_TYPE.__getitem__, problem.relations), dtype=object, count=m)
    yield from _lines(m, types.__getitem__, np.array(names, dtype=object).__getitem__, "\n")
    row_pad = _padded([obj_name] + names)  # the objective is row 0
    names = _short_names(problem.col_names, "C")
    col_pad = _padded(names)

    # column-major entries, one coefficient per line, each column's
    # objective entry ahead of its constraint entries; A's explicit zeros
    # are kept and the objective's zeros dropped
    by_col = sp.vstack([sp.csr_matrix(problem.objective), problem.A], format="csc")
    col_of = np.repeat(np.arange(n), np.diff(by_col.indptr))
    row_of, value = by_col.indices, by_col.data

    rhs_values = np.concatenate([[-problem.objective_offset], problem.rhs])
    rhs_rows = np.flatnonzero(rhs_values)
    rhs_values = rhs_values[rhs_rows]

    # at most two lines per column: FX, FR, MI or LO, then UP
    lo, hi = problem.lower, problem.upper
    fixed = lo == hi
    free = ~fixed & ~np.isfinite(lo) & ~np.isfinite(hi)
    minus = ~fixed & ~free & ~np.isfinite(lo)
    low = ~fixed & ~free & np.isfinite(lo) & (lo != 0.0)
    up = ~fixed & ~free & np.isfinite(hi)
    key = np.full((n, 2), -1)  # each line's place in _BOUND_KEYS
    for k, has in enumerate([fixed, free, minus, low]):
        key[has, 0] = k
    key[up, 1] = 4
    bound_col = np.nonzero(key >= 0)[0]
    key = key[key >= 0]
    bound_values = np.where(key == 4, hi[bound_col], lo[bound_col])
    # FR and MI lines name the column bare and carry no value
    bare = (key == 1) | (key == 2)
    bound_names = np.concatenate([col_pad, np.array(names, dtype=object)[bound_col[bare]]])
    bound_col[bare] = n + np.arange(np.count_nonzero(bare))
    del names

    # each distinct value in the file is formatted once, with the line break
    # that follows it, by bit pattern so that -0.0 stays apart from 0.0; a
    # block looks its values up
    bits = np.unique(np.concatenate([value, rhs_values, bound_values]).view(np.int64))
    text = np.array([f"{v:.15g}\n" for v in bits.view(float).tolist()], dtype=object)

    def written(values):
        return lambda lines: text[np.searchsorted(bits, values[lines].view(np.int64))]

    bound_text = written(bound_values)
    yield "COLUMNS\n"
    yield from _lines(len(col_of), _pick("    " + col_pad, col_of), _pick(row_pad, row_of),
                      written(value))
    yield "RHS\n"
    yield from _lines(len(rhs_rows), "    RHS       ", _pick(row_pad, rhs_rows),
                      written(rhs_values))
    yield "RANGES\nBOUNDS\n"
    yield from _lines(len(key), _pick(_BOUND_KEYS, key), _pick(bound_names, bound_col),
                      lambda lines: np.where(bare[lines], "\n", bound_text(lines)))
    yield "ENDATA\n"


def render_mps(problem: LpProblem) -> str:
    return "".join(_blocks(problem))


def write_mps(problem: LpProblem, path) -> None:
    """Write ``problem`` to ``path`` block by block, never holding its whole text."""
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_blocks(problem))


def _floats(tokens: np.ndarray) -> np.ndarray:
    """The tokens as floats, each read as ``float`` reads it; a token that
    is not a number reads as NaN, which every caller rejects."""
    try:
        return tokens.astype(float)
    except ValueError:
        out = np.full(len(tokens), np.nan)
        for k, token in enumerate(tokens):
            try:
                out[k] = float(token)
            except ValueError:
                pass
        return out


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
        self.obj_row: str | None = None
        self.relations: list[str] = []
        self.row_index: dict[str, int] = {}  # constraint rows, in file order
        self.col_index: dict[str, int] = {}
        # per run of COLUMNS lines: its entries' keys, row << 32 | column with
        # row -1 for the objective, their values, and the first column it added
        self.entry_keys: list[np.ndarray] = []
        self.entry_vals: list[np.ndarray] = []
        self.first_col: list[int] = []
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
            return False
        elif keyword in _SECTIONS:
            self.section = keyword
            self.saw.add(keyword)
        else:
            raise MpsFormatError(f"line {line_no}: malformed section header {tokens[0]!r}")
        return True

    def data(self, chunk: str, first_line: int) -> None:
        """Data lines ``chunk``, the first of them numbered ``first_line``."""
        # _parse cut the run before any character past ASCII, so each marker
        # is a token of its own, and line k's tokens lie between marker k - 1
        # and marker k
        tokens = chunk.replace("\n", f" {_LINE_MARK} ").split()
        tokens = np.fromiter(tokens, dtype=object, count=len(tokens))
        ends = np.append(np.flatnonzero(tokens == _LINE_MARK), len(tokens))
        start = np.concatenate([[0], ends[:-1] + 1])
        counts = ends - start
        nonblank = np.flatnonzero(counts)
        if not len(nonblank):
            return
        line_no = first_line + nonblank
        if self.section is None:
            raise MpsFormatError(f"line {line_no[0]}: data before any section header")
        if self.section == "RANGES":
            raise MpsFormatError(f"line {line_no[0]}: RANGES entries are not supported")
        start, counts = start[nonblank], counts[nonblank]
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
        # a name that already has a place, from an earlier run or earlier in
        # this one, keeps it and repeats
        new = names[constraint].tolist()
        base = len(self.row_index)
        again = np.zeros(len(names), dtype=bool)
        again[constraint] = np.fromiter(
            map(self.row_index.setdefault, new, count(base)), dtype=np.int64, count=len(new)
        ) != np.arange(base, base + len(new))
        faults.check(again, lines, 1, lambda k: f"duplicate row {names[k]!r}")
        faults.raise_first()

        if self.obj_row is None and objective.any():
            self.obj_row = names[np.argmax(objective)]
        self.relations += map(_TYPE_TO_REL.__getitem__, types[constraint])

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
        values = _floats(value_tokens)
        faults.check(~np.isfinite(values), pair_line, 1,
                     lambda k: f"bad numeric field {value_tokens[k]!r}")
        row = np.fromiter(map(self.row_index.get, row_tokens, repeat(-2)), dtype=np.int64,
                          count=len(row_tokens))
        if self.obj_row is not None:
            row[row_tokens == self.obj_row] = -1  # the objective row is looked for first
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

        valid = row >= -1
        keys = row[valid] << 32 | col[valid]
        again = np.zeros(len(row), dtype=bool)
        again[valid] = self._seen(keys, col[valid], len(self.col_index) - len(new))
        faults.check(again, pair_line, 2, lambda k: (
            f"duplicate objective entry for {col_tokens[pair_line[k]]!r}" if row[k] == -1
            else f"duplicate entry {col_tokens[pair_line[k]]!r} in row {row_tokens[k]!r}"))
        faults.raise_first()

        self.first_col.append(len(self.col_index) - len(new))
        self.entry_keys.append(keys)
        self.entry_vals.append(values[valid])

    def _seen(self, keys: np.ndarray, col: np.ndarray, n_before: int) -> np.ndarray:
        """True where an entry key of this run occurred before, in this run
        or an earlier one. Only a column below ``n_before``, one an earlier
        run added, can repeat an earlier run's key, and as columns are
        numbered by first appearance, its entries lie in the runs from the
        one that added it on."""
        again = _repeats(keys)
        back = col < n_before
        if back.any():
            cols = np.unique(col[back])
            earlier = self.entry_keys[bisect_right(self.first_col, cols[0]) - 1 :]
            earlier = [ks[np.isin(ks & 0xFFFFFFFF, cols)] for ks in earlier]
            again[back] |= np.isin(keys[back], np.concatenate(earlier))
        return again

    def _bounds(self, tokens, start, counts, faults: _Faults) -> None:
        lines = np.arange(len(counts))
        raw_keys = tokens[start]
        keys = _upper(raw_keys)
        acts = np.fromiter(map(_BOUND_ACTS.get, keys, repeat(-1)), dtype=np.int64,
                           count=len(keys))
        valued = (acts >= 0) & (acts & _VALUED != 0)
        bare = (acts >= 0) & (acts & _VALUED == 0)
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
        values = _floats(value_tokens)  # an infinite bound is no bound
        faults.check(np.isnan(values), with_value, 2,
                     lambda k: f"bad numeric field {value_tokens[k]!r}")
        faults.raise_first()

        acts = acts[ok]
        value = np.zeros(len(ok))
        value[valued[ok]] = values
        frees = acts & _FREES != 0
        for end, sets_end, free in ((0, _SETS_LOWER, -np.inf), (1, _SETS_UPPER, np.inf)):
            sets = acts & sets_end != 0
            self.bound_cols[end].append(col[sets])
            self.bound_vals[end].append(np.where(frees, free, value)[sets])

    def problem(self) -> LpProblem:
        if "ROWS" not in self.saw:
            raise MpsFormatError("missing ROWS section")
        if "COLUMNS" not in self.saw:
            raise MpsFormatError("missing COLUMNS section")
        if self.obj_row is None:
            raise MpsFormatError("no objective (N) row declared")
        # the reader is spent: each part is let go once the problem's copy of
        # it is made, so that no part is held twice
        col_names, row_names = list(self.col_index), list(self.row_index)
        self.col_index.clear()
        self.row_index.clear()
        n, m = len(col_names), len(row_names)

        def joined(parts, dtype=float):
            out = np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)
            parts.clear()
            return out

        keys, values = joined(self.entry_keys, np.int64), joined(self.entry_vals)
        cost = keys < 0
        objective = np.zeros(n)
        objective[keys[cost] & 0xFFFFFFFF] = values[cost]
        order = np.argsort(keys)[np.count_nonzero(cost):]  # the objective's keys sort first
        keys, values = keys[order], values[order]
        del order, cost

        rhs = np.zeros(m)
        rows, rhs_values = joined(self.rhs_rows, np.int64), joined(self.rhs_vals)
        last = _last(rows)
        rhs[rows[last]] = rhs_values[last]

        # the last bound line to set an end of a column's box wins
        bounds = np.zeros((n, 2))
        bounds[:, 1] = np.inf
        for end in (0, 1):
            cols, ends = joined(self.bound_cols[end], np.int64), joined(self.bound_vals[end])
            last = _last(cols)
            bounds[cols[last], end] = ends[last]

        indptr = np.concatenate([[0], np.cumsum(np.bincount(keys >> 32, minlength=m))])
        return build_problem(
            self.sense,
            bounds,
            CsrRows(indptr, keys & 0xFFFFFFFF, values, self.relations, rhs),
            objective,
            offset=self.offset,
            col_names=col_names,
            row_names=row_names,
            name=self.name,
        )


def _parse(blocks) -> LpProblem:
    """The problem in ``blocks``, runs of whole lines in file order."""
    reader = _Reader()
    line_no = 1
    for block in blocks:
        if any(brk in block for brk in _OTHER_BREAKS):
            # lines are numbered as str.splitlines counts the ASCII breaks;
            # a break past ASCII is a fault, as its bytes are in a file
            block = _BREAK_RE.sub("\n", block)
        bad = None if block.isascii() else _NON_ASCII_RE.search(block)
        if bad:
            # the lines before the one with the character are read first
            bad_line = line_no + block.count("\n", 0, bad.start())
            block = block[: block.rfind("\n", 0, bad.start()) + 1]
        marks = [m.end() for m in _MARK_RE.finditer(block)]
        if block[:1].strip():
            marks.insert(0, 0)
        pos = 0
        for start in marks:
            if start > pos:
                reader.data(block[pos:start], line_no)
                line_no += block.count("\n", pos, start)
            end = block.find("\n", start)
            if end < 0:
                end = len(block)
            if not reader.mark(block[start:end], line_no):
                return reader.problem()
            pos, line_no = end + 1, line_no + 1
        reader.data(block[pos:], line_no)
        line_no += block.count("\n", pos)
        if bad:
            char = bad.group()
            what = (
                f"byte 0x{ord(char) - 0xDC00:02x}" if "\udc80" <= char <= "\udcff"
                else f"character {char!r} (U+{ord(char):04X})"
            )
            raise MpsFormatError(f"line {bad_line}: non-ASCII {what}")
    raise MpsFormatError("missing ENDATA")


def parse_mps(text: str) -> LpProblem:
    runs = re.finditer(r"(?:[^\n]*\n){1,%d}|[^\n]+" % _BLOCK_LINES, text)
    return _parse(run.group() for run in runs)


def _file_blocks(fh) -> Iterator[str]:
    """The text of the binary file ``fh`` in blocks of ``_BLOCK_LINES``
    lines, the last maybe shorter. The file is read in chunks sized to the
    block, each cut at every ``_BLOCK_LINES``-th line break of the text."""
    held: list[bytes] = []  # the bytes read of the next block
    lines = 0  # the line breaks in them
    while chunk := fh.read(_BLOCK_LINES * _READ_BYTES_PER_LINE):
        ends = np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n")) + 1
        cuts = ends[_BLOCK_LINES - lines - 1 :: _BLOCK_LINES].tolist()
        lines = (lines + len(ends)) % _BLOCK_LINES
        del ends  # not held while the blocks are parsed
        pos = 0
        for end in cuts:
            held.append(chunk[pos:end])
            # a byte past ASCII decodes to an escape, which the parse reports
            block = b"".join(held).decode("ascii", "surrogateescape")
            held, pos = [], end
            yield block
        held.append(chunk[pos:])
    if any(held):
        yield b"".join(held).decode("ascii", "surrogateescape")


def read_mps(path) -> LpProblem:
    with open(path, "rb") as fh:
        return _parse(_file_blocks(fh))
