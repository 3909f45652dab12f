"""Fixed-format MPS interchange for :class:`LpProblem`.

Classical MPS has no objective sense, so ``* SENSE: MAX`` is written as a
comment for maximize problems; readers missing the comment assume minimize.
The objective constant rides on the objective row's RHS entry, negated, per
the usual convention.

A name is 1 to 8 ASCII characters, none a NUL byte or a blank, and unique
among the rows or among the columns. The writer writes each name as it is
and refuses any other, and the reader faults a longer one at its line.

Both directions work in blocks of at most ``_BLOCK_LINES`` lines, so that
beyond the problem itself only one block's text, tokens and line tables are
held at a time. The writer formats each distinct value once per file and
pads each name once, then joins each block's lines from those tables:
:func:`write_mps` writes the blocks to the file as they come, and
:func:`render_mps` joins them into one string.

The reader works on bytes: :func:`read_mps` reads the file in chunks sized
to the block and cuts them at every ``_BLOCK_LINES``-th line break, and
:func:`parse_mps` does the same with the UTF-8 bytes of its text. In each
block numpy finds the line breaks, and in each run of data lines the
tokens, spans of bytes between the bytes that ``str.split`` takes for
whitespace. A field, such as the second token of each line, is gathered
into one ``S`` array as wide as its widest token, and a run whose few long
tokens would make its fields far wider than the run is read in halves.
Numbers are read from a field with ``astype(float)``, which reads what
``float`` reads, and names are looked up with ``np.searchsorted`` in a
sorted table of the row or column names read so far, as big-endian
integers. No line or token becomes a Python object of its own; a token is
decoded only to quote it in a message. What the sections have read so far
is kept across blocks, so a block's work is in proportion to the block, and
a fault is reported at its line whatever the block size. A NUL byte or a
byte past ASCII, which no name or number holds, is a fault of its line too,
and so is a COLUMNS or RHS value that is not finite, a bound that is NaN,
and a bound that leaves its column an empty box: +inf below or -inf above.

A column's lines may come back after another column's. Columns are numbered
by first appearance, so a run's entries are checked for duplicates against
the runs from the one that added its earliest returning column on, filtered
to its returning columns. In the files this module writes, a run's only
returning column is the one a block boundary split, so that is the run
before; in a file whose column comes back many runs later, the search
covers every entry since that column's run.
"""

from __future__ import annotations

import io
import re
from bisect import bisect_right
from collections.abc import Iterator
from itertools import chain, count, repeat

import numpy as np
import scipy.sparse as sp

from ..errors import LpDefinitionError, MpsFormatError
from .problem import CsrRows, LpProblem, build_problem

_REL_TO_TYPE = {"<=": "L", ">=": "G", "=": "E"}
_ROW_TYPE = {rel: f" {key}  " for rel, key in _REL_TO_TYPE.items()}
_BOUND_KEYS = np.array(
    [f" {key} BND       " for key in ("FX", "FR", "MI", "LO", "UP")], dtype=object
)
#: row types, sorted, and the relation of each; N marks the objective
_ROW_TYPES = np.array([b"E", b"G", b"L", b"N"])
_RELATIONS = np.array(["=", ">=", "<=", ""], dtype=object)
_OBJECTIVE_TYPE = 3
#: what a bound key does, as bits: LO, UP and FX set ends of the box to
#: their value, FR frees both ends and MI the lower one, and PL sets none
_VALUED, _SETS_LOWER, _SETS_UPPER, _FREES = 1, 2, 4, 8
#: bound keys, sorted, and the bits of each
_BOUND_TYPES = np.array([b"FR", b"FX", b"LO", b"MI", b"PL", b"UP"])
_BOUND_ACTS = np.array([
    _SETS_LOWER | _SETS_UPPER | _FREES,
    _VALUED | _SETS_LOWER | _SETS_UPPER,
    _VALUED | _SETS_LOWER,
    _SETS_LOWER | _FREES,
    0,
    _VALUED | _SETS_UPPER,
])
_SECTIONS = ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS")
#: the bytes str.split splits at: the ASCII characters of str.isspace
_SPACE = b" \t\n\r\v\f\x1c\x1d\x1e\x1f"
#: a character that no name holds: NUL, or a byte of _SPACE
_NOT_IN_NAME_RE = re.compile(r"[\x00 \t\n\r\v\f\x1c-\x1f]")
_IN_TOKEN = np.frombuffer(bytes(code not in _SPACE for code in range(256)), dtype=bool)
_UPPER = np.frombuffer(bytes(range(256)).upper(), dtype=np.uint8)
#: the ASCII line breaks of str.splitlines other than "\n"
_OTHER_BREAKS = b"\r\v\f\x1c\x1d\x1e"
_BREAK_RE = re.compile(rb"\r\n?|[\v\f\x1c\x1d\x1e]")
#: a byte that no name or number holds: NUL, or one past ASCII
_UNREADABLE_BYTE_RE = re.compile(rb"[^\x01-\x7f]")
#: at most this many lines are rendered, or read and parsed, at a time
_BLOCK_LINES = 1 << 15
#: a file is read this many bytes at a time per line of a block
_READ_BYTES_PER_LINE = 16
#: a run of data lines is read in halves while its fields could take more
#: than this many bytes per byte of the run
_FIELD_BYTES_PER_BYTE = 4


def _name_set(names, kind: str) -> set[str]:
    """The set of ``names``, once each is shown to be a name that the reader
    reads back whole; the first that is not is named with its kind and index."""
    taken = set(names)
    text = "".join(names)
    if (len(taken) < len(names) or "" in taken or max(map(len, names), default=0) > 8
            or not text.isascii() or _NOT_IN_NAME_RE.search(text)):
        seen: dict[str, int] = {}
        for k, name in enumerate(names):
            fault = ("is empty" if not name
                     else "is longer than 8 characters" if len(name) > 8
                     else "holds a non-ASCII character" if not name.isascii()
                     else "holds a NUL byte or a blank" if _NOT_IN_NAME_RE.search(name)
                     else f"is also the name of {kind} {seen[name]}" if name in seen else None)
            if fault:
                raise LpDefinitionError(f"{kind} {k}: {name!r} {fault}")
            seen[name] = k
    return taken


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
    # OBJ, XOBJ, ... while they fit in 8 characters, then numbered names
    taken = _name_set(problem.row_names, "row")
    candidates = chain(("X" * k + "OBJ" for k in range(6)), (f"O{j:07d}" for j in count()))
    obj_name = next(name for name in candidates if name not in taken)
    del taken
    _name_set(problem.col_names, "column")
    _name_set([problem.name], "problem")
    yield "* SENSE: MAX\n" if problem.sense == "maximize" else ""
    yield f"NAME          {problem.name}\n"
    yield f"ROWS\n N  {obj_name}\n"
    types = np.fromiter(map(_ROW_TYPE.__getitem__, problem.relations), dtype=object, count=m)
    yield from _lines(m, types.__getitem__,
                      np.array(problem.row_names, dtype=object).__getitem__, "\n")
    row_pad = _padded((obj_name, *problem.row_names))  # the objective is row 0
    col_pad = _padded(problem.col_names)

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
    fixed, has_lo, has_hi = lo == hi, np.isfinite(lo), np.isfinite(hi)
    key = np.column_stack([  # each line's place in _BOUND_KEYS, -1 for none
        np.select([fixed, ~has_lo & ~has_hi, ~has_lo, lo != 0.0], [0, 1, 2, 3], -1),
        np.where(~fixed & has_hi, 4, -1),
    ])
    bound_col = np.nonzero(key >= 0)[0]
    key = key[key >= 0]
    bound_values = np.where(key == 4, hi[bound_col], lo[bound_col])
    # FR and MI lines name the column bare and carry no value
    bare = (key == 1) | (key == 2)
    bound_names = np.concatenate([col_pad,
                                  np.array(problem.col_names, dtype=object)[bound_col[bare]]])
    bound_col[bare] = n + np.arange(np.count_nonzero(bare))

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
    blocks = _blocks(problem)
    head = [next(blocks)]  # the names are checked before the file is opened
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(chain(head, blocks))


def _floats(tokens: np.ndarray) -> np.ndarray:
    """The ``S`` tokens as floats, each read as ``float`` reads it; a token
    that is not a number reads as NaN, which every caller rejects."""
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


def _keys(names: np.ndarray) -> np.ndarray:
    """``S`` names of at most 8 bytes as big-endian integers, which sort and
    compare as the names do."""
    return names.astype("S8").view(">u8")


def _lookup(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The place of each key in the sorted, non-empty ``table``, or -1
    where it has none."""
    at = np.searchsorted(table, keys)
    at[at == len(table)] = 0
    return np.where(table[at] == keys, at, -1)


def _upper(tokens: np.ndarray) -> np.ndarray:
    """The ``S`` tokens in upper case."""
    return _UPPER[tokens.view(np.uint8)].view(tokens.dtype)


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


class _Names:
    """Names of at most 8 bytes, numbered in order of first appearance and
    held as big-endian integers in one sorted table."""

    def __init__(self) -> None:
        self.keys = np.zeros(0, dtype=">u8")
        self.numbers = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.keys)

    def find(self, names: np.ndarray, missing: int = -1) -> np.ndarray:
        """The number of each name, or ``missing`` where it has none."""
        if not len(self):
            return np.full(len(names), missing)
        place = _lookup(self.keys, _keys(names))
        return np.where(place >= 0, self.numbers[place], missing)

    def add(self, names: np.ndarray) -> None:
        """Number ``names``, distinct and all new, from ``len(self)`` on."""
        keys = _keys(names)
        order = np.argsort(keys)
        place = np.searchsorted(self.keys, keys[order])
        self.numbers = np.insert(self.numbers, place, len(self) + order)
        self.keys = np.insert(self.keys, place, keys[order])

    def numbered(self, names: np.ndarray) -> np.ndarray:
        """The number of each name, numbering the new ones first."""
        number = self.find(names)
        new = names[number < 0]
        if len(new):
            _, first = np.unique(new, return_index=True)
            self.add(new[np.sort(first)])
            number = self.find(names)
        return number

    def names(self) -> list[str]:
        """The names in the order of their numbers."""
        out = np.empty(len(self), dtype="S8")
        out[self.numbers] = self.keys.view("S8")
        return out.astype(str).tolist()


class _Tokens:
    """The tokens of a run of data lines ``codes``, as ``str.split`` finds
    them: spans of its bytes between whitespace bytes, never a Python object
    each."""

    def __init__(self, codes: np.ndarray) -> None:
        self.codes = codes
        # a byte above the space is in a token; the table tells the others
        in_token = codes > 32
        low = np.flatnonzero(codes < 32)
        in_token[low] = _IN_TOKEN[codes[low]]
        edges = np.flatnonzero(np.diff(in_token, prepend=False, append=False))
        self.starts, self.ends = edges[::2], edges[1::2]
        # each token's bytes start a window as wide as the widest token; the
        # zeros past the chunk complete the last windows
        self.width = max(int(np.max(self.ends - self.starts, initial=0)), 1)
        padded = np.concatenate([codes, np.zeros(self.width, dtype=np.uint8)])
        self.windows = np.lib.stride_tricks.sliding_window_view(padded, self.width)

    def field(self, at: np.ndarray) -> np.ndarray:
        """Tokens ``at``, gathered into an ``S`` array as wide as the widest."""
        length = self.ends[at] - self.starts[at]
        width = max(int(np.max(length, initial=0)), 1)
        out = self.windows[self.starts[at], :width]
        out *= np.arange(width) < length[:, None]
        return out.view(f"S{width}").ravel()

    def text(self, at: int) -> str:
        """Token ``at``, to quote in a message."""
        return self.codes[self.starts[at] : self.ends[at]].tobytes().decode("ascii")


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

    def long_names(self, tokens: _Tokens, at, line, stage: int, kind: str) -> None:
        """Name tokens ``at`` longer than 8 bytes, each quoted by its first 8."""
        self.check(tokens.ends[at] - tokens.starts[at] > 8, line, stage, lambda k: (
            f"{kind} name {tokens.text(at[k])[:8]!r}... is longer than 8 characters"))

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
        self.obj_row: bytes | None = None
        self.relations: list[str] = []
        self.rows = _Names()  # constraint rows, in file order
        self.cols = _Names()
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
            if len(self.name) > 8:
                raise MpsFormatError(f"line {line_no}: problem name {self.name[:8]!r}... "
                                     "is longer than 8 characters")
        elif keyword == "ENDATA":
            return False
        elif keyword in _SECTIONS:
            self.section = keyword
            self.saw.add(keyword)
        else:
            raise MpsFormatError(f"line {line_no}: malformed section header {tokens[0]!r}")
        return True

    def data(self, codes: np.ndarray, breaks: np.ndarray, first_line: int) -> None:
        """Data lines of bytes ``codes`` with line breaks at ``breaks``, the
        first of them numbered ``first_line``."""
        tokens = _Tokens(codes)
        wide = tokens.width * len(tokens.starts) > _FIELD_BYTES_PER_BYTE * len(codes)
        if wide and len(breaks) > 1:
            # a field is as wide as its widest token, so a few long tokens
            # would make every field long: the run is read in halves
            half = len(breaks) // 2
            cut = breaks[half - 1] + 1
            self.data(codes[:cut], breaks[:half], first_line)
            self.data(codes[cut:], breaks[half:] - cut, first_line + half)
            return
        # line k's tokens are those past line break k - 1 and before break k
        start = np.concatenate([[0], np.searchsorted(tokens.starts, breaks)])
        counts = np.diff(start, append=len(tokens.starts))
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

    def _rows(self, tokens: _Tokens, start, counts, faults: _Faults) -> None:
        lines = np.arange(len(counts))
        faults.check(counts != 2, lines, 0, lambda k: "ROWS entry needs type and name")
        lines = lines[counts == 2]
        kind = _lookup(_ROW_TYPES, _upper(tokens.field(start[lines])))
        names = tokens.field(start[lines] + 1)
        objective = kind == _OBJECTIVE_TYPE
        constraint = (kind >= 0) & ~objective
        faults.check(kind < 0, lines, 1,
                     lambda k: f"unknown row type {tokens.text(start[lines[k]])!r}")
        faults.long_names(tokens, start[lines] + 1, lines, 2, "row")
        # the first N row names the objective, unless an earlier run did
        extra_n = objective.copy()
        if self.obj_row is None and objective.any():
            extra_n[np.argmax(objective)] = False
        faults.check(extra_n, lines, 3, lambda k: "multiple objective (N) rows")
        # a name from an earlier run, or from earlier in this one, repeats
        new = names[constraint]
        again = np.zeros(len(names), dtype=bool)
        again[constraint] = (self.rows.find(new) >= 0) | _repeats(_keys(new))
        faults.check(again, lines, 3,
                     lambda k: f"duplicate row {tokens.text(start[lines[k]] + 1)!r}")
        faults.raise_first()

        if self.obj_row is None and objective.any():
            self.obj_row = names[np.argmax(objective)]
        self.rows.add(new)
        self.relations += _RELATIONS[kind[constraint]].tolist()

    def _pairs(self, tokens: _Tokens, start, counts, faults: _Faults) -> None:
        """COLUMNS or RHS lines: a column or set name, then name/value pairs."""
        lines = np.arange(len(counts))
        paired = (counts % 2 == 1) & (counts > 1)
        faults.check(~paired, lines, 0,
                     lambda k: f"expected name/value pairs, got {counts[k] - 1} fields")
        n_pairs = np.where(paired, (counts - 1) // 2, 0)
        pair_line = np.repeat(lines, n_pairs)
        first_pair = np.cumsum(n_pairs) - n_pairs
        at = start[pair_line] + 1 + 2 * (np.arange(len(pair_line)) - first_pair[pair_line])
        row_tokens = tokens.field(at)
        values = _floats(tokens.field(at + 1))
        faults.check(~np.isfinite(values), pair_line, 2,
                     lambda k: f"bad numeric field {tokens.text(at[k] + 1)!r}")
        faults.long_names(tokens, at, pair_line, 3, "row")
        row = self.rows.find(row_tokens, missing=-2)
        if self.obj_row is not None:
            row[row_tokens == self.obj_row] = -1  # the objective row is looked for first
        cost = row == -1
        known = row >= 0

        if self.section == "RHS":
            faults.check(row == -2, pair_line, 4,
                         lambda k: f"RHS for undeclared row {tokens.text(at[k])!r}")
            faults.raise_first()
            if cost.any():
                self.offset = -values[cost][-1]
            self.rhs_rows.append(row[known])
            self.rhs_vals.append(values[known])
            return

        faults.check(row == -2, pair_line, 4,
                     lambda k: f"entry for undeclared row {tokens.text(at[k])!r}")
        faults.long_names(tokens, start, lines, 1, "column")
        # a column's lines follow each other, so names are looked up per run
        col_tokens = tokens.field(start)
        run = np.flatnonzero(np.concatenate([[True], col_tokens[1:] != col_tokens[:-1]]))
        n_before = len(self.cols)
        col = np.repeat(self.cols.numbered(col_tokens[run]),
                        np.diff(np.append(run, len(col_tokens))))[pair_line]

        valid = row >= -1
        keys = row[valid] << 32 | col[valid]
        again = np.zeros(len(row), dtype=bool)
        again[valid] = self._seen(keys, col[valid], n_before)
        faults.check(again, pair_line, 4, lambda k: (
            f"duplicate objective entry for {tokens.text(start[pair_line[k]])!r}" if row[k] == -1
            else f"duplicate entry {tokens.text(start[pair_line[k]])!r} "
                 f"in row {tokens.text(at[k])!r}"))
        faults.raise_first()

        self.first_col.append(n_before)
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

    def _bounds(self, tokens: _Tokens, start, counts, faults: _Faults) -> None:
        lines = np.arange(len(counts))
        keys = _upper(tokens.field(start))
        kind = _lookup(_BOUND_TYPES, keys)
        acts = np.where(kind >= 0, _BOUND_ACTS[kind], -1)
        valued = (acts >= 0) & (acts & _VALUED != 0)
        bare = (acts >= 0) & (acts & _VALUED == 0)
        faults.check(~valued & ~bare, lines, 0,
                     lambda k: f"unknown bound key {tokens.text(start[k])!r}")
        faults.check(valued & (counts != 4), lines, 0,
                     lambda k: f"bound {keys[k].decode()} needs set, column and value")
        faults.check(bare & (counts != 3), lines, 0,
                     lambda k: f"bound {keys[k].decode()} needs set and column")
        ok = np.flatnonzero((valued & (counts == 4)) | (bare & (counts == 3)))
        faults.long_names(tokens, start[ok] + 2, ok, 1, "column")
        col = self.cols.find(tokens.field(start[ok] + 2))
        faults.check(col < 0, ok, 2,
                     lambda k: f"bound on undeclared column {tokens.text(start[ok[k]] + 2)!r}")
        with_value = ok[valued[ok]]
        values = _floats(tokens.field(start[with_value] + 3))
        faults.check(np.isnan(values), with_value, 3,
                     lambda k: f"bad numeric field {tokens.text(start[with_value[k]] + 3)!r}")
        # an infinite bound is no bound, unless it leaves the box empty
        sets = acts[with_value]
        empty = ((values == np.inf) & (sets & _SETS_LOWER != 0)
                 | (values == -np.inf) & (sets & _SETS_UPPER != 0))
        faults.check(empty, with_value, 3, lambda k: (
            f"bound {keys[with_value[k]].decode()} {tokens.text(start[with_value[k]] + 3)} "
            f"leaves {tokens.text(start[with_value[k]] + 2)!r} an empty box"))
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
        col_names, row_names = self.cols.names(), self.rows.names()
        self.cols = self.rows = _Names()
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
    """The problem in ``blocks``, runs of whole lines in file order, as bytes.

    The first NUL byte or byte past ASCII is a fault of its line, reported
    once the lines before it are read.
    """
    reader = _Reader()
    line_no = 1  # of the block's first line
    for block in blocks:
        if any(brk in block for brk in _OTHER_BREAKS):
            # lines are numbered as str.splitlines counts the ASCII breaks
            block = _BREAK_RE.sub(b"\n", block)
        bad = None
        if not block.isascii() or b"\x00" in block:
            # the lines before the one with the byte are read first
            bad = _UNREADABLE_BYTE_RE.search(block)
            block = block[: block.rfind(b"\n", 0, bad.start()) + 1]
        codes = np.frombuffer(block, dtype=np.uint8)
        breaks = np.flatnonzero(codes == ord("\n"))
        # line k starts past break k - 1; a header or comment line starts
        # with no blank
        starts = np.concatenate([[0], breaks + 1])
        heads = np.flatnonzero(_IN_TOKEN[codes[starts[starts < len(block)]]]).tolist()
        ends = np.append(breaks, len(block))
        first = 0  # the block's first line not yet read
        for k in heads:
            if k > first:
                reader.data(codes[starts[first] : starts[k]], breaks[first:k] - starts[first],
                            line_no + first)
            if not reader.mark(block[starts[k] : ends[k]].decode("ascii"), line_no + k):
                return reader.problem()
            first = k + 1
        if first < len(starts):
            reader.data(codes[starts[first] :], breaks[first:] - starts[first], line_no + first)
        line_no += len(breaks)
        if bad:
            byte = bad.group()[0]
            raise MpsFormatError(
                f"line {line_no}: " + (f"non-ASCII byte 0x{byte:02x}" if byte else "NUL byte"))
    raise MpsFormatError("missing ENDATA")


def parse_mps(text: str) -> LpProblem:
    """The problem in ``text`` read as its UTF-8 bytes, a lone surrogate as the
    byte it escapes; where one escapes no byte, each reads as its 3-byte UTF-8
    form, which faults its line as any byte past ASCII does."""
    try:
        data = text.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError:
        data = text.encode("utf-8", "surrogatepass")
    return _parse(_file_blocks(io.BytesIO(data)))


def _file_blocks(fh) -> Iterator[bytes]:
    """The bytes of the binary file ``fh`` in blocks of ``_BLOCK_LINES``
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
            block = b"".join(held)
            held, pos = [], end
            yield block
        held.append(chunk[pos:])
    if any(held):
        yield b"".join(held)


def read_mps(path) -> LpProblem:
    with open(path, "rb") as fh:
        return _parse(_file_blocks(fh))
