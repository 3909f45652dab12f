"""MPS writer/reader tests.

TESTPROB below is the classic reference example that ships with the MPS
format description (IBM MPS/360 heritage, reproduced in the lp_solve and
CPLEX file-format documentation):

    min  COST = x1 + 2 x2 - x3
    s.t. LIM1:  x1 + x2      <= 4
         LIM2:  x1           >= 1
         MYEQN:     - x2 + x3 = 7
         0 <= x1 <= 4,  -1 <= x2,  0 <= x3

Transcribed field by field; the parse assertions below restate that LP.
"""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from lp_rows import row_coeffs

import pvsmooth.lp.mps as mps
from pvsmooth.cli import build_power_series
from pvsmooth.config import load_run_config
from pvsmooth.errors import LpDefinitionError, MpsFormatError
from pvsmooth.formulation import build_case
from pvsmooth.lp import build_problem, parse_mps, read_mps, render_mps, solve, write_mps

INF = math.inf

TESTPROB = """\
NAME          TESTPROB
ROWS
 N  COST
 L  LIM1
 G  LIM2
 E  MYEQN
COLUMNS
    X1        COST            1.0   LIM1            1.0
    X1        LIM2            1.0
    X2        COST            2.0   LIM1            1.0
    X2        MYEQN          -1.0
    X3        COST           -1.0   MYEQN           1.0
RHS
    RHS1      LIM1            4.0   LIM2            1.0
    RHS1      MYEQN           7.0
BOUNDS
 UP BND1      X1              4.0
 LO BND1      X2             -1.0
ENDATA
"""


#: one- and two-line blocks, which put nearly every pair of lines in
#: different blocks, and the module's own size
BLOCK_SIZES = [1, 2, mps._BLOCK_LINES]


@pytest.fixture(params=BLOCK_SIZES)
def block_lines(request, monkeypatch):
    """MPS text is written and read in blocks of this many lines."""
    monkeypatch.setattr(mps, "_BLOCK_LINES", request.param)
    return request.param


def sample_problem():
    # exercises maximize sense, offset, free/fixed/negative-lower bounds
    return build_problem(
        "maximize",
        [(0.0, 10.0), (-2.5, INF), (-INF, INF), (3.0, 3.0), (-INF, 0.0)],
        [
            ([(0, 1.0), (1, 2.0)], "<=", 8.0),
            ([(1, -1.0), (2, 0.125)], ">=", -4.0),
            ([(0, 1.0), (3, 1.0), (4, 1.0)], "=", 2.0),
        ],
        [3.0, -1.0, -0.5, 0.0, 1.0],
        offset=12.5,
        col_names=["pg", "pb", "eb", "fixed", "neg"],
        row_names=["balance", "ramp_dn", "soc"],
        name="sample",
    )


class TestReferenceExample:
    def test_parsed_structure_matches_published_lp(self):
        p = parse_mps(TESTPROB)
        assert p.sense == "minimize"  # no sense comment => classical default
        assert p.name == "TESTPROB"
        assert p.n_vars == 3
        assert p.col_names == ("X1", "X2", "X3")
        np.testing.assert_allclose(p.objective, [1.0, 2.0, -1.0])
        assert p.objective_offset == 0.0

        assert p.row_names == ("LIM1", "LIM2", "MYEQN")
        assert p.relations == ("<=", ">=", "=")
        assert p.rhs.tolist() == [4.0, 1.0, 7.0]
        assert [row_coeffs(p, i) for i in range(3)] == [
            {0: 1.0, 1: 1.0}, {0: 1.0}, {1: -1.0, 2: 1.0},
        ]

        np.testing.assert_allclose(p.lower, [0.0, -1.0, 0.0])
        np.testing.assert_allclose(p.upper, [4.0, INF, INF])

    def test_reference_optimum(self):
        # substitute x3 = 7 + x2: objective = x1 + x2 - 7, minimized at
        # x1 = 1 (LIM2), x2 = -1 (its lower bound)
        sol = solve(parse_mps(TESTPROB))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-7.0)
        np.testing.assert_allclose(sol.x, [1.0, -1.0, 6.0], atol=1e-9)


class TestContainer:
    def test_rows_view_agrees_with_the_matrix(self):
        p = sample_problem()
        assert isinstance(p.A, sp.csr_matrix)
        rows = p.rows
        assert rows is not p.rows  # built on each access, never cached
        assert [r.name for r in rows] == list(p.row_names)
        assert [r.relation for r in rows] == list(p.relations)
        assert [r.rhs for r in rows] == p.rhs.tolist()
        dense = p.A.toarray()
        for i, r in enumerate(rows):
            assert len(r.cols) == p.A.indptr[i + 1] - p.A.indptr[i]
            expect = np.zeros(p.n_vars)
            expect[r.cols] = r.vals
            np.testing.assert_array_equal(dense[i], expect)


# values that survive the writer's 15 significant digits exactly, with
# signed zeros drawn often
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e300, 1e300).map(lambda v: float(f"{v:.15g}")),
)


# valid MPS names: the objective's candidate names, and 1 to 8 ASCII
# characters of any case, punctuation and control bytes included, but no NUL
# and no blank
NAMES = st.one_of(
    st.sampled_from(["OBJ", "XOBJ", "obj", "O0000000", "RHS", "*", "12345678"]),
    st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=127,
                                   blacklist_characters=mps._SPACE.decode()),
            min_size=1, max_size=8),
)


@st.composite
def small_lps(draw):
    """Random LPs with every bound kind the writer knows, explicit and signed
    zero coefficients, at least one row with no entries, and names that the
    writer writes as they are."""
    n = draw(st.integers(1, 5))
    bounds = []
    for _ in range(n):
        a, b = sorted([draw(VALUES), draw(VALUES)])
        kind = draw(st.sampled_from(["default", "free", "fixed", "mi", "box", "lo"]))
        bounds.append({
            "default": (0.0, INF), "free": (-INF, INF), "fixed": (a, a),
            "mi": (-INF, b), "box": (a, b), "lo": (-abs(a) or -1.0, INF),
        }[kind])
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        cols = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        rows.append(([(j, draw(VALUES)) for j in cols],
                     draw(st.sampled_from(["<=", "=", ">="])), draw(VALUES)))
    rows.insert(draw(st.integers(0, len(rows))), ([], draw(st.sampled_from(["<=", "="])), 0.0))
    objective = [draw(VALUES) for _ in range(n)]
    # a column with no entry and no cost would not appear in the file
    used = {j for coeffs, _, _ in rows for j, _ in coeffs}
    objective = [c if (j in used or c != 0.0) else 1.0 for j, c in enumerate(objective)]
    return build_problem(
        draw(st.sampled_from(["maximize", "minimize"])), bounds, rows, objective,
        offset=draw(VALUES),
        col_names=draw(st.lists(NAMES, min_size=n, max_size=n, unique=True)),
        row_names=draw(st.lists(NAMES, min_size=len(rows), max_size=len(rows), unique=True)),
    )


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestRoundTrip:
    def test_structure_survives(self):
        p = sample_problem()
        q = parse_mps(render_mps(p))
        assert q.sense == p.sense
        assert q.n_vars == p.n_vars
        assert q.objective_offset == p.objective_offset
        np.testing.assert_array_equal(q.objective, p.objective)
        np.testing.assert_array_equal(q.lower, p.lower)
        np.testing.assert_array_equal(q.upper, p.upper)
        assert q.relations == p.relations
        assert q.rhs.tolist() == p.rhs.tolist()
        assert [row_coeffs(q, i) for i in range(q.n_rows)] == [
            row_coeffs(p, i) for i in range(p.n_rows)
        ]

    # patched in the body, as hypothesis runs every example in one call
    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @settings(max_examples=150, deadline=None)
    @given(p=small_lps())
    def test_round_trip_is_exact(self, size, p):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mps, "_BLOCK_LINES", size)
            text = render_mps(p)
            q = parse_mps(text)
            assert render_mps(q) == text
        assert (q.sense, q.n_vars, q.relations) == (p.sense, p.n_vars, p.relations)
        assert (q.row_names, q.col_names) == (p.row_names, p.col_names)
        # the writer leaves zero costs, right-hand sides, offsets and lower
        # bounds out whatever their sign, and a fixed bound takes the sign of
        # its lower end, so these compare with -0.0 as 0.0
        for field in ("objective", "rhs", "lower", "upper", "objective_offset"):
            assert np.array_equal(bits(getattr(q, field) + 0.0), bits(getattr(p, field) + 0.0))
        # the parser sorts each row by column; signed zeros in A survive
        order = np.lexsort((p.A.indices, np.repeat(np.arange(p.n_rows), np.diff(p.A.indptr))))
        assert np.array_equal(q.A.indptr, p.A.indptr)
        assert np.array_equal(q.A.indices, p.A.indices[order])
        assert np.array_equal(bits(q.A.data), bits(p.A.data[order]))

    def test_same_optimum_after_round_trip(self):
        p = sample_problem()
        s1 = solve(p)
        s2 = solve(parse_mps(render_mps(p)))
        assert s1.status == s2.status == "optimal"
        assert s2.objective_value == pytest.approx(s1.objective_value, rel=1e-12)

    def test_render_is_idempotent(self):
        p = sample_problem()
        text = render_mps(p)
        assert render_mps(parse_mps(text)) == text

    def test_file_round_trip(self, tmp_path):
        p = sample_problem()
        path = tmp_path / "sample.mps"
        write_mps(p, path)
        q = read_mps(path)
        assert q.n_vars == p.n_vars
        assert solve(q).objective_value == pytest.approx(solve(p).objective_value)

    def test_file_holds_the_rendered_text(self, tmp_path, block_lines):
        path = tmp_path / "sample.mps"
        for p in (sample_problem(), parse_mps(TESTPROB)):
            write_mps(p, path)
            text = render_mps(p)
            assert path.read_bytes() == text.encode("ascii")
            assert render_mps(read_mps(path)) == text

    def test_column_that_comes_back(self, block_lines):
        # X1's lines resume after X3's: its new entry joins its column
        text = TESTPROB.replace("RHS\n", "    X1        MYEQN           2.0\nRHS\n", 1)
        p = parse_mps(text)
        assert p.col_names == ("X1", "X2", "X3")
        assert row_coeffs(p, 2) == {0: 2.0, 1: -1.0, 2: 1.0}

    def test_objective_name_stays_within_8_characters(self):
        taken = ["OBJ", "XOBJ", "XXOBJ", "XXXOBJ", "XXXXOBJ", "XXXXXOBJ"]
        p = build_problem(
            "minimize",
            [(0.0, 1.0)],
            [([(0, 1.0)], "<=", 1.0)] * len(taken),
            [1.0],
            row_names=taken,
        )
        text = render_mps(p)
        objective_row = text.splitlines()[2]
        assert objective_row == " N  O0000000"
        q = parse_mps(text)
        assert q.row_names == tuple(taken)
        assert render_mps(q) == text

    # a name the reader would not read back whole is refused, with its kind
    # and index, before a file is opened
    @pytest.mark.parametrize("names, message", [
        ({"col_names": ["X1", ""]}, "column 1: '' is empty"),
        ({"row_names": ["LIM 1"]}, "row 0: 'LIM 1' holds a NUL byte or a blank"),
        ({"col_names": ["X1", "ABCDEFGHI"]},
         "column 1: 'ABCDEFGHI' is longer than 8 characters"),
        ({"row_names": ["Ré"]}, "row 0: 'Ré' holds a non-ASCII character"),
        ({"name": "LP\x00"}, "problem 0: 'LP\\x00' holds a NUL byte or a blank"),
        ({"col_names": ["X1", "X1"]}, "column 1: 'X1' is also the name of column 0"),
    ], ids=["empty", "blank", "9 characters", "non-ASCII", "NUL", "duplicate"])
    def test_name_that_would_not_read_back_is_refused(self, names, message, tmp_path):
        p = build_problem("minimize", [(0.0, 1.0)] * 2, [([(0, 1.0), (1, 1.0)], "<=", 1.0)],
                          [1.0, 1.0], **names)
        with pytest.raises(LpDefinitionError) as err:
            render_mps(p)
        assert str(err.value) == message
        path = tmp_path / "refused.mps"
        with pytest.raises(LpDefinitionError):
            write_mps(p, path)
        assert not path.exists()


class TestFormatDetails:
    def test_sense_comment_for_maximize(self):
        text = render_mps(sample_problem())
        assert text.splitlines()[0] == "* SENSE: MAX"
        assert parse_mps(text).sense == "maximize"

    def test_minimize_has_no_sense_comment(self):
        p = build_problem("minimize", [(0.0, 1.0)], [], [1.0])
        assert "SENSE" not in render_mps(p)

    def test_offset_rides_on_objective_rhs(self):
        p = build_problem("minimize", [(0.0, 1.0)], [], [1.0], offset=5.0)
        text = render_mps(p)
        assert "-5" in text  # negated by convention
        assert parse_mps(text).objective_offset == 5.0

    def test_sections_present_in_order(self):
        text = render_mps(sample_problem())
        headers = [ln for ln in text.splitlines() if ln and not ln[0].isspace() and not ln.startswith("*")]
        assert [h.split()[0] for h in headers] == [
            "NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA",
        ]

    def test_fixed_layout_name_fields(self):
        text = render_mps(sample_problem())
        for line in text.splitlines():
            if line.startswith("    "):  # data lines
                assert line[4:12].strip()  # field 2 starts at column 5
                assert len(line) <= 61


@pytest.mark.usefixtures("block_lines")
class TestParseErrors:
    def test_missing_columns_section(self):
        with pytest.raises(MpsFormatError, match="COLUMNS"):
            parse_mps("NAME x\nROWS\n N  OBJ\nRHS\nENDATA\n")

    def test_malformed_section_header(self):
        with pytest.raises(MpsFormatError, match="malformed section header"):
            parse_mps("NAME x\nROWS\n N  OBJ\nFOO\nENDATA\n")

    def test_unknown_bound_key(self):
        bad = TESTPROB.replace(" UP BND1", " XX BND1")
        with pytest.raises(MpsFormatError, match="unknown bound key"):
            parse_mps(bad)

    def test_missing_endata(self):
        with pytest.raises(MpsFormatError, match="ENDATA"):
            parse_mps("NAME x\nROWS\n N  OBJ\nCOLUMNS\n")

    def test_ranges_entries_rejected(self):
        with_ranges = TESTPROB.replace(
            "BOUNDS", "RANGES\n    RNG       LIM1            2.0\nBOUNDS"
        )
        with pytest.raises(MpsFormatError, match="RANGES"):
            parse_mps(with_ranges)

    # TESTPROB's lines: 8-12 COLUMNS, 14-15 RHS, 17-18 BOUNDS
    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("LIM1            4.0", "LIM1            4.O", "line 14: bad numeric field '4.O'"),
            ("X1        LIM2            1.0", "X1        NOROW           1.0",
             "line 9: entry for undeclared row 'NOROW'"),
            ("X1        LIM2            1.0", "X1        LIM1            1.0",
             "line 9: duplicate entry 'X1' in row 'LIM1'"),
            ("X1        LIM2            1.0",
             "X1        LIM2            1.0\n    X1        COST            9.0",
             "line 10: duplicate objective entry for 'X1'"),
            ("RHS1      MYEQN           7.0", "RHS1      NOROW           7.0",
             "line 15: RHS for undeclared row 'NOROW'"),
            ("LO BND1      X2", "LO BND1      X9", "line 18: bound on undeclared column 'X9'"),
            ("LO BND1      X2             -1.0", "LO BND1      X2",
             "line 18: bound LO needs set, column and value"),
            ("X2        MYEQN          -1.0", "X2        MYEQN",
             "line 11: expected name/value pairs, got 1 fields"),
            # a bad bound value is reported like any other bad number
            ("X1              4.0", "X1              4.x", "line 17: bad numeric field '4.x'"),
            # X1 comes back after X3, several lines and blocks after its
            # first entry in that row, or its objective entry
            ("X3        COST           -1.0   MYEQN           1.0",
             "X3        COST           -1.0   MYEQN           1.0\n    X1        LIM1  5.0",
             "line 13: duplicate entry 'X1' in row 'LIM1'"),
            ("X3        COST           -1.0   MYEQN           1.0",
             "X3        COST           -1.0   MYEQN           1.0\n    X1        COST  5.0",
             "line 13: duplicate objective entry for 'X1'"),
            ("E  MYEQN", "E  MYEQN\n L  LIM1", "line 7: duplicate row 'LIM1'"),
            # float reads these, but a coefficient or right-hand side must be
            # finite, and a bound may be infinite but not NaN
            ("X1        LIM2            1.0", "X1        LIM2            nan",
             "line 9: bad numeric field 'nan'"),
            ("X3        COST           -1.0", "X3        COST           -inf",
             "line 12: bad numeric field '-inf'"),
            ("RHS1      MYEQN           7.0", "RHS1      MYEQN           inf",
             "line 15: bad numeric field 'inf'"),
            ("X1              4.0", "X1              nan", "line 17: bad numeric field 'nan'"),
        ],
    )
    def test_fault_names_its_line(self, old, new, message):
        assert old in TESTPROB
        with pytest.raises(MpsFormatError) as err:
            parse_mps(TESTPROB.replace(old, new))
        assert str(err.value) == message

    # an infinite bound is no bound, but +inf below or -inf above leaves the
    # column no value
    @pytest.mark.parametrize("old, new, message", [
        ("LO BND1      X2             -1.0", "LO BND1      X2              inf",
         "line 18: bound LO inf leaves 'X2' an empty box"),
        ("UP BND1      X1              4.0", "UP BND1      X1             -inf",
         "line 17: bound UP -inf leaves 'X1' an empty box"),
        ("UP BND1      X1              4.0", "fx BND1      X1         Infinity",
         "line 17: bound FX Infinity leaves 'X1' an empty box"),
        ("LO BND1      X2             -1.0", "MI BND1      X2\n UP BND1      X2  -1e999",
         "line 19: bound UP -1e999 leaves 'X2' an empty box"),
    ])
    def test_empty_box_names_its_line(self, old, new, message, tmp_path):
        assert old in TESTPROB
        text = TESTPROB.replace(old, new)
        assert parsed_both_ways(text, tmp_path) == [message] * 2

    def test_infinite_bounds_are_no_bounds(self):
        p = parse_mps(TESTPROB.replace("X1              4.0", "X1              inf")
                      .replace("X2             -1.0", "X2             -Infinity"))
        assert p.upper.tolist() == [INF] * 3
        assert p.lower.tolist() == [0.0, -INF, 0.0]

    # X1's lines come back after X3's twice, in the runs of one- and
    # two-line blocks: the second return repeats an entry of its first run
    def test_duplicate_in_a_second_return(self):
        back = "    X1        MYEQN           2.0\n    X3        LIM1            3.0\n"
        text = TESTPROB.replace("RHS\n", back + "    X1        MYEQN           9.0\nRHS\n")
        with pytest.raises(MpsFormatError) as err:
            parse_mps(text)
        assert str(err.value) == "line 15: duplicate entry 'X1' in row 'MYEQN'"
        text = TESTPROB.replace("RHS\n", back + "    X1        LIM1            9.0\nRHS\n")
        with pytest.raises(MpsFormatError) as err:
            parse_mps(text)
        assert str(err.value) == "line 15: duplicate entry 'X1' in row 'LIM1'"

    # X2 and X1 come back in one run of a two-line block, the later-added X2
    # first, so the search starts at X1's run, which holds its LIM1 entry
    @pytest.mark.parametrize("row, message", [
        ("LIM1", "line 14: duplicate entry 'X1' in row 'LIM1'"),
        ("MYEQN", None),
    ])
    def test_two_columns_return_in_one_run(self, row, message):
        back = f"    X2        LIM2            3.0\n    X1        {row:<5}           5.0\n"
        text = TESTPROB.replace("RHS\n", back + "RHS\n")
        if message:
            with pytest.raises(MpsFormatError) as err:
                parse_mps(text)
            assert str(err.value) == message
            return
        p = parse_mps(text)
        assert p.col_names == ("X1", "X2", "X3")
        assert [row_coeffs(p, i) for i in range(3)] == [
            {0: 1.0, 1: 1.0}, {0: 1.0, 1: 3.0}, {0: 5.0, 1: -1.0, 2: 1.0},
        ]

    def test_missing_endata_after_a_block_boundary(self, block_lines, tmp_path):
        # the file's last line ends a block, so no block follows to hold ENDATA
        lines = ["NAME          EDGE", "ROWS", " N  OBJ", "COLUMNS"]
        lines += [f"    X{k}  OBJ  1.0" for k in range(block_lines * -(-5 // block_lines) - 4)]
        text = "\n".join(lines) + "\n"
        assert text.count("\n") % block_lines == 0
        assert parsed_both_ways(text, tmp_path) == ["missing ENDATA"] * 2

    def test_earlier_of_two_faults_is_reported(self):
        # the bad number on line 11 is found by a different check than the
        # undeclared row on line 9, and the undeclared row is a pair later
        # in its own line than a good one
        bad = TESTPROB.replace("X1        LIM2            1.0",
                               "X1        LIM2            1.0   NOROW  2.0")
        bad = bad.replace("X2        MYEQN          -1.0", "X2        MYEQN          -1.x")
        with pytest.raises(MpsFormatError) as err:
            parse_mps(bad)
        assert str(err.value) == "line 9: entry for undeclared row 'NOROW'"

    def test_bad_number_comes_before_the_rows_of_its_line(self):
        bad = TESTPROB.replace("X1        LIM2            1.0", "X1        NOROW  1.0   LIM2  1.y")
        with pytest.raises(MpsFormatError) as err:
            parse_mps(bad)
        assert str(err.value) == "line 9: bad numeric field '1.y'"

    def test_non_ascii_byte_names_its_line(self, tmp_path):
        path = tmp_path / "accent.mps"
        path.write_bytes(TESTPROB.replace("LIM2", "Ré").encode("utf-8"))
        with pytest.raises(MpsFormatError) as err:
            read_mps(path)
        assert str(err.value) == "line 5: non-ASCII byte 0xc3"

    def test_non_ascii_character_in_text_names_its_line(self, tmp_path):
        # parse_mps reads the text as its UTF-8 bytes, so it faults the line
        # and the byte that read_mps does on the file; it once kept a row 'LIMé'
        text = TESTPROB.replace("LIM1", "LIMé")
        with pytest.raises(MpsFormatError) as err:
            parse_mps(text)
        assert str(err.value) == "line 4: non-ASCII byte 0xc3"
        path = tmp_path / "accent.mps"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(MpsFormatError) as err:
            read_mps(path)
        assert str(err.value) == "line 4: non-ASCII byte 0xc3"
        # a lone surrogate that escapes no byte has no UTF-8 form; it reads
        # as the three bytes that surrogatepass gives it
        with pytest.raises(MpsFormatError) as err:
            parse_mps(TESTPROB.replace("LIM2", "L\ud800"))
        assert str(err.value) == "line 5: non-ASCII byte 0xed"

    def test_nul_byte_names_its_line(self, tmp_path):
        # no name or number holds a NUL byte, in a text or in a file
        text = TESTPROB.replace("X1        LIM2", "X1        LIM2\x00")
        assert parsed_both_ways(text, tmp_path) == ["line 9: NUL byte"] * 2
        text = TESTPROB.replace("NAME          TESTPROB", "NAME          TEST\x00")
        assert parsed_both_ways(text, tmp_path) == ["line 1: NUL byte"] * 2

    def test_fault_before_a_non_ascii_byte_comes_first(self, tmp_path):
        path = tmp_path / "accent.mps"
        text = TESTPROB.replace("X1        LIM2            1.0", "X1        LIM2            1.x")
        text = text.replace("LIM1            4.0", "LIMé            4.0")
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(MpsFormatError) as err:
            read_mps(path)
        assert str(err.value) == "line 9: bad numeric field '1.x'"


def parsed_both_ways(text, tmp_path):
    """``text`` parsed by parse_mps, and its bytes read by read_mps: each
    the rendered problem, or the fault message."""
    path = tmp_path / "edge.mps"
    path.write_bytes(text.encode("ascii"))
    out = []
    for parse in (lambda: parse_mps(text), lambda: read_mps(path)):
        try:
            out.append(render_mps(parse()))
        except MpsFormatError as err:
            out.append(str(err))
    return out


#: TESTPROB's text changed where a reader splits lines and fields, and the
#: line that TESTPROB's line 14 becomes
EDGES = {
    "tabs": (lambda text: re.sub(" +", "\t", text), 14),
    # whitespace to str.split, but no line break
    "unit separator": (lambda text: re.sub(" +", "\x1f", text), 14),
    "blank lines": (lambda text: text.replace("COLUMNS\n", "COLUMNS\n\n \t\x1f \n\n"), 17),
    "crlf": (lambda text: text.replace("\n", "\r\n"), 14),
    "no final newline": (lambda text: text[:-1], 14),
    # a control byte that is not whitespace is part of the name it is in
    "bell in a name": (lambda text: text.replace("LIM1", "LI\x07M1"), 14),
}


@pytest.mark.usefixtures("block_lines")
class TestTokenizerEdges:
    """parse_mps on text and read_mps on its bytes agree, on the problem or
    on the fault and its line, at the edges of splitting lines and fields."""

    @pytest.mark.parametrize("edge", EDGES)
    def test_same_problem(self, edge, tmp_path):
        change, _ = EDGES[edge]
        expected = parse_mps(TESTPROB)
        if edge == "bell in a name":
            expected = dataclasses.replace(expected, row_names=("LI\x07M1", "LIM2", "MYEQN"))
        assert parsed_both_ways(change(TESTPROB), tmp_path) == [render_mps(expected)] * 2

    @pytest.mark.parametrize("edge", EDGES)
    def test_same_fault_line(self, edge, tmp_path):
        change, line = EDGES[edge]
        text = change(TESTPROB.replace("LIM1            4.0", "LIM1            4.O"))
        assert parsed_both_ways(text, tmp_path) == [f"line {line}: bad numeric field '4.O'"] * 2

    def test_control_byte_starts_a_header(self, tmp_path):
        # a line that starts with a byte that is not whitespace is a header
        text = TESTPROB.replace(" L  LIM1", "\x07L  LIM1")
        message = "line 4: malformed section header '\\x07L'"
        assert parsed_both_ways(text, tmp_path) == [message] * 2

    def test_fault_on_a_last_line_with_no_newline(self, tmp_path):
        text = TESTPROB.replace("-1.0\nENDATA\n", "-1.x")
        assert parsed_both_ways(text, tmp_path) == ["line 18: bad numeric field '-1.x'"] * 2

    @pytest.mark.parametrize("section", ["ROWS", "COLUMNS"])
    def test_fault_on_the_first_line_of_a_block(self, block_lines, section, tmp_path):
        # the first line after line 4 that starts a block
        at = block_lines * -(-4 // block_lines) + 1
        if section == "ROWS":
            lines = ["NAME          EDGE", "ROWS", " N  OBJ"]
            lines += [f" L  R{k}" for k in range(at)] + ["COLUMNS", "    X  OBJ  1.0"]
            lines[at - 1], message = " L  R0", "duplicate row 'R0'"
        else:
            lines = ["NAME          EDGE", "ROWS", " N  OBJ", "COLUMNS"]
            lines += [f"    X{k}  OBJ  1.0" for k in range(at)]
            lines[at - 1], message = f"    X{at}  OBJ  1.z", "bad numeric field '1.z'"
        text = "\n".join(lines + ["ENDATA", ""])
        assert parsed_both_ways(text, tmp_path) == [f"line {at}: {message}"] * 2


def test_long_name_is_a_fault_of_its_line(block_lines, tmp_path):
    """A row, column or problem name longer than 8 characters is a fault of
    the first line that holds it, in every section, from a text and from a
    file; the message quotes the name's first 8 characters. Two rows alike
    in their first 8 characters are not read as one."""
    for old, new, line, message in [
        ("LIM1", "LIMIT_ROW_1", 4, "row name 'LIMIT_RO'"),
        ("LIM2", "LIMIT_ROW_2_17CHR", 5, "row name 'LIMIT_RO'"),
        ("X2", "X2_IS_A_MUCH_LONGER_NAME_THAN_EIGHT", 10, "column name 'X2_IS_A_'"),
        ("X1        LIM2", "X1        LIMIT_ROW_2", 9, "row name 'LIMIT_RO'"),
        ("RHS1      MYEQN", "RHS1      MYEQN_ROW", 15, "row name 'MYEQN_RO'"),
        ("LO BND1      X2", "LO BND1      X2_LONG_NAME", 18, "column name 'X2_LONG_'"),
        ("TESTPROB", "TESTPROBLEM", 1, "problem name 'TESTPROB'"),
    ]:
        text = TESTPROB.replace(old, new)
        expected = f"line {line}: {message}... is longer than 8 characters"
        assert parsed_both_ways(text, tmp_path) == [expected] * 2


#: the most a traced write or read may allocate at once, per byte of file
PEAK_PER_FILE_BYTE = 5.0


def test_peak_memory_follows_the_block_not_the_file(tmp_path, monkeypatch):
    """Writing or reading an MPS file holds about one block's text and
    tokens beyond the problem, not the whole file: at 14 days the case D
    file spans ten 4,096-line blocks, and a whole-text writer or reader
    allocates 7 to 12 times the file size at once."""
    monkeypatch.setattr(mps, "_BLOCK_LINES", 4096)
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"weather": {"synthetic": {"days": 14}}}))
    config = load_run_config(config_path)
    problem = build_case("D", build_power_series(config), config.battery, config.econ,
                         config.constraints, diesel=config.diesel).problem
    path = tmp_path / "case_D.mps"
    peaks = []
    for step in (lambda: write_mps(problem, path), lambda: read_mps(path)):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert path.read_text().count("\n") > 8 * 4096
    write_peak, read_peak = peaks
    size = path.stat().st_size
    assert write_peak < PEAK_PER_FILE_BYTE * size
    assert read_peak < PEAK_PER_FILE_BYTE * size


def test_a_long_name_widens_no_other(tmp_path):
    """A field holds its tokens as wide as its widest, so one 100,000-byte
    row name among 2,000 short ones, in a run of 2,000 lines of ROWS or of
    COLUMNS, is read in smaller runs up to its fault: reading the file holds
    a few megabytes, not the 200 MB of 2,000 fields that wide."""
    long_name = "R" * 100_000
    lines = ["NAME          LONG", "ROWS", " N  OBJ"] + [f" L  R{k:07d}" for k in range(2000)]
    lines += [f" L  {long_name}", "COLUMNS"] + [f"    X{k}  R{k:07d}  1.0" for k in range(2000)]
    lines[-1000] = f"    X1000  {long_name}  2.0"
    declared = "\n".join(lines + ["ENDATA", ""])
    undeclared = declared.replace(f" L  {long_name}\n", "")
    message = "row name 'RRRRRRRR'... is longer than 8 characters"
    for text, line in ((declared, 2004), (undeclared, 3005)):
        path = tmp_path / "long.mps"
        path.write_bytes(text.encode("ascii"))
        for read in (lambda: parse_mps(text), lambda: read_mps(path)):
            tracemalloc.start()
            try:
                with pytest.raises(MpsFormatError) as err:
                    read()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert str(err.value) == f"line {line}: {message}"
            assert peak < 16 * 2**20
