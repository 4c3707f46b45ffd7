import contextlib
import io
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REPO, run_python
from plft_forest import census_rows
from plft_forest.cli import build_parser, main

HVALS = [1, 4, 7, 13, 15, 26, 25, 39, 40, 54, 49, 79, 63, 88, 88]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_root_command(capsys):
    code, out, _ = run(capsys, "root", "7,8,4,5")
    assert code == 0
    assert out == "root=(2z+1)/(z+2) word=RLR\n"


def test_root_of_orphan(capsys):
    code, out, _ = run(capsys, "root", "1,2,2,1")
    assert code == 0
    assert out == "root=(z+2)/(2z+1) word=\n"


def test_cf_command_plft_and_rational(capsys):
    assert run(capsys, "cf", "7,8,4,5")[1] == "[1;1,1,| 1,2,2,1]\n"
    assert run(capsys, "cf", "43,10,30,7")[1] == "[1;2,3,4,| 1,0,0,1]\n"
    assert run(capsys, "cf", "151/127")[1] == "[1;5,3,2,3]\n"
    assert run(capsys, "cf", "1,2,2,1")[1] == "[| 1,2,2,1]\n"


def test_decompose_command(capsys):
    assert run(capsys, "decompose", "43,10,30,7")[1] == "word=RLLRRRLLLL\n"
    assert run(capsys, "decompose", "1,2,2,1")[1] == "none\n"


def test_descend_command(capsys):
    assert run(capsys, "descend", "3/4", "7/4")[1] == "true\n"
    assert run(capsys, "descend", "8/3", "7/4")[1] == "false\n"
    assert run(capsys, "descend", "7/4")[1] == "3/4\n3\n2\n1\n"
    # on an L-run of 10^18 - 1 moves, taken whole
    assert run(capsys, "descend", f"1/{10**17}", f"{10**18 + 1}/{10**18}")[1] == "true\n"


def test_census_matches_table(capsys):
    code, out, _ = run(capsys, "census", "--max", "15")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "D,nu2,sigma,tau,h"
    assert len(lines) == 16
    assert [int(line.split(",")[4]) for line in lines[1:]] == HVALS


def test_census_byte_stable_and_matches_library(capsys, tmp_path):
    first = run(capsys, "census", "--max", "15")[1]
    second = run(capsys, "census", "--max", "15")[1]
    assert first == second
    target = tmp_path / "census.csv"
    assert run(capsys, "census", "--max", "15", "--out", str(target))[0] == 0
    assert target.read_text(encoding="utf-8") == first
    rebuilt = "D,nu2,sigma,tau,h\n" + "\n".join(
        f"{r.D},{r.nu2},{r.sigma},{r.tau},{r.h_closed}" for r in census_rows(15)
    )
    assert first == rebuilt + "\n"


def test_series_command(capsys):
    code, out, _ = run(capsys, "series", "--points", "15,100")
    lines = out.strip().split("\n")
    assert lines[0] == "x,summatory,reference,ratio"
    assert lines[1].startswith("15,591,")
    assert len(lines) == 3


def test_series_rows_at_one_and_two(capsys):
    # x = 1 has reference 0 and ratio inf; x = 2 has a reference below 1
    code, out, _ = run(capsys, "series", "--points", "1,2")
    assert code == 0
    assert out == "x,summatory,reference,ratio\n1,1,0.0,inf\n2,5,0.4804530139182014,10.40684490502804\n"


def test_aux_command(capsys):
    code, out, _ = run(capsys, "aux", "--points", "2")
    assert code == 0
    assert out.strip().split("\n")[1].startswith("2,0.5,")


def test_corphan_command(capsys):
    assert run(capsys, "corphan", "1+1*i")[1] == "true\n"
    assert run(capsys, "corphan", "1/4+1/4*i")[1] == "false\n"


def test_cchain_command(capsys):
    code, out, _ = run(capsys, "cchain", "1/4+1/4*i", "--u", "1", "--v", "1")
    assert code == 0
    assert out == "root=1/5+2/5*i steps=1 moves=L\n"


def test_cchain_long_run(capsys):
    # one R-run of 1999999 moves, climbed by one division
    code, out, _ = run(capsys, "cchain", "2000000+1*i")
    assert code == 0
    assert out == "root=1+1*i steps=1999999 moves=" + "R" * 1999999 + "\n"


def test_cchain_csv_format(capsys):
    code, out, _ = run(capsys, "cchain", "5/2+1*i", "--format", "csv")
    assert code == 0
    assert out == "step,move,re,im\n1,R,3/2,1\n2,R,1/2,1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("root", "1,2,2,4"),          # zero determinant
        ("root", "1,2,3"),            # malformed matrix
        ("cf", "0/5"),                # nonpositive rational
        ("descend", "0/4", "7/4"),    # nonpositive rational
        ("corphan", "1+0*i"),         # boundary of the quadrant
        ("cchain", "nonsense"),       # unparseable complex number
        ("census", "--max", "0"),     # empty census
        ("series", "--points", "x"),  # malformed point list
        ("corphan", "1/0+1*i"),       # zero denominator
        ("census", "--max", str(10**400)),         # past any table index
        ("series", "--points", f"15,{10**400}"),  # past any table index
    ],
)
def test_input_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [("census", "--max"), ("series", "--points")])
def test_sizes_past_memory_exit_2(capsys, argv):
    # just under sys.maxsize the table allocation fails at once, without allocating
    code, out, err = run(capsys, *argv, str(sys.maxsize - 1))
    assert (code, out, err) == (2, "", "error: not enough memory for this input\n")


INDEX = "cannot fit 'int' into an index-sized integer"
SSIZE = "Python int too large to convert to C ssize_t"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("root", f"{10**20},1,1,0"), INDEX),
        (("decompose", f"{10**20 + 1},{10**20},1,1"), INDEX),
        (("cchain", f"{10**20}+1*i"), INDEX),
        (("cchain", f"{10**20}+1*i", "--format", "csv"), SSIZE),
        (("descend", str(10**20 + 2)), SSIZE),
    ],
)
def test_runs_past_sys_maxsize_exit_2(capsys, argv, reason):
    # a walk with a run of about 10^20 moves cannot be spelled a move at a
    # time; the command refuses before it allocates any of the moves
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: input too large: {reason}\n")
    args = build_parser().parse_args(argv)
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError):
            args.handler(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "root", "7,8,4,5", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err
    assert not target.exists()


def test_cli_import_loads_only_the_standard_library():
    # and neither dataclasses nor the inspect it imports, which were the
    # largest import the library made; the value classes need neither
    code = (
        "import sys; before = set(sys.modules); "
        "import plft_forest.plft, plft_forest.cf, plft_forest.census, plft_forest.complex_forest, plft_forest.cli; "
        "new = set(sys.modules) - before; "
        "print(sorted({n.partition('.')[0] for n in new} - set(sys.stdlib_module_names))); "
        "print(sorted({'dataclasses', 'inspect'} & new))"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['plft_forest']\n[]\n"


def test_figure_data_script(tmp_path):
    script = str(REPO / "scripts" / "figure_data.py")
    proc = run_python(script, "--out-dir", str(tmp_path), "--max", "15", "--points", "15,100",
                      "--aux-points", "2,100")
    assert proc.returncode == 0, proc.stderr
    census = (tmp_path / "census.csv").read_text(encoding="utf-8").splitlines()
    assert census[0] == "D,nu2,sigma,tau,h"
    assert [int(line.split(",")[4]) for line in census[1:]] == HVALS
    summatory = (tmp_path / "summatory.csv").read_text(encoding="utf-8").splitlines()
    assert summatory[0] == "x,summatory,reference,ratio"
    assert summatory[1].startswith("15,591,")
    assert len(summatory) == 3
    aux = (tmp_path / "aux.csv").read_text(encoding="utf-8").splitlines()
    assert aux[1].startswith("2,0.5,")

    bad = run_python(script, "--out-dir", str(tmp_path / "bad"), "--max", "15", "--points", "x")
    assert bad.returncode == 2
    assert "error:" in bad.stderr
    assert "Traceback" not in bad.stderr


def test_unknown_command_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


LOADED_BY = (
    "import contextlib, io, sys\n"
    "from plft_forest.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    try:\n"
    "        main(sys.argv[1:])\n"
    "    except SystemExit:\n"
    "        pass\n"
    "print(' '.join(sorted(n for n in sys.modules if n.startswith('plft_forest.') or n == 'fractions')))\n"
)
SHELL = {"plft_forest.cli", "plft_forest.errors"}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (("root", "7,8,4,5"), {"plft_forest.cf", "plft_forest.plft", "fractions"}),
        (("census", "--max", "15"), {"plft_forest.census"}),
        (("cchain", "1/4+1/4*i"), {"plft_forest.complex_forest", "plft_forest.plft", "fractions"}),
        (("census", "--max", "abc"), set()),  # refused by argparse
    ],
)
def test_command_loads_only_its_modules(argv, loaded):
    proc = run_python("-c", LOADED_BY, *argv)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == SHELL | loaded


# Sizes stay small (--max <= 30, points <= 10^4, magnitudes <= 10^3) so
# that every example answers in milliseconds; junk holds no digits, so it
# never parses as a larger number.
_JUNK = st.text(alphabet="-+/*,.ix e", max_size=6)
_MAGNITUDE = st.integers(0, 1000) | st.integers(-1000, 1000)
_INT = _MAGNITUDE.map(str)
_RATIONAL = st.builds("{}/{}".format, _MAGNITUDE, _MAGNITUDE)
_NUMBER = st.one_of(_INT, _RATIONAL)
_PLFT = (st.lists(_MAGNITUDE, min_size=4, max_size=4) | st.lists(_MAGNITUDE, min_size=3, max_size=5)).map(
    lambda xs: ",".join(map(str, xs))
)
_COMPLEX = st.builds("{}+{}*i".format, _NUMBER, _NUMBER)
_VALUE = st.one_of(_NUMBER, _PLFT, _COMPLEX, _JUNK)
_POINTS = st.one_of(st.lists(st.integers(-10, 10**4), max_size=3).map(lambda xs: ",".join(map(str, xs))), _JUNK)
# what each command needs, mostly well-formed so that most examples reach the library
_REQUIRED = {
    "root": st.tuples(st.one_of(_PLFT, _VALUE)),
    "decompose": st.tuples(st.one_of(_PLFT, _VALUE)),
    "cf": st.tuples(_VALUE),
    "descend": st.lists(st.one_of(_RATIONAL, _VALUE), min_size=1, max_size=2).map(tuple),
    "census": st.tuples(st.just("--max"), st.one_of(st.integers(-5, 150).map(str), _JUNK)),
    "series": st.tuples(st.just("--points"), _POINTS),
    "aux": st.tuples(st.just("--points"), _POINTS),
    "corphan": st.tuples(st.one_of(_COMPLEX, _VALUE)),
    "cchain": st.tuples(st.one_of(_COMPLEX, _VALUE)),
    "frobnicate": st.tuples(),
}
_OUT = st.tuples(st.just("--out"), st.sampled_from(["{tmp}/out.txt", "{tmp}/missing/out.txt", "{tmp}"]))
_COMPLEX_OPTIONS = st.one_of(
    st.tuples(st.sampled_from(["--u", "--v"]), st.one_of(_INT, _JUNK)),
    st.tuples(st.just("--format"), st.sampled_from(["text", "csv", "xml"])),
    _OUT,
)
_EXTRA = st.one_of(
    _VALUE.map(lambda v: (v,)),
    _COMPLEX_OPTIONS,
    # a flag without its value; not --out, whose value could then be a file name in the working directory
    st.sampled_from(["--max", "--points", "--u", "--format", "-h"]).map(lambda flag: (flag,)),
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(_REQUIRED)))
    fitting = _COMPLEX_OPTIONS if command in ("corphan", "cchain") else _OUT
    pieces = [draw(_REQUIRED[command]), *draw(st.lists(fitting | _EXTRA, max_size=2))]
    return [command, *(token for piece in pieces for token in piece)]


@settings(max_examples=400, deadline=None)
@given(argvs())
def test_fuzz_main_exits_0_or_2(argv):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [token.format(tmp=tmp) for token in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: 2 on a usage error, 0 after -h
                code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
