import os
import subprocess
import sys
from pathlib import Path

import pytest

from plft_forest import census_rows
from plft_forest.cli import main

HVALS = [1, 4, 7, 13, 15, 26, 25, 39, 40, 54, 49, 79, 63, 88, 88]
REPO = Path(__file__).resolve().parents[1]


def run_python(*argv, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


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
    ],
)
def test_input_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err


def test_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.txt"
    code, out, err = run(capsys, "root", "7,8,4,5", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err
    assert not target.exists()


def test_cli_import_loads_only_the_standard_library():
    code = (
        "import sys; before = set(sys.modules); import plft_forest.cli; "
        "print(sorted({n.partition('.')[0] for n in set(sys.modules) - before} - set(sys.stdlib_module_names)))"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['plft_forest']\n"


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
