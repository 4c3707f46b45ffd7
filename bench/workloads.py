"""The four workloads: their inputs, their operations and the checks on each.

A workload yields *rounds*, lists of `Op`s run back to back by one
client (a closed loop).  A run always finishes the round it is in, so
every round it reports is complete, and rounds can be compared by
ops per second (see `run.slow_sample`).
Inputs come only from the seed; the library sees only the generated
values.  Each op's answer is checked against the generators in `gen`.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shlex
import subprocess
import sys
from fractions import Fraction

import gen

TREE_ROUND = 16
# A fixed run count keeps the per-op work of tree_runs alike from op to op.
LONG_RUNS_PER_WORD = 6
CLI_ROUND = ("short",) * 7 + ("numeric",) * 2 + ("invalid",)


class Op:
    """One operation: ``run`` calls the library, ``check`` judges its result untimed."""

    __slots__ = ("kind", "run", "check", "bits", "moves", "argv")

    def __init__(self, kind, run, check, bits=0, moves=0, argv=None):
        self.kind, self.run, self.check = kind, run, check
        self.bits, self.moves, self.argv = bits, moves, argv


def _coeffs(p):
    return (p.a, p.b, p.c, p.d)


def _spots(rng, n):
    """Ancestor positions to check: the parent, the root and four random ones."""
    return sorted({1, n} | {rng.randint(1, n) for _ in range(4)})


# ---------------------------------------------------------------------------
# tree_small and tree_runs
# ---------------------------------------------------------------------------

class TreeWorkload:
    """PLFT ops on words of runs; one op in four also walks a complex chain.

    ``plft_shape`` and ``complex_shape`` return the (draw_length,
    min_moves, max_moves, n_runs) arguments of `gen.random_runs`.
    """

    def __init__(self, lib, seed, long_runs):
        self.lib = lib
        self.rng = random.Random(seed)
        rng = self.rng
        if long_runs:
            plft_len = gen.LogUniform(rng, 10**4).draw
            complex_len = gen.LogUniform(rng, 10**2).draw
            self.plft_shape = lambda: (plft_len, 0, 0, LONG_RUNS_PER_WORD)
            self.complex_shape = lambda: (complex_len, 0, 0, LONG_RUNS_PER_WORD)
        else:
            short = lambda: rng.randint(1, 3)  # noqa: E731
            self.plft_shape = self.complex_shape = lambda: (short, 10, 40, 0)

    def rounds(self):
        while True:
            complex_slots = {4 * b + self.rng.randrange(4) for b in range(TREE_ROUND // 4)}
            yield [self.make_op(i in complex_slots) for i in range(TREE_ROUND)]

    def make_op(self, with_complex: bool) -> Op:
        rng, lib = self.rng, self.lib
        runs = gen.random_runs(rng, *self.plft_shape())
        g = gen.random_orphan(rng, 8, 40)
        w = gen.runs_matrix(runs, g)
        m = gen.runs_matrix(runs)
        word = gen.expand(runs)
        n = len(word)
        r = gen.value_at_one(m)
        ancestors = {j: gen.value_at_one(gen.runs_matrix(gen.drop_moves(runs, j))) for j in _spots(rng, n)}
        ancestor = ancestors[rng.choice(sorted(ancestors))]

        chain = None
        if with_complex:
            u, v = rng.randint(1, 3), rng.randint(1, 3)
            cruns = gen.random_runs(rng, *self.complex_shape())
            z0 = gen.random_complex_orphan(rng, u, v, 6)
            z = gen.complex_apply(z0, cruns, u, v)
            cword = gen.expand(cruns)
            cspots = {j: gen.complex_apply(z0, gen.drop_moves(cruns, j), u, v) for j in _spots(rng, len(cword))}
            chain = (u, v, z0, z, cword, cspots)

        def run():
            P = lib.Plft
            wp = P(*w)
            root, found = lib.root_by_iteration(wp)
            out = [root, found, lib.orphan_root_cf(wp).root]
            out.append(lib.evaluate_plft_cf(lib.plft_cf_expand(wp)))
            out.append(lib.decompose_special(P(*m)))
            out.append(lib.apply_word(root, found))
            out.append(lib.ancestors_of_rational(r))
            out.append(lib.is_descendant_rational(ancestor, r))
            out.append(lib.is_descendant_rational(r + 1, r))
            if chain:
                u, v, _, z, _, _ = chain
                params = lib.OrphanParams(u, v)
                croot, steps = lib.ancestor_chain(lib.GaussianRational(*z), params)
                out += [croot, steps, lib.replay_chain(croot, steps, params)]
            return out

        def check(out):
            root, found, cf_root, back, dec, trip, anc, yes, no = out[:9]
            ok = (_coeffs(root) == g and found == word and _coeffs(cf_root) == g and _coeffs(back) == w
                  and dec == word and _coeffs(trip) == w and len(anc) == n
                  and all(anc[j - 1] == value for j, value in ancestors.items())
                  and yes is True and no is False)
            if ok and chain:
                _, _, z0, z, cword, cspots = chain
                croot, steps, replay = out[9:]
                ok = ((croot.re, croot.im) == z0 and tuple(s.move for s in steps) == cword
                      and all((steps[j - 1].value.re, steps[j - 1].value.im) == value for j, value in cspots.items())
                      and (replay.re, replay.im) == z)
            return ok

        moves = n + (len(chain[4]) if chain else 0)
        return Op("complex" if chain else "plft", run, check, bits=max(w).bit_length(), moves=moves)


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

CENSUS_DMAX = 200


class CensusWorkload:
    """The figure-data job: census rows 1..200, then the summatory and harmonic series.

    Each round (one job) starts from a fresh import of the package, so
    the module caches are as cold as in a new figure-data process; numpy
    itself stays loaded.  The seed jitters the series points; the largest
    points stay near 4*10^4 and 10^4 so every job does the same work
    to within a few percent.
    """

    repeats = True  # every round is the same job

    def __init__(self, lib, seed, reimport):
        self.lib, self.reimport = lib, reimport
        rng = random.Random(seed)
        top = round(40_000 * rng.uniform(0.98, 1.0))
        mid = round(10 ** rng.uniform(2.5, 3.5))
        self.summatory_points = [15, mid, 10**4, top]
        self.series_points = sorted({100, round(10 ** rng.uniform(3, 4)), top})
        self.harmonic_points = [rng.randint(50, 200), round(10 ** rng.uniform(2.5, 3.5)), rng.randint(9_500, 10**4)]
        self.ref = gen.CensusReference(top)
        if [self.ref.row(d)[3] for d in range(1, 16)] != list(gen.H_TABLE):
            raise RuntimeError("census reference disagrees with the published h(1..15)")
        for x, expected in gen.SUMMATORY_ANCHORS.items():
            if self.ref.summatory(x) != expected:
                raise RuntimeError(f"census reference disagrees with summatory_h({x}) = {expected}")

    def begin_round(self):
        self.lib = self.reimport()

    def rounds(self):
        while True:
            yield self.job()

    def job(self):
        ops = [self._row_op(d) for d in range(1, CENSUS_DMAX + 1)]
        ops += [self._summatory_op(x) for x in self.summatory_points]
        ops.append(self._series_op(self.series_points))
        ops += [self._harmonic_op(x) for x in self.harmonic_points]
        return ops

    def _row_op(self, d):
        expected = self.ref.row(d)

        def check(row):
            return (row.D == d and (row.nu2, row.sigma, row.tau, row.h_closed) == expected
                    and row.h_direct == row.orphan_count == expected[3])

        return Op("census_row", lambda: self.lib.census_row(d), check, bits=d.bit_length(), moves=d)

    def _summatory_op(self, x):
        expected = self.ref.summatory(x)
        return Op("summatory_h", lambda: self.lib.summatory_h(x), lambda s: s == expected, bits=x.bit_length())

    def _series_op(self, xs):
        expected = [(x, self.ref.summatory(x), gen.summatory_reference_curve(x)) for x in xs]

        def check(points):
            return len(points) == len(xs) and all(
                p.x == x and p.summatory == s and math.isclose(p.reference, ref, rel_tol=1e-12)
                and math.isclose(p.ratio, s / ref, rel_tol=1e-12)
                for p, (x, s, ref) in zip(points, expected))

        return Op("ratio_series", lambda: self.lib.ratio_series(list(xs)), check, bits=max(xs).bit_length())

    def _harmonic_op(self, x):
        expected = gen.harmonic_reference(x)
        return Op("harmonic_double_sum", lambda: self.lib.harmonic_double_sum(x),
                  lambda s: math.isclose(s, expected, rel_tol=1e-9), bits=x.bit_length())


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

README_EXAMPLES = (
    ("root 7,8,4,5", "root=(2z+1)/(z+2) word=RLR"),
    ("cf 86,30,60,21", "[1;2,3,4,| 2,0,0,3]"),
    ("cf 151/127", "[1;5,3,2,3]"),
    ("decompose 43,10,30,7", "word=RLLRRRLLLL"),
    ("descend 3/4 7/4", "true"),
    ("descend 7/4", "3/4\n3\n2\n1"),
    ("corphan 1+1*i --u 1 --v 1", "true"),
    ("cchain 1/4+1/4*i --u 1 --v 1", "root=1/5+2/5*i steps=1 moves=L"),
    ("cchain 5/2+1*i --format csv", "step,move,re,im\n1,R,3/2,1\n2,R,1/2,1"),
)

INVALID = (
    "root 1,2,2,4",
    "root 1,2,3",
    "cf 0",
    "cf 1,2,2,4",
    "descend 0/1 1/2",
    "cchain 0+1*i",
    "series --points x",
    "census --max abc",
)

# Known defect, run once per run and reported beside the ops: the parser
# lets ZeroDivisionError escape, so this exits 1 with a traceback.
REFUSAL_PROBE = "corphan 1/0+1*i"


def _linear(z: int, const: int) -> str:
    z_part = "" if z == 0 else ("z" if z == 1 else f"{z}z")
    if not z_part:
        return str(const)
    return z_part if const == 0 else f"{z_part}+{const}"


def format_plft(m) -> str:
    """The CLI's display form of (a*z+b)/(c*z+d), e.g. (2z+1)/(z+2)."""
    a, b, c, d = m
    num, den = _linear(a, b), _linear(c, d)
    if den == "1":
        return num
    if "+" in num:
        num = f"({num})"
    if den != "z" and not den.isdigit():
        den = f"({den})"
    return f"{num}/{den}"


def _cf_text(r: Fraction) -> str:
    n, d, terms = r.numerator, r.denominator, []
    while d:
        q, rem = divmod(n, d)
        terms.append(q)
        n, d = d, rem
    return f"[{terms[0]}]" if len(terms) == 1 else f"[{terms[0]};{','.join(map(str, terms[1:]))}]"


def _floats_match(text: str, expected_rows) -> bool:
    lines = text.split("\n")
    if len(lines) != len(expected_rows) + 1:
        return False
    for line, row in zip(lines[1:], expected_rows):
        fields = line.split(",")
        if len(fields) != len(row) or int(fields[0]) != row[0]:
            return False
        for field, want in zip(fields[1:], row[1:]):
            if isinstance(want, int):
                if int(field) != want:
                    return False
            elif not math.isclose(float(field), want, rel_tol=1e-9):
                return False
    return True


class CliWorkload:
    """``plft-forest`` subprocesses: short commands, numeric commands and refusals.

    Every round holds seven short commands, two numeric ones and one
    invalid input, in a seeded order.  In the traced run the same argv
    lists also run in-process through ``cli.main``.
    """

    def __init__(self, src, seed):
        self.rng = random.Random(seed)
        self.env = dict(os.environ, PYTHONPATH=src)
        self.ref = gen.CensusReference(2000)
        self.peak_rss_kb = 0

    def spawn(self, line: str):
        """Run one command; returns (exit code, stdout+stderr) and keeps the child's peak RSS."""
        argv = [sys.executable, "-m", "plft_forest.cli", *shlex.split(line)]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=self.env)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode("utf-8", "replace").rstrip("\n")

    def rounds(self):
        while True:
            kinds = list(CLI_ROUND)
            self.rng.shuffle(kinds)
            yield [self.make_op(kind) for kind in kinds]

    def make_op(self, kind: str) -> Op:
        line, expected_exit, check_text = getattr(self, f"_{kind}")()

        def check(result):
            code, text = result
            if code != expected_exit or "Traceback" in text:
                return False
            return check_text(text)

        return Op(kind, lambda: self.spawn(line), check, argv=shlex.split(line))

    def _short(self):
        rng = self.rng
        pick = rng.randrange(8)
        if pick == 0:
            line, want = rng.choice(README_EXAMPLES)
            return line, 0, want.__eq__
        runs = gen.random_runs(rng, lambda: rng.randint(1, 3), 3, 12)
        word = "".join(gen.expand(runs))
        g = gen.random_orphan(rng, 2, 12)
        w, m = gen.runs_matrix(runs, g), gen.runs_matrix(runs)
        r = gen.value_at_one(m)
        if pick == 1:
            return f"root {','.join(map(str, w))}", 0, f"root={format_plft(g)} word={word}".__eq__
        if pick == 2:
            return f"decompose {','.join(map(str, m))}", 0, f"word={word}".__eq__
        if pick == 3:
            return f"cf {r}", 0, _cf_text(r).__eq__
        if pick == 4:
            chain = [str(gen.value_at_one(gen.runs_matrix(gen.drop_moves(runs, j)))) for j in range(1, len(word) + 1)]
            return f"descend {r}", 0, "\n".join(chain).__eq__
        if pick == 5:
            j = rng.randint(1, len(word))
            ancestor = gen.value_at_one(gen.runs_matrix(gen.drop_moves(runs, j)))
            # The right child r + 1 lies below r, so it is never r's ancestor.
            first, want = (ancestor, "true") if rng.random() < 0.5 else (r + 1, "false")
            return f"descend {first} {r}", 0, want.__eq__
        u, v = rng.randint(1, 3), rng.randint(1, 3)
        z0 = gen.random_complex_orphan(rng, u, v, 4)
        cruns = gen.random_runs(rng, lambda: rng.randint(1, 3), 3, 12)
        z = gen.complex_apply(z0, cruns, u, v)
        if pick == 6:
            point, want = (z0, "true") if rng.random() < 0.5 else (z, "false")
            return f"corphan {gen.format_gaussian(point)} --u {u} --v {v}", 0, want.__eq__
        cword = "".join(gen.expand(cruns))
        want = f"root={gen.format_gaussian(z0)} steps={len(cword)} moves={cword}"
        return f"cchain {gen.format_gaussian(z)} --u {u} --v {v}", 0, want.__eq__

    def _numeric(self):
        rng, ref = self.rng, self.ref
        pick = rng.randrange(3)
        if pick == 0:
            dmax = rng.randint(30, 45)
            rows = ["D,nu2,sigma,tau,h"] + [",".join(map(str, (d,) + ref.row(d))) for d in range(1, dmax + 1)]
            return f"census --max {dmax}", 0, "\n".join(rows).__eq__
        if pick == 1:
            xs = sorted({rng.randint(10, 200), rng.randint(200, 2000)})
            rows = []
            for x in xs:
                s, curve = ref.summatory(x), gen.summatory_reference_curve(x)
                rows.append((x, s, curve, s / curve))
            return f"series --points {','.join(map(str, xs))}", 0, lambda text: _floats_match(text, rows)
        xs = sorted({rng.randint(2, 100), rng.randint(100, 400)})
        rows = []
        for x in xs:
            total, curve = gen.harmonic_reference(x), 0.5 * math.log(x) ** 2
            rows.append((x, total, curve, total / curve))
        return f"aux --points {','.join(map(str, xs))}", 0, lambda text: _floats_match(text, rows)

    def _invalid(self):
        return self.rng.choice(INVALID), 2, lambda text: True


def run_cli_inprocess(cli, argv):
    """``cli.main(argv)`` with its output captured: (exit code, stdout+stderr)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue().rstrip("\n")
