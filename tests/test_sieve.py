import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import pytest

import diocurves
import diocurves.sieve as sieve_mod
from diocurves import weierstrass
from diocurves._poly import rational_roots
from diocurves.cli import _grid
from diocurves.errors import BadReduction, DiocurvesError
from diocurves.families import (FAMILY_CONSTRUCTORS, K_PLUSMINUS,
                                dataset_record, family_k, z2z8_family)
from diocurves.sieve import (
    count_points_fp,
    mestre_nagao_sum,
    mestre_nagao_sums,
    primes_upto,
    trace_of_frobenius,
)
from diocurves.triples import induced_curves, make_triple
from diocurves.weierstrass import (IDENTITY_MAP, CurveQ, clear_denominators,
                                   invariants, minimal_model, two_torsion_x)
from test_torsion import KUBERT

E37 = CurveQ(0, 0, 1, -1, 0)
E11 = CurveQ(0, -1, 1, -10, -20)


def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_upto(10**4)) == 1229


def brute_count(coeffs, p):
    a1, a2, a3, a4, a6 = [c % p for c in coeffs]
    n = 1
    for x in range(p):
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y) % p == (
                    x ** 3 + a2 * x * x + a4 * x + a6) % p:
                n += 1
    return n


def test_count_points_matches_brute_force():
    for E in (E37, E11, CurveQ(1, 1, 1, 0, 0)):
        coeffs = [int(a) for a in E.coefficients()]
        for p in (3, 5, 7, 11, 13, 17, 101):
            try:
                fast = count_points_fp(E, p)
            except BadReduction:
                continue
            assert fast == brute_count(coeffs, p), (E, p)


def test_count_points_p2_and_bad_primes():
    assert count_points_fp(E37, 2) == brute_count([0, 0, 1, -1, 0], 2)
    with pytest.raises(BadReduction):
        count_points_fp(E37, 37)
    with pytest.raises(BadReduction):
        count_points_fp(E11, 11)


def reference_count(E, p):
    """#E(F_p) by a scalar loop, or None at a prime of bad reduction.

    The integral model is completed to y^2 = 4x^3 + b2 x^2 + 2b4 x + b6
    and each fibre size is read off the quadratic character; p = 2 is
    counted by brute force on the integral model.
    """
    Ei, _ = clear_denominators(E)
    inv = invariants(Ei)
    if int(inv.disc) % p == 0:
        return None
    if p == 2:
        return brute_count([int(a) for a in Ei.coefficients()], 2)
    b2, b4, b6 = int(inv.b2), int(inv.b4), int(inv.b6)
    c3, c2, c1, c0 = 4 % p, b2 % p, (2 * b4) % p, b6 % p
    sq = bytearray(p)
    for i in range(p):
        sq[i * i % p] = 1
    total = 0
    for x in range(p):
        f = ((c3 * x + c2) * x + c1) * x % p
        f = (f + c0) % p
        if f:
            total += 1 if sq[f] else -1
    return p + 1 + total


def test_count_points_matches_reference_loop():
    for E in (E37, E11, CurveQ(0, F(35, 4), 0, 18, 9)):
        for p in primes_upto(1100):
            want = reference_count(E, p)
            if want is None:
                with pytest.raises(BadReduction):
                    count_points_fp(E, p)
            else:
                assert count_points_fp(E, p) == want, (E, p)


def reference_sum(E, limit):
    """The Mestre-Nagao sum from reference counts, ascending primes."""
    total = 0.0
    used = skipped = 0
    for p in primes_upto(limit):
        n = reference_count(E, p)
        if n is None:
            skipped += 1
            continue
        used += 1
        total += (1.0 - (p - 1) / n) * math.log(p)
    return total, used, skipped


def test_mestre_nagao_sums_bit_identical():
    limit = 1000
    curves = []
    for k in range(2, 60):
        try:
            triple = FAMILY_CONSTRUCTORS[K_PLUSMINUS](F(k, 3))
        except DiocurvesError:
            continue
        curves.append(clear_denominators(induced_curves(triple).curve)[0])
        if len(curves) == 24:
            break
    # the batch must fill more than one kernel block at the largest prime
    p = primes_upto(limit)[-1]
    good = [E for E in curves if reference_count(E, p) is not None]
    assert len(good) * p > sieve_mod._BLOCK_ELEMENTS
    batch = mestre_nagao_sums(curves, limit)
    assert len(batch) == len(curves)
    for E, res in zip(curves, batch):
        total, used, skipped = reference_sum(E, limit)
        assert repr(res.value) == repr(total)
        assert (res.primes_used, res.primes_skipped) == (used, skipped)
        assert mestre_nagao_sums([E], limit)[0] == res
    # the grid has bad primes beyond p = 2
    assert any(r.primes_skipped > 1 for r in batch)
    assert mestre_nagao_sums([], limit) == []


def test_trace_of_frobenius_hasse_violation_raises(monkeypatch):
    # an impossible count must fail loudly, also under python -O
    monkeypatch.setattr(sieve_mod, "count_points_fp", lambda E, p: 2 * p + 7)
    with pytest.raises(ArithmeticError):
        trace_of_frobenius(E37, 101)


def test_count_points_rational_model():
    # a rationally scaled model has the same counts at shared good primes
    E_frac = CurveQ(0, F(35, 4), 0, 18, 9)
    E_int = CurveQ(0, 35, 0, 288, 576)
    for p in (101, 103, 107):
        assert count_points_fp(E_frac, p) == count_points_fp(E_int, p)


def test_hasse_bound_and_trace():
    for p in primes_upto(200):
        try:
            a = trace_of_frobenius(E37, p)
        except BadReduction:
            assert p in (2, 37)
            continue
        assert a * a <= 4 * p


def test_trace_oracle_37a():
    # frozen small traces of the conductor-37 curve
    want = {3: -3, 5: -2, 7: -1, 11: -5, 13: -2, 17: 0, 19: 0, 23: 2}
    for p, a in want.items():
        assert trace_of_frobenius(E37, p) == a


def test_mestre_nagao_sum_identity():
    # the two standard forms of each term agree
    res = mestre_nagao_sum(E11, 500)
    total = 0.0
    for p in primes_upto(500):
        try:
            n = count_points_fp(E11, p)
        except BadReduction:
            continue
        a = p + 1 - n
        total += (2 - a) / (p + 1 - a) * math.log(p)
    assert math.isclose(res.value, total, abs_tol=1e-9)
    assert res.primes_used + res.primes_skipped == len(primes_upto(500))
    assert res.primes_skipped == 1  # p = 11


def test_mestre_nagao_reproducible():
    a = mestre_nagao_sum(E37, 1000).value
    b = mestre_nagao_sum(E37, 1000).value
    assert a == b


def test_clear_denominators_builds_each_model_once():
    # an integral curve is its own integral model, so scoring cmd_sieve's
    # cleared curves rebuilds nothing; a rational one is cleared once
    E = CurveQ(0, F(35, 4), 0, 18, 9)
    Ei, _ = clear_denominators(E)
    assert Ei.coefficients() == (0, 140, 0, 4608, 36864)
    assert clear_denominators(E)[0] is Ei
    assert clear_denominators(Ei)[0] is Ei
    assert clear_denominators(Ei)[1] == IDENTITY_MAP
    assert clear_denominators(E37)[0] is E37


# --------------------------------------------------------------------------
# the root kernel and the two-torsion memo it reads

# integral, odd a1 and a3: the two-torsion x are -1, 3 and -13/4
E15A = CurveQ(1, 1, 1, -10, -10)


def _with_models(E):
    """An induced curve with its cleared and minimal models."""
    return [E, clear_denominators(E)[0], minimal_model(E).curve]


def _root_kernel_curves():
    curves = []
    for triple in (make_triple(1, 3, 8), family_k(K_PLUSMINUS, F(7, 3)),
                   z2z8_family(F(7, 5))):
        curves += _with_models(induced_curves(triple).curve)
    return curves


def _fresh(E):
    """An equal curve that holds no memo entry yet."""
    return CurveQ(*E.coefficients())


def _forbidden(*args):
    raise AssertionError("this kernel must not run here")


def test_root_kernel_matches_reference_loop(monkeypatch):
    solved = []
    monkeypatch.setattr(weierstrass, "rational_roots",
                        lambda f: solved.append(f) or rational_roots(f))
    # seeded by induced_curves and carried by the model maps
    curves = _root_kernel_curves()
    roots = [sieve_mod._integral_data(E)[3] for E in curves]
    assert solved == []
    # the stored record models, and an odd a1 whose x have denominator 4,
    # build the entry from the cubic
    stored = [_fresh(dataset_record(rid).curve)
              for rid in ("s3-rank9", "s6-connell")] + [_fresh(E15A)]
    roots += [sieve_mod._integral_data(E)[3] for E in stored]
    assert len(solved) == len(stored)
    curves += stored
    assert None not in roots
    assert two_torsion_x(E15A) == (-F(13, 4), -1, 3)
    for p in primes_upto(1100)[1:]:
        want = [reference_count(E, p) for E in curves]
        good = [i for i, n in enumerate(want) if n is not None]
        # one batch per prime, several kernel blocks at the small primes
        got = sieve_mod._count_roots([roots[i] for i in good], p)
        assert got == [want[i] for i in good], p


def test_curves_without_rational_two_torsion_count_by_polynomial(monkeypatch):
    # E11, E37 and the Kubert curves have one or no rational two-torsion
    # x-coordinate, so their own arithmetic sends them to _count_odd
    curves = [E11, E37] + [E for _, E in KUBERT]
    assert all(sieve_mod._integral_data(E)[3] is None for E in curves)
    odd_rows = []
    real_odd = sieve_mod._count_odd

    def counting_odd(bs, p):
        odd_rows.extend(bs)
        return real_odd(bs, p)

    monkeypatch.setattr(sieve_mod, "_count_odd", counting_odd)
    monkeypatch.setattr(sieve_mod, "_count_roots", _forbidden)
    for E in curves:
        for p in (101, 499):
            want = reference_count(E, p)
            if want is not None:
                assert count_points_fp(E, p) == want
    odd_rows.clear()
    mestre_nagao_sums(curves, 200)
    assert odd_rows


def test_mixed_batch_scores_each_curve_as_alone():
    # a batch holding both kinds of curve scores each one bit for bit as
    # it scores alone, whichever kernel counted it
    curves = [E11, E15A, _root_kernel_curves()[1], E37]
    batch = mestre_nagao_sums(curves, 1000)
    for E, res in zip(curves, batch):
        total, used, skipped = reference_sum(E, 1000)
        assert repr(res.value) == repr(total)
        assert (res.primes_used, res.primes_skipped) == (used, skipped)


def test_readme_grid_scoring_solves_no_cubic(monkeypatch):
    # every grid curve arrives with its two-torsion x from induced_curves,
    # carried through clear_denominators, so scoring solves nothing and
    # counts every curve with the root kernel
    solved = []
    monkeypatch.setattr(weierstrass, "rational_roots",
                        lambda f: solved.append(f) or rational_roots(f))
    monkeypatch.setattr(sieve_mod, "_count_odd", _forbidden)
    ctor = FAMILY_CONSTRUCTORS[K_PLUSMINUS]
    curves = []
    for q in _grid((1, 50), (1, 10)):
        try:
            triple = ctor(q)
        except DiocurvesError:
            continue
        curves.append(clear_denominators(induced_curves(triple).curve)[0])
    assert len(curves) == 310
    assert len(mestre_nagao_sums(curves, 1000)) == 310
    assert solved == []


@pytest.mark.parametrize("corrupt", [
    lambda xs: (xs[0], xs[1], xs[2] + 1),       # breaks all of Vieta
    lambda xs: (xs[0] - 1, xs[1] + 1, xs[2]),   # keeps only the sum
    lambda xs: (xs[0], xs[1], xs[2] + F(1, 8)),  # not integral after X = 4x
], ids=["shifted", "same-sum", "eighth"])
def test_corrupted_two_torsion_memo_raises(corrupt):
    E = induced_curves(make_triple(1, 3, 8)).curve
    E.__dict__["_two_torsion_x"] = corrupt(two_torsion_x(E))
    with pytest.raises(ArithmeticError):
        sieve_mod._integral_data(E)


def test_corrupted_memo_raises_under_optimize():
    # the check is a plain raise, so python -O keeps it
    src = pathlib.Path(diocurves.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from diocurves import sieve, triples, weierstrass\n"
        "assert False, 'not optimized'\n"
        "E = triples.induced_curves(triples.make_triple(1, 3, 8)).curve\n"
        "a, b, c = weierstrass.two_torsion_x(E)\n"
        "E.__dict__['_two_torsion_x'] = (a, b, c + 1)\n"
        "try:\n"
        "    sieve.count_points_fp(E, 101)\n"
        "except ArithmeticError:\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
