import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import diocurves
from diocurves.errors import ZeroInput
from diocurves.factoring import Factorization, factor_best_effort, is_probable_prime


def test_is_probable_prime_small():
    sieve = [True] * 500
    sieve[0] = sieve[1] = False
    for i in range(2, 23):
        if sieve[i]:
            for k in range(i * i, 500, i):
                sieve[k] = False
    for n in range(-2, 500):
        assert is_probable_prime(n) == (n >= 2 and sieve[n])


def test_is_probable_prime_carmichael():
    # Fermat pseudoprimes to every base; Miller-Rabin must still reject them
    for n in [561, 1105, 1729, 41041, 825265]:
        assert not is_probable_prime(n)


def test_is_probable_prime_large():
    assert is_probable_prime(2**61 - 1)
    assert is_probable_prime(2**89 - 1)
    assert is_probable_prime(10**9 + 7)
    assert not is_probable_prime((2**61 - 1) * (2**89 - 1))


def test_factor_exact_small():
    f = factor_best_effort(-2**4 * 3**2 * 5 * 7**3)
    assert f.sign == -1
    assert f.factors == [(2, 4), (3, 2), (5, 1), (7, 3)]
    assert f.complete
    assert f.value() == -2**4 * 3**2 * 5 * 7**3
    assert f.exponent(7) == 3
    assert f.exponent(11) == 0


def test_factor_one():
    f = factor_best_effort(1)
    assert f.factors == [] and f.complete and f.value() == 1


def test_factor_zero_raises():
    with pytest.raises(ZeroInput):
        factor_best_effort(0)


def test_factor_splits_moderate_semiprime():
    # both factors above the trial bound; rho has to do the work
    p, q = 1000003, 1000033
    f = factor_best_effort(p * q)
    assert f.complete
    assert f.factors == [(p, 1), (q, 1)]


def test_factor_big_square_without_budget():
    p = 2**89 - 1
    f = factor_best_effort(p * p, budget=0)
    assert f.complete
    assert f.factors == [(p, 2)]


def test_factor_budget_exhaustion_leaves_cofactor():
    p = 2**61 - 1
    q = 2**89 - 1
    f = factor_best_effort(p * q, budget=0)
    assert not f.complete
    assert f.cofactor == p * q
    assert f.value() == p * q


def test_factor_mixed_completes_known_part():
    p = 2**61 - 1
    q = 2**89 - 1
    f = factor_best_effort(60 * p * q, budget=0)
    assert f.factors == [(2, 2), (3, 1), (5, 1)]
    assert not f.complete
    assert f.value() == 60 * p * q


def test_factor_work_is_bounded():
    # rho cannot split a product of two 19-digit primes within the default
    # budget of steps, so the call ends with the product as its cofactor;
    # it runs in a subprocess, so that a hang fails at the timeout
    code = ("import sys; from diocurves.factoring import factor_best_effort; "
            "n = 1000000000000000003 * 3000000000000000037; "
            "f = factor_best_effort(n); "
            "sys.exit(f.complete or f.cofactor != n)")
    src = pathlib.Path(diocurves.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


def test_no_budget_above_factoring():
    # factoring bounds its own work, and the descent support lives on the
    # curve: no public function above `factoring` and `rationals` takes a
    # budget or a precomputed support
    for info in pkgutil.iter_modules(diocurves.__path__):
        if info.name in ("factoring", "rationals"):
            continue
        module = importlib.import_module(f"diocurves.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            params = set(inspect.signature(fn).parameters)
            assert not params & {"budget", "support"}, \
                f"{info.name}.{name} takes {params & {'budget', 'support'}}"
