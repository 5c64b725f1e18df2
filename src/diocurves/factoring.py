"""Integer factorization with a fixed bound on its work.

Trial division handles the smooth part, Brent-cycle Pollard rho splits what
is left within DEFAULT_BUDGET steps per number (one step is a multiplication
mod n; on a 40-digit n the budget lasts about half a second), and
Miller-Rabin decides primality.  Nothing here is probabilistic in
behaviour: the rho parameters and the witness sets are fixed, so a given
input always produces the same output.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ZeroInput

# Below this bound the listed witnesses make Miller-Rabin a proof
# (Sorenson-Webster).  Above it we keep a fixed witness set, which makes the
# test deterministic in behaviour even though it is only "probable prime".
_MR_PROOF_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXTRA_BASES = (43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

TRIAL_DIVISION_BOUND = 1_000_000
DEFAULT_BUDGET = 2 ** 20

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin.  Deterministic below ~3.3e24, fixed witnesses above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES if n < _MR_PROOF_BOUND else _MR_BASES + _MR_EXTRA_BASES
    for a in bases:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int, c: int, steps: int) -> tuple[int, int]:
    """One Brent-cycle rho attempt on odd composite n, within `steps` steps.

    Returns (d, used): d > 1 divides n, and d == n when the attempt failed.
    A round of cycle length r costs at most 3r steps: r to move x ahead, r
    in blocks of m, and a backtrack through one block.  When the next round
    would not fit in `steps`, the attempt gives up with (n, steps), which
    spends what is left.
    """
    y, m, g, r, q = 2, 128, 1, 1, 1
    x = ys = y
    used = 0
    while g == 1:
        if used + 3 * r > steps:
            return n, steps
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        used += r + min(k, r)
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            used += 1
    return g, used


class Factorization(NamedTuple):
    """Best-effort factorization: prime powers plus an unfactored cofactor.

    Invariant: sign * prod(p**e) * cofactor == n, with every listed p prime
    and cofactor either 1 or a composite the rho budget could not split.
    """

    sign: int
    factors: list[tuple[int, int]]
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p ** e
        return v * self.cofactor

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0


def factor_best_effort(n: int, budget: int = DEFAULT_BUDGET) -> Factorization:
    """Factor n as far as trial division to TRIAL_DIVISION_BOUND plus
    `budget` rho steps allow.

    The steps are shared by every rho attempt of the call; budget=0 means
    no rho at all.  Never raises on hard inputs; the leftover lands in
    .cofactor.
    """
    if n == 0:
        raise ZeroInput("cannot factor 0")
    sign = -1 if n < 0 else 1
    n = abs(n)
    found: dict[int, int] = {}

    def record(p: int, e: int = 1) -> None:
        found[p] = found.get(p, 0) + e

    # trial division: 2, 3, then 6k+-1
    for p in (2, 3):
        while n % p == 0:
            record(p)
            n //= p
    p = 5
    while p <= TRIAL_DIVISION_BOUND and p * p <= n:
        for q in (p, p + 2):
            while n % q == 0:
                record(q)
                n //= q
        p += 6
    if n > 1 and (n < TRIAL_DIVISION_BOUND ** 2 or is_probable_prime(n)):
        record(n)
        n = 1

    cofactor = 1
    attempts = 0
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            record(m)
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack.extend([r, r])
            continue
        split = m
        while split == m and budget > 0:
            attempts += 1
            split, used = _brent_rho(m, attempts, budget)
            budget -= used
        if split == m:
            cofactor *= m
        else:
            stack.extend([split, m // split])
    return Factorization(sign, sorted(found.items()), cofactor)
