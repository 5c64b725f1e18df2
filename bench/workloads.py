"""Seeded workloads for the diocurves CLI and the gates that judge each output.

A workload is one pass of CLI command lines, which the client runs in
order, one fresh interpreter each, and repeats.  Only the command lines
reach the program: every input is drawn here from the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

WORKLOADS = ("cli-cold", "sieve-grid", "verify-long")

# Reference stdout of this commit.  A change that alters output on purpose
# updates these and says why; a change that claims a speed-up must not.
README_SIEVE_SHA256 = \
    "f562215033a2cd53c3c8c85542ef3d75ad89f3e0fd74d993c4bd092c93eabcb1"
INDUCE_138_SHA256 = \
    "ab9f0acbb47818bc24b0938fed32c45530bcfd0b2e2b442b9b603fb22143790e"
VERIFY_LONG_CHECKS = 70

# The bundled record ids, fixed here so the inputs depend on the seed alone.
RECORD_IDS = (
    "s3-rank9", "s3-rank9-second", "s3-one-three-c-1", "s3-one-three-c-2",
    "s3-sextuple-subtriple", "s4-rank5-a", "s4-rank5-b", "s4-rank7",
    "s5-rank3", "s5-rank4", "s6-connell", "s6-rank3-1", "s6-rank3-2",
    "s6-rank3-3", "s6-rank3-4", "s6-rank3-5", "s6-big",
    "s3-K_PLUSMINUS-286_69", "s3-K_PLUSMINUS-69_1144",
    "s3-K_PLUSMINUS-1169_1268", "s3-K_PLUSMINUS-1225_1959",
    "s3-K_PLUSMINUS-1443_1156", "s3-K_PLUSMINUS-1981_1941",
    "s3-K_PLUSMINUS-2447_50", "s3-K_PLUSMINUS-4350_1159",
    "s3-K_PLUSMINUS-5781_782", "s3-K_4K-65_521", "s3-K_4K-864_1415",
    "s3-K_4K-909_2741", "s3-K_4K-1500_2339", "s3-K_4K-1610_4401",
    "s3-K_4K-1914_2969", "s3-K_4K-3656_5127", "s3-K_4K-4435_3378",
    "s3-K_4K-6648_3473", "s3-K_4K--175_2098", "s3-K_4K--291_674",
    "s3-K_4K--338_911", "s3-K_4K--470_889", "s3-K_4K--535_5178",
    "s3-K_4K--559_807", "s3-K_4K--705_1703", "s3-K_4K--1224_4555",
    "s3-K_4K--1443_964", "s3-K_4K--1610_1629", "s3-K_4K--2123_4703",
    "s3-K_4K--2209_2927", "s4-Z2Z4_ALPHA2-28853_5306",
    "s4-Z2Z4_ALPHA2-55204_28537", "s4-Z2Z4_ALPHA2-87046_1523",
    "s4-Z2Z4_ALPHA2-95827_81626", "s4-Z2Z4_ALPHA2-134726_16613",
    "s4-Z2Z4_ALPHA2-399_160", "s4-Z2Z4_ALPHA2-452_173",
    "s4-Z2Z4_ALPHA2-698_561", "s4-Z2Z4_ALPHA2-1212_661",
    "s4-Z2Z4_ALPHA2-1253_974", "s4-Z2Z4_ALPHA2-1263_707",
    "s4-Z2Z4_ALPHA2-1463_1081",
)

_TIMING_FIELD = re.compile(rb" \(\d+\.\d+s\)$", re.M)


@dataclass(frozen=True)
class Command:
    """One CLI request and what its stdout must satisfy.

    ``ops`` is how many operations the request counts for: 1 for a plain
    command, one per check for ``verify``.  ``same_as`` names an earlier
    command of the same pass whose stdout must be byte-identical.
    """

    argv: tuple[str, ...]
    validate: Callable[[bytes], list[str]]
    ops: int = 1
    sha256: Optional[str] = None
    same_as: Optional[int] = None

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def normalized(stdout: bytes) -> bytes:
    """stdout with verify's per-check timing fields removed."""
    return _TIMING_FIELD.sub(b"", stdout)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _jsonl(stdout: bytes) -> tuple[list[dict], list[str]]:
    records, problems = [], []
    for n, line in enumerate(stdout.decode("utf-8").splitlines(), 1):
        try:
            obj = json.loads(line)
        except ValueError:
            problems.append(f"line {n} is not JSON")
            continue
        if not isinstance(obj, dict) or type(obj.get("version")) is not int:
            problems.append(f"line {n} has no integer version")
            continue
        records.append(obj)
    return records, problems


def _dataset_all(stdout: bytes) -> list[str]:
    records, problems = _jsonl(stdout)
    ids = [r.get("id") for r in records]
    if len(ids) != len(RECORD_IDS) or set(ids) != set(RECORD_IDS):
        problems.append(f"dataset emitted {len(ids)} records, expected the "
                        f"{len(RECORD_IDS)} bundled ids")
    return problems


def _dataset_one(record_id: str) -> Callable[[bytes], list[str]]:
    def check(stdout: bytes) -> list[str]:
        records, problems = _jsonl(stdout)
        if len(records) != 1 or records[0].get("id") != record_id:
            problems.append(f"expected one record {record_id}")
        return problems
    return check


def _induce(triple: tuple[Fraction, Fraction, Fraction]) \
        -> Callable[[bytes], list[str]]:
    def check(stdout: bytes) -> list[str]:
        records, problems = _jsonl(stdout)
        if len(records) != 1 or records[0].get("kind") != "search":
            return problems + ["expected one search record"]
        got = sorted(Fraction(v) for v in records[0]["triple"])
        if got != sorted(triple):
            problems.append(f"record is for triple {got}")
        return problems
    return check


def euler_triples(rng: random.Random, count: int) \
        -> list[tuple[Fraction, Fraction, Fraction]]:
    """Distinct triples {a, b, a + b + 2r} with b = (r^2 - 1)/a.

    ab + 1 = r^2 by construction, and the sum c makes ac + 1 and bc + 1
    squares too.  {1, 3, 8} (a = 1, r = 2) is left out: the caller adds it.
    """
    seen = {frozenset((1, 3, 8))}
    out = []
    while len(out) < count:
        a, r = rng.randint(1, 6), rng.randint(2, 6)
        b = Fraction(r * r - 1, a)
        triple = (Fraction(a), b, a + b + 2 * r)
        if frozenset(triple) in seen:
            continue
        seen.add(frozenset(triple))
        out.append(triple)
    return out


def _induce_command(triple, sha=None) -> Command:
    text = "{" + ",".join(map(str, triple)) + "}"
    return Command(("induce", text), _induce(triple), sha256=sha)


def cli_cold(seed: int) -> list[Command]:
    """One pass: 6 dataset requests, then 4 induce requests, interleaved."""
    rng = random.Random(seed)
    dataset = [Command(("dataset",), _dataset_all)] + [
        Command(("dataset", rid), _dataset_one(rid))
        for rid in rng.sample(RECORD_IDS, 5)]
    one_three_eight = tuple(Fraction(v) for v in (1, 3, 8))
    induce = [_induce_command(one_three_eight, INDUCE_138_SHA256)] + [
        _induce_command(t) for t in euler_triples(rng, 3)]
    rng.shuffle(dataset)
    rng.shuffle(induce)
    order = "DDIDIDDIDI"
    return [dataset.pop() if kind == "D" else induce.pop() for kind in order]


def sieve_grid(seed: int) -> tuple[list[Command], int]:
    """The README sieve, serial then --jobs 2; returns the pass and grid size.

    Seed 0 is the README grid, numerators 1:50 by denominators 1:10.  Other
    seeds shift the numerator window by seed mod 10, keeping the box size.
    """
    shift = seed % 10
    nums = (1 + shift, 50 + shift)
    argv = ("sieve", "K_PLUSMINUS", "--numerators", f"{nums[0]}:{nums[1]}",
            "--denominators", "1:10", "--keep", "0.05")
    params = len({Fraction(n, d) for n in range(nums[0], nums[1] + 1)
                  for d in range(1, 11)
                  if math.gcd(n, d) == 1})
    sha = README_SIEVE_SHA256 if shift == 0 else None
    check = _sieve(params, keep=0.05)
    return [Command(argv, check, sha256=sha),
            Command(argv + ("--jobs", "2"), check, sha256=sha, same_as=0)], \
        params


def _sieve(params: int, keep: float) -> Callable[[bytes], list[str]]:
    """One skip record per degenerate parameter, then the kept candidates."""
    def check(stdout: bytes) -> list[str]:
        records, problems = _jsonl(stdout)
        kinds = [r.get("kind") for r in records]
        skipped, kept = kinds.count("skip"), kinds.count("search")
        if skipped + kept != len(records):
            problems.append("records other than skip and search")
        expect = max(1, math.ceil(keep * (params - skipped)))
        if kept != expect:
            problems.append(f"kept {kept} of {params - skipped} scored "
                            f"parameters, expected {expect}")
        return problems
    return check


def verify_long() -> list[Command]:
    """`verify all --long`; the check list belongs to the program, no seed."""
    return [Command(("verify", "all", "--long"), _verify,
                    ops=VERIFY_LONG_CHECKS)]


def _verify(stdout: bytes) -> list[str]:
    lines = normalized(stdout).decode("utf-8").splitlines()
    summary = f"{VERIFY_LONG_CHECKS}/{VERIFY_LONG_CHECKS} checks passed"
    problems = [line for line in lines
                if line.startswith("FAIL")]
    if sum(line.startswith("PASS [") for line in lines) != VERIFY_LONG_CHECKS:
        problems.append(f"expected {VERIFY_LONG_CHECKS} PASS lines")
    if not any(line.startswith(summary) for line in lines):
        problems.append(f"no '{summary}' line")
    return problems


def make(workload: str, seed: int) -> tuple[list[Command], dict]:
    """The pass for a workload and a description of its input size."""
    if workload == "cli-cold":
        commands = cli_cold(seed)
        return commands, {"commands_per_pass": len(commands)}
    if workload == "sieve-grid":
        commands, params = sieve_grid(seed)
        return commands, {"grid_parameters": params,
                          "numerators": commands[0].argv[3]}
    if workload == "verify-long":
        return verify_long(), {"checks": VERIFY_LONG_CHECKS,
                               "seed": "unused: the check list is fixed"}
    raise ValueError(f"unknown workload {workload!r}")
