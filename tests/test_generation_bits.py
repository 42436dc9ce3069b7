"""Pinned bits of multiscale patches and direct discrepancy scans.

The digest pins the exact bits (``float.hex``) of every position, every
length and the support of seeded ``generate_patch`` calls: alpha in
[0.01, 0.5] with t in [0, 9], alpha 1/2 and 1/3 on a grid of t, and
alpha 1/2 at t = k * log 2, where every tile length sits on the leaf
test's slack.  A second digest pins the maxima of seeded direct scans.
Any change to the subdivision walks that moves one bit changes a digest.
"""
import hashlib
import math
import random

from kakutani.discrepancy import discrepancy_scan
from kakutani.engine import generate_patch

#: sha256 of the patches of ``patch_cases()``, recorded before the two
#: tree walks shared one table of signed left-child steps.
PATCH_DIGEST = "f38a90d7432f68b6677f545ae12e54630c8c3fa07a3bbd946e3259d566c731a5"

#: sha256 of the maxima of ``scan_cases()``, recorded with PATCH_DIGEST.
SCAN_DIGEST = "fe76361794d3d54edb8a6152257bb7a0c4badb0e0bacf43103bc52624ec9eb82"


def patch_cases():
    rng = random.Random(20261020)
    for _ in range(200):
        yield rng.uniform(0.01, 0.5), rng.uniform(0.0, 9.0), rng.choice((0.5, 0.0, 1.0, 0.3))
    for alpha in (0.5, 1.0 / 3.0):
        for t in (0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0, 7.5, 9.0):
            yield alpha, t, 0.5
    for k in range(14):
        yield 0.5, k * math.log(2.0), 0.5


def scan_cases():
    rng = random.Random(20261021)
    for i in range(100):
        alpha, t = rng.uniform(0.01, 0.5), rng.uniform(0.0, 9.0)
        top = rng.uniform(0.01, 1.0) * math.exp(t) if i % 4 else rng.uniform(0.0, alpha)
        yield alpha, t, tuple(top / 2.0**j for j in range(5, -1, -1))
    for k in range(1, 13):
        yield 0.5, k * math.log(2.0), (1.0, 2.0 ** (k / 2.0), 2.0**k)


def patch_digest(patches):
    digest = hashlib.sha256()
    for patch in patches:
        record = (
            [x.hex() for x in patch.positions()],
            [x.hex() for x in patch.lengths()],
            [x.hex() for x in patch.support],
        )
        digest.update(repr(record).encode())
    return digest.hexdigest()


def scan_digest(series):
    digest = hashlib.sha256()
    for scan in series:
        digest.update(repr([x.hex() for x in scan.max_disc]).encode())
    return digest.hexdigest()


def test_patch_digest():
    cases = list(patch_cases())
    assert len(cases) == 232
    patches = (generate_patch(alpha, t, origin_offset=offset) for alpha, t, offset in cases)
    assert patch_digest(patches) == PATCH_DIGEST


def test_scan_digest():
    cases = list(scan_cases())
    assert len(cases) == 112
    series = (discrepancy_scan(alpha, t, windows, mode="direct") for alpha, t, windows in cases)
    assert scan_digest(series) == SCAN_DIGEST
