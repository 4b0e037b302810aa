"""Golden digests of certify and couple at benchmark size.

The fixtures' golden outputs are two-by-two; these pin a 16 × 16 certify
run with 8 two-tile targets and a 20 × 20 coupling on a 5 × 5 grid, so a
change that only reorganises exact work has to keep every output byte.
The certify digest covers each trial's full preimage report, not only the
certificate, whose one number is the minimum gap.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

import instances
from margcouple import Seed, certify_openness, construct_preimage, marginal_pair, verify
from margcouple.documents import dumps

F = Fraction

# recorded before certify's per-run caches were added
CERTIFY_SHA256 = {
    1: "dc65e64c93418a3d61ca3dc582beb64828d0b48c89b7f9131d5804b877209057",
    90210: "72c9589b72bc936566beab7e0df15c985a041925b3e8a46e40a4e4f77aad6a9f",
}
COUPLE_SHA256 = "e6c430a59f6f89026f7a80ac2fbe5e0fa14ffe4cdaaf9dcf2eafaac5f64ad349"


@pytest.mark.parametrize("seed", sorted(CERTIFY_SHA256))
def test_certify_golden_digest(seed, monkeypatch):
    rng = random.Random(seed)
    reference = instances.sparse_reference(rng, 16, F(1, 2))
    targets = instances.tile_targets(rng, 16, 8)
    digest = hashlib.sha256()

    def recorded(*args):
        report = construct_preimage(*args)
        digest.update(dumps(report).encode("ascii"))
        return report

    monkeypatch.setattr(verify, "construct_preimage", recorded)
    report = certify_openness(reference, targets, F(1, 5), 6, Seed(rng.getrandbits(64)))
    assert report.passed
    digest.update(dumps(report).encode("ascii"))
    assert digest.hexdigest() == CERTIFY_SHA256[seed]


def test_couple_golden_digest():
    rng = random.Random(20)
    reference = instances.sparse_reference(rng, 20, F(3, 10))
    pair = marginal_pair(reference)
    mu = instances.perturbed_probability(rng, pair.mu)
    nu = instances.perturbed_probability(rng, pair.nu)
    report = construct_preimage(reference, instances.block_grid(20, 5), mu, nu)
    digest = hashlib.sha256(dumps(report).encode("ascii")).hexdigest()
    assert digest == COUPLE_SHA256
