"""`localization` against the fraction-pair route it replaced, its typed
refusals, and the CPI checks it serves at guard order.

`localization` builds S^-1 A as A modulo the kernel of a -> a/1, which is
onto in a finite ring. `localization_by_pairs` (tests/oracles.py) compares
all n·|S| fraction pairs with each other, so it gives the expected tables,
identity, labels, name and canonical map on small rings only.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import finring
from finring.errors import EmptySet, MissingIdentity, NotMultiplicativelyClosed
from finring.rings import direct_product, galois_field, trunc_poly, zmod
from finring.subobjects import (
    all_ideals,
    ideal_as_rng,
    ideal_from_generators,
    is_prime,
    localization,
    regular_elements_mod,
)

from oracles import localization_by_pairs

RINGS = (
    [zmod(n) for n in range(1, 41)]
    + [galois_field(q) for q in (4, 8, 9, 16)]
    + [
        direct_product([zmod(2), zmod(2)]),
        direct_product([zmod(2), zmod(4)]),
        direct_product([zmod(3), zmod(4)]),
        direct_product([zmod(2), zmod(2), zmod(2)]),
        direct_product([galois_field(4), zmod(2)]),
        direct_product([zmod(4), trunc_poly(zmod(2), 1, 2)]),
        trunc_poly(zmod(2), 1, 3),
        trunc_poly(zmod(2), 2, 1),
        trunc_poly(zmod(3), 1, 2),
        trunc_poly(zmod(4), 1, 2),
        trunc_poly(galois_field(4), 1, 1),
    ]
)


def _closed_sets(ring, seed: int, count: int = 3):
    """`count` multiplicatively closed sets holding 1, each generated by one
    to three elements drawn with `seed`."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        mask = np.zeros(ring.order, dtype=bool)
        mask[ring.one] = True
        mask[rng.integers(ring.order, size=rng.integers(1, 4))] = True
        while True:
            members = np.flatnonzero(mask)
            grown = mask.copy()
            grown[ring.mul[np.ix_(members, members)]] = True
            if (grown == mask).all():
                break
            mask = grown
        yield np.flatnonzero(mask)


def _localization_sets(ring):
    """Every regular set modulo an ideal, every prime complement, and a few
    seeded multiplicatively closed sets, each once."""
    sets = {}
    for ideal in all_ideals(ring):
        sets[tuple(regular_elements_mod(ring, ideal).tolist())] = None
        if is_prime(ideal):
            sets[tuple(np.flatnonzero(~ideal.members).tolist())] = None
    for s in _closed_sets(ring, ring.order):
        sets[tuple(s.tolist())] = None
    return [s for s in sets if ring.one in s]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_localization_matches_the_fraction_pair_route(ring):
    sets = _localization_sets(ring)
    assert sets
    for s in sets:
        got, lam = localization(ring, s)
        want, mu = localization_by_pairs(ring, s)
        assert got.add.tolist() == want.add.tolist(), s
        assert got.mul.tolist() == want.mul.tolist(), s
        assert (got.zero, got.one) == (want.zero, want.one), s
        assert got.labels == want.labels, s
        assert got.name == want.name, s
        assert lam.map.tolist() == mu.map.tolist(), s


@pytest.mark.parametrize("ring, s, error, message", [
    (zmod(12), [], EmptySet, "empty"),
    (zmod(12), [3, 9], NotMultiplicativelyClosed, "must contain 1"),  # closed
    (zmod(12), [1, 5, 7], NotMultiplicativelyClosed, "5 [*] 7 leaves the set"),
    (ideal_as_rng(ideal_from_generators(zmod(8), [2]))[0], [0], MissingIdentity,
     "no multiplicative identity"),
], ids=["empty", "without_one", "not_closed", "ring_without_one"])
def test_localization_refusals_are_typed(ring, s, error, message):
    with pytest.raises(error, match=message):
        localization(ring, np.array(s, dtype=np.int64))


GUARD_CPI = {
    'cpi_prime(product(gf(4), zmod(1024)), gen(product(gf(4), zmod(1024)); "(0,1)"))':
        "PASS",
    'cpi_ideal(product(gf(4), zmod(1024)), gen(product(gf(4), zmod(1024)); "(0,1)"))':
        "PASS",
    'cpi_ideal(product(zmod(2), zmod(2048)), gen(product(zmod(2), zmod(2048)); "(0,1)"))':
        "PASS",
    # the localization at the odd residues has order 4096, the amalgam
    # 4096 * 2048
    "cpi_prime(zmod(4096), gen(zmod(4096); 2))":
        "order 8388608 exceeds size guard 4096",
}


@pytest.mark.parametrize("check", list(GUARD_CPI), ids=[
    "prime_gf4_x_z1024", "ideal_gf4_x_z1024", "ideal_z2_x_z2048", "prime_z4096"])
def test_guard_order_cpi_checks_run_in_one_gib(tmp_path, check):
    # Order-4096 rings localized at sets of 2048 to 3072 elements: each
    # check runs in its own child under a 1 GiB address-space limit, which
    # the child sets on itself only.
    script = tmp_path / "cpi.fr"
    script.write_text(f"check {check};\n", encoding="utf-8")
    out = tmp_path / "cpi.json"
    code = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from finring.dsl_cli import main; "
        "sys.exit(main(['check', '--json', sys.argv[2], sys.argv[1]]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(finring.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code, str(script), str(out)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    expected = GUARD_CPI[check]
    if expected == "PASS":
        assert done.stdout.startswith("PASS"), done.stdout
    else:
        assert done.stdout.startswith("HYPOTHESIS_NOT_MET"), done.stdout
        assert expected in out.read_text(encoding="utf-8")
