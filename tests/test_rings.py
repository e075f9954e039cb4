"""Base ring constructors against naive arithmetic."""

from __future__ import annotations

import numpy as np
import pytest

from finring.config import guard_limit, set_size_guard, size_guard
from finring.errors import InvalidParameter, MalformedTable, SizeGuardExceeded
from finring.rings import (
    FiniteRng,
    characteristic,
    direct_product,
    from_tables,
    galois_field,
    is_domain,
    is_field,
    is_reduced,
    nilpotent_mask,
    trunc_poly,
    zmod,
)

from oracles import is_domain as naive_is_domain
from oracles import nilpotent_set, poly_mul_truncated
from test_guard import run_child


def test_zmod_tables_match_modular_arithmetic():
    for n in (2, 3, 4, 6, 9, 12):
        r = zmod(n)
        for x in range(n):
            for y in range(n):
                assert r.add[x, y] == (x + y) % n
                assert r.mul[x, y] == (x * y) % n
        assert r.zero == 0 and r.one == 1 % n
        assert r.labels == tuple(str(i) for i in range(n))
        assert characteristic(r) == n


def test_zmod_rejects_nonpositive_modulus():
    with pytest.raises(InvalidParameter):
        zmod(0)


def test_direct_product_is_componentwise():
    r = direct_product([zmod(2), zmod(3)])
    assert r.order == 6
    for i in range(6):
        for j in range(6):
            a1, a2 = divmod(i, 3)
            b1, b2 = divmod(j, 3)
            s = (a1 + b1) % 2 * 3 + (a2 + b2) % 3
            p = (a1 * b1) % 2 * 3 + (a2 * b2) % 3
            assert r.add[i, j] == s
            assert r.mul[i, j] == p
    assert r.labels[5] == "(1,2)"
    assert characteristic(r) == 6


def test_trunc_poly_single_variable_matches_naive_convolution():
    base = zmod(3)
    r = trunc_poly(base, 1, 2)
    assert r.order == 27
    # element index encodes coefficients with the constant digit most
    # significant: index = c0*9 + c1*3 + c2
    def coeffs(i):
        return (i // 9, (i // 3) % 3, i % 3)

    def index(c):
        return c[0] * 9 + c[1] * 3 + c[2]

    for i in range(27):
        for j in range(27):
            want = poly_mul_truncated(
                coeffs(i), coeffs(j), base.add.tolist(), base.mul.tolist(),
                0, 2,
            )
            assert r.mul[i, j] == index(want)
    x = r.index_of("X")
    assert r.mul[x, r.mul[x, x]] == r.zero


def test_trunc_poly_nilpotents_are_zero_constant_polynomials():
    r = trunc_poly(zmod(2), 2, 1)
    naive = nilpotent_set(r.mul.tolist(), r.zero)
    assert frozenset(np.flatnonzero(nilpotent_mask(r)).tolist()) == naive
    assert not is_reduced(r)


def test_galois_field_of_order_four():
    f = galois_field(4)
    assert is_field(f) and is_domain(f) and is_reduced(f)
    assert characteristic(f) == 2
    w = f.index_of("w")
    # w satisfies w^2 = w + 1 and generates the multiplicative group
    assert f.mul[w, w] == f.add[w, f.one]
    assert f.mul[w, f.mul[w, w]] == f.one


def test_galois_field_rejects_non_prime_power():
    with pytest.raises(InvalidParameter):
        galois_field(6)


def test_is_domain_matches_the_naive_scan():
    rings = [zmod(n) for n in range(1, 33)] + [galois_field(q) for q in (4, 8, 9, 16, 25)] + [
        direct_product([zmod(2), zmod(3)]), trunc_poly(zmod(2), 1, 2), trunc_poly(zmod(3), 2, 1)]
    for r in rings:
        assert is_domain(r) == naive_is_domain(r.mul.tolist(), r.zero, r.one), r.name


def test_from_tables_rejects_broken_distributivity():
    add = np.array([[0, 1], [1, 0]])
    mul = np.array([[0, 1], [1, 1]])  # 0*1 = 1 contradicts (0+0)*1 = 0*1 + 0*1
    with pytest.raises(MalformedTable):
        from_tables(add, mul, 0)


def test_structural_equality_ignores_name():
    a = zmod(4)
    b = FiniteRng(a.add, a.mul, a.zero, a.one, a.labels, name="other")
    assert a == b
    assert hash(a) == hash(b)


def test_size_guard_blocks_large_constructions():
    with guard_limit(16):
        with pytest.raises(SizeGuardExceeded):
            zmod(17)
        zmod(16)
    zmod(17)


def test_size_guard_is_refused_outside_one_to_the_table_dtype_maximum():
    # element indices are stored as int16, so no order may pass 32767
    for n in (0, -3, 32768):
        with pytest.raises(InvalidParameter):
            set_size_guard(n)
        with pytest.raises(InvalidParameter):
            with guard_limit(n):
                pass
    assert size_guard() == 4096
    with guard_limit(32767):
        assert size_guard() == 32767
    assert size_guard() == 4096


@pytest.mark.parametrize("entry", [
    np.array([[0, 2**32], [0, 1]], dtype=np.int64),  # wrapped to 0 by an int32 cast
    np.array([[0, 65536], [0, 1]], dtype=np.int64),  # wrapped to 0 by an int16 cast
    [[0, 70000], [0, 1]],  # beyond int16: numpy's OverflowError when cast first
], ids=["int64 2^32", "int64 65536", "list 70000"])
def test_a_table_entry_out_of_range_is_refused_before_narrowing(entry):
    tables = np.array([[0, 1], [1, 0]]), np.array([[0, 0], [0, 1]])
    for k in range(2):
        arg = list(tables)
        arg[k] = entry
        with pytest.raises(MalformedTable, match="entry out of range"):
            FiniteRng(*arg, 0, 1, ["0", "1"])
        with pytest.raises(MalformedTable, match="entry out of range"):
            from_tables(*arg, 0)


def test_element_wrapper_arithmetic():
    r = zmod(6)
    two, three = r.by_label("2"), r.by_label("3")
    assert (two + three).label == "5"
    assert (two * three).label == "0"
    with pytest.raises(InvalidParameter):
        r.index_of("6")


def test_more_than_64_factors_or_monomials():
    # np.unravel_index stops at 64 dimensions; the digits here do not
    ring = direct_product([zmod(1)] * 65)
    assert (ring.order, ring.zero, ring.one) == (1, 0, 0)
    assert ring.labels == ("(" + ",".join(["0"] * 65) + ")",)
    assert trunc_poly(zmod(1), 150, 1).labels == ("0",)
    # over an order-1 base the zero ring comes before the m x m monomial
    # products, so 4001 monomials take no time; a child with a timeout turns
    # a regression into a failure instead of a hang
    code = (
        "from finring import trunc_poly, zmod\n"
        "r = trunc_poly(zmod(1), 4000, 1)\n"
        "print(r.order, r.one, r.labels[0], r.name)\n"
    )
    done = run_child(["-c", code], timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "0", "0", "pol(zmod(1),4000,1)"]


def test_trunc_poly_refuses_before_listing_monomials():
    # In a child with a timeout, so that listing the (max_deg+1)^num_vars
    # exponent tuples first would fail the test instead of hanging it. Over
    # zmod(1) the order is 1, so only the monomial count can exceed the guard.
    code = (
        "from finring import trunc_poly, zmod\n"
        "from finring.errors import SizeGuardExceeded\n"
        "for n in (2, 1):\n"
        "    try:\n"
        "        trunc_poly(zmod(n), 12, 12)\n"
        "    except SizeGuardExceeded as exc:\n"
        "        print(exc)\n"
    )
    done = run_child(["-c", code], timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "trunc_poly order 2^2704156 exceeds size guard 4096",
        "trunc_poly order 1^2704156 exceeds size guard 4096",
    ]
    with guard_limit(8):
        with pytest.raises(SizeGuardExceeded, match=r"order 2\^4 exceeds"):
            trunc_poly(zmod(2), 3, 1)
        assert trunc_poly(zmod(2), 2, 1).order == 8
