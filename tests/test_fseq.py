"""The F-sequence, its greedy decomposition, and the beta identity."""

import pytest

from goldenbeta import fseq
from goldenbeta.algebra import EVEN, ODD, DomainError, ParameterError, make_params
from goldenbeta.fseq import FDecomposition, decompose_F, f_seq, fn_identity_check


def test_f_seq_examples():
    assert f_seq(1, 5) == [1, 2, 6, 16, 44]
    assert f_seq(2, 5) == [1, 3, 12, 45, 171]
    assert f_seq(7, 2) == [1, 8]


def test_f_seq_rejects():
    with pytest.raises(DomainError):
        f_seq(1, 0)


def test_decompose_examples():
    assert decompose_F(1, 5).coeffs == (1, 2)
    assert decompose_F(1, 7).coeffs == (1, 0, 1)
    assert decompose_F(1, 0).coeffs == ()


def test_decompose_negative():
    dec = decompose_F(1, -5)
    assert dec.coeffs == (-1, -2)
    assert dec.reconstruct(1) == -5


def test_decompose_refuses_an_out_of_range_coefficient(monkeypatch):
    # the recurrence keeps each greedy coefficient in 0..k+1; a planted
    # sequence that jumps from F_1 = 1 to 100 leaves 50 to F_1 alone
    monkeypatch.setattr(fseq, "f_seq", lambda k, up_to: [1, 100])
    with pytest.raises(AssertionError, match="greedy coefficient 50 of F_1 out of range"):
        decompose_F(1, 50)


def test_decompose_exhaustive():
    for k in (1, 2, 3):
        seq = f_seq(k, 8)
        for n in range(seq[7]):
            dec = decompose_F(k, n)
            assert dec.reconstruct(k) == n
            assert all(0 <= c <= k + 1 for c in dec.coeffs)
            assert n == 0 or dec.coeffs[-1] != 0  # the greedy's top term is used
            # remark bound: n < F_l implies fewer than l terms
            for l in range(1, 9):
                if n < seq[l - 1]:
                    assert dec.length < l


# The greedy as it ran before its guards went: a coefficient only where
# F_i <= a, and a raise if anything is left after F_1.

def ref_decompose_F(k, n):
    if n == 0:
        return FDecomposition(0, ())
    sign = 1 if n > 0 else -1
    a = abs(n)
    seq = f_seq(k, 2)
    while seq[-1] <= a:
        seq.append((k + 1) * (seq[-1] + seq[-2]))
    coeffs = [0] * (len(seq) - 1)
    for i in range(len(seq) - 2, -1, -1):
        if seq[i] <= a:
            j = a // seq[i]
            if j > k + 1:
                raise AssertionError(f"greedy coefficient {j} of F_{i + 1} out of range")
            coeffs[i] = j
            a -= j * seq[i]
    if a != 0:
        raise AssertionError(f"greedy decomposition of {n} left {a}")
    return FDecomposition(n, tuple(sign * c for c in coeffs))


def test_decompose_matches_reference():
    for k in (1, 2, 3, 4, 5):
        big = [f - 1 for f in f_seq(k, 16)[8:]] + [f_seq(k, 12)[-1] * 7 + 5]
        for n in [*range(-3000, 3001), *big, *(-b for b in big)]:
            assert decompose_F(k, n) == ref_decompose_F(k, n)


def test_growth_ratio_boundary():
    # F_{n+1} <= (k+2) F_n for n >= 2, with equality exactly at n = 2:
    # F_3 = (k+1)(k+2) = (k+2) F_2 for every k, strict afterwards
    for k in (1, 2, 3, 10):
        seq = f_seq(k, 10)
        assert seq[2] == (k + 2) * seq[1]
        for n in range(3, 10):
            assert seq[n] < (k + 2) * seq[n - 1]


def test_fn_identity():
    for k in (1, 2, 3):
        params = make_params(k, ODD)
        for n in range(1, 31):
            assert fn_identity_check(params, n)


def test_fn_identity_rejects_even():
    with pytest.raises(ParameterError):
        fn_identity_check(make_params(1, EVEN), 3)
    with pytest.raises(DomainError):
        fn_identity_check(make_params(1, ODD), 0)
