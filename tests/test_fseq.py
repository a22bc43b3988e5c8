"""The F-sequence, its greedy decomposition, and the beta identity."""

import pytest

from goldenbeta.algebra import EVEN, ODD, ParameterError, make_params
from goldenbeta.fseq import decompose_F, f_seq, fn_identity_check


def test_f_seq_examples():
    assert f_seq(1, 5) == [1, 2, 6, 16, 44]
    assert f_seq(2, 5) == [1, 3, 12, 45, 171]
    assert f_seq(7, 2) == [1, 8]


def test_f_seq_rejects():
    with pytest.raises(ValueError):
        f_seq(1, 0)


def test_decompose_examples():
    assert decompose_F(1, 5).coeffs == (1, 2)
    assert decompose_F(1, 7).coeffs == (1, 0, 1)
    assert decompose_F(1, 0).coeffs == ()


def test_decompose_negative():
    dec = decompose_F(1, -5)
    assert dec.coeffs == (-1, -2)
    assert dec.reconstruct(1) == -5


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
    with pytest.raises(ValueError):
        fn_identity_check(make_params(1, ODD), 0)
