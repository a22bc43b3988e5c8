"""The auxiliary integer sequence F_n and its greedy decompositions.

F_1 = 1, F_2 = k+1, F_{n+1} = (k+1)(F_n + F_{n-1}).  Every integer is a
combination sum(n_i * F_i) with coefficients in {0,...,k+1} (negated for
negative inputs); the greedy rule makes the decomposition deterministic.
The sequence ties into the base through F_n*beta = F_{n+1} - (-(k+1)/beta)^n.
"""

from __future__ import annotations

from .algebra import ODD, DomainError, FieldElem, ParameterError, Params, _Record


def f_seq(k: int, up_to: int) -> list[int]:
    """[F_1, ..., F_up_to] for the given k."""
    if up_to < 1:
        raise DomainError("up_to must be >= 1")
    seq = [1, k + 1]
    while len(seq) < up_to:
        seq.append((k + 1) * (seq[-1] + seq[-2]))
    return seq[:up_to]


class FDecomposition(_Record):
    __slots__ = ("n", "coeffs")  # coeffs[i] multiplies F_{i+1}

    def __init__(self, n: int, coeffs: tuple[int, ...]):
        self._init(n, coeffs)

    @property
    def length(self) -> int:
        return len(self.coeffs)

    def reconstruct(self, k: int) -> int:
        seq = f_seq(k, max(len(self.coeffs), 1))
        return sum(c * f for c, f in zip(self.coeffs, seq))


def decompose_F(k: int, n: int) -> FDecomposition:
    """Greedy decomposition n = sum(n_i * F_i), largest term first.

    For F_m <= a < F_{m+1} the coefficient of F_m is floor(a/F_m), which
    the recurrence keeps in {0,...,k+1}; the remainder recurses downward.
    """
    if n == 0:
        return FDecomposition(0, ())
    sign = 1 if n > 0 else -1
    a = abs(n)
    seq = f_seq(k, 2)
    while seq[-1] <= a:
        seq.append((k + 1) * (seq[-1] + seq[-2]))
    # seq[-1] > a >= seq[-2]: the largest usable index is len(seq)-1
    # (1-based), and its coefficient is at least 1; F_1 = 1 takes whatever
    # is left
    coeffs = [0] * (len(seq) - 1)
    for i in range(len(seq) - 2, -1, -1):
        j, a = divmod(a, seq[i])
        if j > k + 1:
            raise AssertionError(f"greedy coefficient {j} of F_{i + 1} out of range")
        coeffs[i] = sign * j
    return FDecomposition(n, tuple(coeffs))


def fn_identity_check(params: Params, n: int) -> bool:
    """Exact check of F_n*beta - F_{n+1} + (-(k+1)/beta)^n == 0.

    Uses (k+1)/beta = beta-(k+1), a direct consequence of the minimal
    polynomial, so no negative powers of beta are ever formed.
    """
    if params.parity != ODD:
        raise ParameterError("the F_n/beta identity holds in odd-parity systems")
    if n < 1:
        raise DomainError("n must be >= 1")
    seq = f_seq(params.k, n + 1)
    base = params.from_int(params.k + 1) - params.beta  # -(k+1)/beta
    power: FieldElem = params.one
    for _ in range(n):
        power = power * base
    lhs = params.beta * seq[n - 1] - params.from_int(seq[n]) + power
    return lhs.is_zero()
