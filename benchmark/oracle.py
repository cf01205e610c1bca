"""Reference values the benchmark checks every op against.

Nothing here imports hyperfib, so a wrong answer from the package cannot
also be the expected one.  Terms are compared modulo the Mersenne prime
P = 2^61 - 1 through the closed form

    F_r(n) = F(n+2r) - sum_{j<r} F(2j+1) * C(n+r-1-j, r-1-j)

(the partial-fraction split of x / ((1-x-x^2)(1-x)^r)), with F by fast
doubling and C the binomial extended polynomially to every integer top
index, so the form holds for negative n too.  Decimal output is reduced
mod P in short chunks, so the check works whatever int/str digit limit the
interpreter has.
"""

from __future__ import annotations

P = (1 << 61) - 1
_CHUNK = 18   # digits per int() call; far below any interpreter digit limit


def fib_mod(n: int) -> int:
    """F(n) mod P for any integer n, by fast doubling."""
    if n < 0:
        f = fib_mod(-n)
        return f if n % 2 else -f % P   # F(-k) = (-1)^(k+1) F(k)
    a, b = 0, 1   # F(k), F(k+1)
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a) % P, (a * a + b * b) % P   # F(2k), F(2k+1)
        if bit == "1":
            a, b = b, (a + b) % P
    return a


def binomial_mod(t: int, k: int) -> int:
    """C(t, k) mod P for any integer t: t(t-1)...(t-k+1) / k!."""
    num, den = 1, 1
    for i in range(k):
        num = num * (t - i) % P
        den = den * (i + 1) % P
    return num * pow(den, -1, P) % P


def term_mod(r: int, n: int) -> int:
    """The generation-r hyperfibonacci term F_r(n) mod P."""
    tail = sum(
        fib_mod(2 * j + 1) * binomial_mod(n + r - 1 - j, r - 1 - j)
        for j in range(r)
    )
    return (fib_mod(n + 2 * r) - tail) % P


def decimal_mod(text: str) -> int:
    """A decimal integer string reduced mod P, without int() on the whole."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    value = 0
    for i in range(0, len(digits), _CHUNK):
        chunk = digits[i:i + _CHUNK]
        value = (value * 10 ** len(chunk) + int(chunk)) % P
    return -value % P if text.startswith("-") else value


def window_det(m: int, n: int, r: int) -> int:
    """Determinant of the size-m Hankel window at n of generation r.

    The (r+2)-window has det (-1)^(n + floor((r+3)/2)); every larger window
    has det 0.  Stated for r >= 1 and m >= r+2.
    """
    if m > r + 2:
        return 0
    return 1 if (n + (r + 3) // 2) % 2 == 0 else -1


SUITES = ("cassini", "qdet", "zero", "crosscheck", "general", "charpoly")


def verify_cases(r_max: int, n_min: int, n_max: int) -> dict[str, int]:
    """Case count of each verify suite, derived from the requested ranges."""
    width = n_max - n_min + 1
    return {
        "cassini": r_max * width,             # r = 1..r_max, every n
        "qdet": r_max,                        # r = 1..r_max
        "zero": (r_max + 1) * 4 * width,      # r = 0..r_max, m = r+3..r+6
        "crosscheck": (r_max + 1) * width,    # r = 0..r_max, every n
        "general": 200 * 50,                  # 200 random pairs, m = 1..50
        "charpoly": r_max + 1,                # r = 0..r_max
    }
