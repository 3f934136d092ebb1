"""An exact-arithmetic referee for small frames.

Every double is a dyadic rational, so a frame's stored matrices convert
to ``fractions.Fraction`` with no error, and then products and inverses
are exact. Like the other oracles it stays deliberately primitive: lists
of lists, a triple-loop product and Gauss-Jordan elimination, with no
numpy linear algebra and no code shared with ``pasf``. Exact P of a
(3, 5) frame takes milliseconds; keep it to d <= 8 and n <= 16.
"""

from fractions import Fraction


def exact(a):
    """The rows of the 2-D float array ``a`` as lists of exact Fractions."""
    return [[Fraction(float(x)) for x in row] for row in a]


def product(a, b):
    """The exact matrix product of two lists of lists."""
    inner, cols = len(b), len(b[0])
    return [[sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)]
            for row in a]


def inverse(a):
    """The exact inverse of a square list of lists, by Gauss-Jordan
    elimination; raises ZeroDivisionError when ``a`` is singular."""
    n = len(a)
    rows = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [x / head for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def projection(functionals, vectors):
    """The exact P = F (T F)^-1 T of a frame's stored F (n x d) and T (d x n)."""
    f, t = exact(functionals), exact(vectors)
    return product(product(f, inverse(product(t, f))), t)


def max_error(approx, exact_matrix):
    """max |approx_ij - exact_ij|, the difference formed exactly, as a float."""
    return float(max(abs(Fraction(float(x)) - y)
                     for row, exact_row in zip(approx, exact_matrix) for x, y in zip(row, exact_row)))
