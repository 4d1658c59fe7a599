"""
The exact matrix algebra behind loop matrices and integral chart
matrices: sums, derivatives and row scaling (`Matrix`), with the entry-wise
product that integral chart matrices use (loop matrices form each product
entry with one `Series.dot`), and determinants and adjugates by first-row
Laplace expansion with shared minors (`Cofactors`).

Entries may come from any ring whose elements have .add, .mul, .neg,
.scale, .derivative and .is_exact_zero (truncated series, v-polynomials).
Every minor is stored under its (row indices, column indices), so a
determinant costs 2^n minors instead of n! products and all n^2
adjugate cofactors reuse the same sub-minors.

Zero rule: an expansion term whose entry is an exact zero is skipped, as
it bounds no precision, and a row of exact zeros gives its first entry.
Every zero of a v-polynomial is exact.  A truncated series zero only to
its precision, O(v^k), is not: its term is formed, because it bounds the
precision of the result.
"""

from __future__ import annotations


class Cofactors:
    """Minors of one square matrix (a list of rows), computed on demand."""

    def __init__(self, rows: list[list]):
        self.rows = rows
        self.n = len(rows)
        self._minors: dict[tuple[tuple[int, ...], tuple[int, ...]], object] = {}

    def minor(self, rs: tuple[int, ...], cs: tuple[int, ...]):
        """Determinant of the submatrix on rows rs and columns cs (both
        non-empty, equal length, increasing)."""
        key = (rs, cs)
        m = self._minors.get(key)
        if m is None:
            m = self._expand(rs, cs)
            self._minors[key] = m
        return m

    def _expand(self, rs: tuple[int, ...], cs: tuple[int, ...]):
        row = self.rows[rs[0]]
        if len(rs) == 1:
            return row[cs[0]]
        rest = rs[1:]
        acc = None
        for k, c in enumerate(cs):
            e = row[c]
            if e.is_exact_zero():
                continue
            term = e.mul(self.minor(rest, cs[:k] + cs[k + 1 :]))
            if k % 2:
                term = term.neg()
            acc = term if acc is None else acc.add(term)
        return row[cs[0]] if acc is None else acc

    def det(self):
        full = tuple(range(self.n))
        return self.minor(full, full)

    def adjugate(self) -> list[list]:
        """adj[k][i] = (-1)^(i+k) * minor without row i and column k; needs
        n >= 2 (the 1 x 1 adjugate is the ring's one, which the caller
        supplies)."""
        n = self.n
        full = tuple(range(n))
        drop = [full[:i] + full[i + 1 :] for i in range(n)]
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for k in range(n):
                m = self.minor(drop[i], drop[k])
                out[k][i] = m.neg() if (i + k) % 2 else m
        return out


class Matrix:
    """Square matrix held as a list of rows; a subclass supplies `rows` and
    `_like(rows)`, a matrix of its own class over the same base."""

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.rows)

    def mul(self, other):
        n = self.n
        out = []
        ocols = list(zip(*other.rows))
        for row in self.rows:
            orow = []
            for col in ocols:
                acc = row[0].mul(col[0])
                for m in range(1, n):
                    acc = acc.add(row[m].mul(col[m]))
                orow.append(acc)
            out.append(orow)
        return self._like(out)

    def add(self, other):
        return self._like([[a.add(b) for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def derivative(self):
        return self._like([[e.derivative() for e in row] for row in self.rows])

    def scale_rows(self, factors):
        """Row i multiplied by the scalar factors[i]."""
        return self._like([[e.scale(c) for e in row] for row, c in zip(self.rows, factors)])
