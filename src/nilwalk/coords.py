"""Coordinates of the second kind and reduction modulo the integer lattice.

A point of the simply connected group is written g(t) = prod_i exp(t_i X_i)
over the adapted basis, in basis order.  Conversion between log and
these coordinates is a triangular sweep: peeling exp(-t_i X_i) off the
left only disturbs strictly deeper coordinates, so each t_i can be read
straight off.  The same sweep run over a polynomial ring yields, once
per algebra, the group law P(t, s) = sk(g(t) g(s)).
A translation (t fixed) or level reduction (s zero off the level) is P
restricted, compiled to a table of its distinct monomials times a float
coefficient matrix, so a batch step is one matrix product.

Gamma denotes the integer-coordinate points.  It is a subgroup exactly
when g(e_j) g(e_i) lies in it for each pair i < j with [X_i, X_j] != 0;
verify_lattice decides this with one exact product per such pair, no
polynomial built, and raises LatticeError with an integer witness
otherwise, since every reduction below assumes it.

Reduction into the unit box runs level by level from the top.  Right
multiplication by prod_{i in level l} exp(m_i X_i) shifts the level-l
block by exactly m, fixes everything shallower, and scrambles only
deeper blocks, which later sweeps repair.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from .bch import bch_coords, bch_product
from .lie_core import LieVector, StructureConstants
from .pencil import PolyRing, coefficient_rows

__all__ = ["SecondKindSystem", "CompiledMap", "LatticeError"]


class LatticeError(Exception):
    """Integer tuples fail to form a subgroup under these coordinates.

    verify_lattice names its witness: output `coordinate` of g(t) g(s) is
    not an integer at `points` = (t, s)."""

    def __init__(self, message, coordinate=None, points=None):
        super().__init__(message)
        self.coordinate, self.points = coordinate, points


class CompiledMap:
    """Polynomial map R^n_in -> R^n_out as a monomial table times a matrix.

    The distinct monomials of all outputs are listed once, in descending
    graded-lexicographic order, and coef[j, k] is the float coefficient
    of monomial j in output k.  A call evaluates each monomial once per
    point and takes one matrix product.
    """

    def __init__(self, n_in, polys):
        self.n_in = n_in
        self.n_out = len(polys)
        monos, rows = coefficient_rows(polys)
        self.monomials = tuple(tuple((i, e) for i, e in enumerate(m) if e) for m in monos)
        self.coef = np.array(rows, dtype=float).reshape(self.n_out, len(monos)).T.copy()
        # constants and bare variables are filled in one step each
        self._ones = [j for j, m in enumerate(self.monomials) if not m]
        self._linear = [j for j, m in enumerate(self.monomials) if len(m) == 1 and m[0][1] == 1]
        self._linear_vars = [self.monomials[j][0][0] for j in self._linear]
        simple = set(self._ones) | set(self._linear)
        self._products = [
            (j, m) for j, m in enumerate(self.monomials) if j not in simple
        ]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.n_in:
            raise ValueError(f"expected {self.n_in} inputs, got {x.shape[1]}")
        vals = np.empty((x.shape[0], len(self.monomials)))
        vals[:, self._ones] = 1.0
        vals[:, self._linear] = x[:, self._linear_vars]
        for j, varexps in self._products:
            term = None
            for i, e in varexps:
                f = x[:, i] if e == 1 else x[:, i] ** e
                term = f if term is None else term * f
            vals[:, j] = term
        out = vals @ self.coef
        return out[0] if single else out


class SecondKindSystem:
    """Exact and compiled coordinate machinery for one algebra."""

    def __init__(self, sc: StructureConstants):
        self.sc = sc
        self.series = sc.series
        self.dim = sc.dim
        self._tmap_cache = {}
        self._rmap_cache = {}

    # -- exact conversions ---------------------------------------------------

    def _fold_log(self, scalars, zero):
        """Coordinates of log prod_i exp(scalars[i] X_i), generic scalars."""
        acc = None
        for i, s in enumerate(scalars):
            if not s:
                continue
            term = [zero] * self.dim
            term[i] = s
            acc = term if acc is None else bch_coords(self.sc, acc, term)
        return [zero] * self.dim if acc is None else acc

    def _peel(self, coords, zero):
        """Invert _fold_log: read t_i and strip exp(-t_i X_i) from the left."""
        y = list(coords)
        t = []
        for i in range(self.dim):
            ti = y[i]
            t.append(ti)
            if ti:
                neg = [zero] * self.dim
                neg[i] = -ti
                y = bch_coords(self.sc, neg, y)
        if any(y):
            raise AssertionError("peel left a nonzero remainder")
        return t

    def log_from_sk(self, t) -> LieVector:
        vals = [Fraction(x) for x in t]
        if len(vals) != self.dim:
            raise ValueError("coordinate tuple has wrong length")
        return LieVector(self._fold_log(vals, Fraction(0)))

    def sk_from_log(self, x: LieVector):
        return tuple(self._peel(list(x.coords), Fraction(0)))

    # -- the group law and the maps compiled from it --------------------------

    @cached_property
    def _law(self):
        """P(t, s) = sk(g(t) g(s)), polynomials over the variables
        t0..t{n-1}, s0..s{n-1}."""
        n = self.dim
        ring = PolyRing([f"t{i}" for i in range(n)] + [f"s{i}" for i in range(n)])
        zero = ring.zero()
        x = self._fold_log([ring.var(f"t{i}") for i in range(n)], zero)
        y = self._fold_log([ring.var(f"s{i}") for i in range(n)], zero)
        return self._peel(bch_coords(self.sc, x, y), zero)

    def _restricted_law(self, values, keep):
        """P with the variables in `values` fixed, as a map of `keep`."""
        target = PolyRing(keep)
        return CompiledMap(len(keep), [p.restrict(values, target) for p in self._law])

    def translation_map(self, a: LieVector) -> CompiledMap:
        """t -> coordinates of exp(a) g(t), as a compiled polynomial map."""
        hit = self._tmap_cache.get(a)
        if hit is None:
            fixed = {f"t{i}": v for i, v in enumerate(self.sk_from_log(a))}
            hit = self._restricted_law(fixed, [f"s{i}" for i in range(self.dim)])
            self._tmap_cache[a] = hit
        return hit

    def reduction_map(self, level: int) -> CompiledMap:
        """(t, m) -> coordinates of g(t) prod_{i in level} exp(m_i X_i).

        The output block at `level` is exactly t + m; shallower blocks
        are exactly the identity in t, so a zero shift is a true no-op
        even in floating point.
        """
        hit = self._rmap_cache.get(level)
        if hit is None:
            idx = self.series.level_indices(level)
            off = {f"s{i}": 0 for i in range(self.dim) if i not in idx}
            keep = [f"t{i}" for i in range(self.dim)] + [f"s{i}" for i in idx]
            hit = self._restricted_law(off, keep)
            self._rmap_cache[level] = hit
        return hit

    # -- lattice ---------------------------------------------------------------

    def verify_lattice(self):
        """Prove that Gamma is a subgroup, or raise LatticeError naming an
        integer pair (t, s) and a coordinate of g(t) g(s) that is not an
        integer.

        Write x_i = g(e_i).  Gamma is a subgroup iff x_j x_i is in Gamma
        for every pair i < j with [X_i, X_j] != 0; a commuting pair gives
        g(e_i + e_j).  Each tail span(X_k, ...) is an ideal, so Gamma_k,
        the points of Gamma with t_0..t_{k-1} = 0, is x_k^Z Gamma_{k+1}.
        Downward on k: if Gamma_{k+1} is a group and conjugation by x_k
        sends each x_j (j > k) into it, conjugation maps Gamma_{k+1} into
        itself, as the identity on each Gamma_l / Gamma_{l+1} = Z
        ([X_k, X_l] lies past index l), so onto; Gamma_k is then closed
        under products and inverses.  The converse is immediate.
        x_j x_i = x_i c with log c = exp(-ad X_i) X_j, and
        x_i g(u) = g(e_i + u) when u is zero up to index i, so x_j x_i and
        c agree past index i.
        """
        n = self.dim
        for i, j in sorted(self.sc.integer_table[1]):
            xi, xj = LieVector.basis(n, i), LieVector.basis(n, j)
            term = log_c = xj
            for m in range(1, self.series.step):
                term = self.sc.bracket(term, xi) * Fraction(1, m)
                log_c = log_c + term
            for k, value in enumerate(self.sk_from_log(log_c)):
                if value.denominator != 1:
                    t, s = xj.nums, xi.nums
                    msg = f"product of {t} and {s} is not integral: coordinate {k} is {value}"
                    raise LatticeError(msg, k, (t, s))

    # -- reduction ---------------------------------------------------------------

    def reduce_exact(self, t):
        """Reduce one exact point into [0,1)^dim; returns (reduced, gamma).

        gamma is the integer tuple with g(reduced) = g(t) g(gamma).
        """
        x = self.log_from_sk(t)
        glog = LieVector.zero(self.dim)
        for level in range(self.series.step):
            cur = self._peel(list(x.coords), Fraction(0))
            idx = self.series.level_indices(level)
            shift = [Fraction(-math.floor(cur[i])) for i in idx]
            if not any(shift):
                continue
            s = [Fraction(0)] * self.dim
            for j, i in enumerate(idx):
                s[i] = shift[j]
            phi = self.log_from_sk(s)
            x = bch_product(self.sc, x, phi)
            glog = bch_product(self.sc, glog, phi)
        red = self.sk_from_log(x)
        if not all(0 <= v < 1 for v in red):
            raise AssertionError(f"reduction left the unit box: {red}")
        gamma = self.sk_from_log(glog)
        if any(v.denominator != 1 for v in gamma):
            raise LatticeError(f"reduction used a non-integral translate: {gamma}")
        return red, tuple(int(v) for v in gamma)

    def reduce_batch(self, arr):
        """Reduce an (N, dim) float batch into the unit box, vectorized.

        Rounding can leave a coordinate exactly on the right edge after
        one sweep (t - floor(t) == 1.0 for t just below an integer), so
        each level repeats until its shifts vanish; two passes suffice.
        """
        x = np.array(arr, dtype=float, copy=True)
        if x.ndim == 1:
            return self.reduce_batch(x[None, :])[0]
        for level in range(self.series.step):
            idx = self.series.level_indices(level)
            rmap = self.reduction_map(level)
            for _ in range(4):
                m = -np.floor(x[:, idx])
                if not m.any():
                    break
                x = rmap(np.concatenate([x, m], axis=1))
            else:
                raise AssertionError("level reduction did not converge")
        return x
