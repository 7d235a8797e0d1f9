"""Coordinates of the second kind and reduction modulo the integer lattice.

A point of the simply connected group is written g(t) = prod_i exp(t_i X_i)
over the adapted basis, in basis order.  Conversion between log and
these coordinates is a triangular sweep: peeling exp(-t_i X_i) off the
left only disturbs strictly deeper coordinates, so each t_i can be read
straight off.  The same sweep run over a polynomial ring yields, once
and for all, the coordinate expression of any fixed group operation;
each expression is compiled to a table of its distinct monomials times
a float coefficient matrix, so a batch step is one matrix product.

Gamma denotes the integer-coordinate points.  It is a subgroup exactly
when the structure constants cooperate; verify_lattice checks closure on
products and inverses of sample integer tuples and raises LatticeError
otherwise, since every reduction below silently assumes it.

Reduction into the unit box runs level by level from the top.  Right
multiplication by prod_{i in level l} exp(m_i X_i) shifts the level-l
block by exactly m, fixes everything shallower, and scrambles only
deeper blocks, which later sweeps repair.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .bch import bch_coords
from .lie_core import LieVector, StructureConstants
from .pencil import MultiPoly, PolyRing, coefficient_rows

__all__ = ["SecondKindSystem", "CompiledMap", "LatticeError"]


class LatticeError(Exception):
    """Integer tuples fail to form a subgroup under these coordinates."""


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


def _is_integral(fr):
    return Fraction(fr).denominator == 1


class SecondKindSystem:
    """Exact and compiled coordinate machinery for one algebra."""

    def __init__(self, sc: StructureConstants):
        self.sc = sc
        self.series = sc.series
        self.dim = sc.dim
        self._ring = PolyRing([f"t{i}" for i in range(self.dim)])
        self._tvars = [self._ring.var(f"t{i}") for i in range(self.dim)]
        self._tmap_cache = {}
        self._rmap_cache = {}
        self._lattice_ok = None

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

    # -- compiled group operations --------------------------------------------

    def translation_map(self, a: LieVector) -> CompiledMap:
        """t -> coordinates of exp(a) g(t), as a compiled polynomial map."""
        key = tuple(a.coords)
        hit = self._tmap_cache.get(key)
        if hit is not None:
            return hit
        ring = self._ring
        zero = ring.zero()
        x = self._fold_log(self._tvars, zero)
        ac = [ring.const(c) for c in a.coords]
        y = bch_coords(self.sc, ac, x)
        y = [v if isinstance(v, MultiPoly) else ring.const(v) for v in y]
        cmap = CompiledMap(self.dim, self._peel(y, zero))
        self._tmap_cache[key] = cmap
        return cmap

    def reduction_map(self, level: int) -> CompiledMap:
        """(t, m) -> coordinates of g(t) prod_{i in level} exp(m_i X_i).

        The output block at `level` is exactly t + m; shallower blocks
        are exactly the identity in t, so a zero shift is a true no-op
        even in floating point.
        """
        hit = self._rmap_cache.get(level)
        if hit is not None:
            return hit
        idx = self.series.level_indices(level)
        names = [f"t{i}" for i in range(self.dim)] + [f"m{j}" for j in range(len(idx))]
        ring = PolyRing(names)
        zero = ring.zero()
        tvars = [ring.var(f"t{i}") for i in range(self.dim)]
        x = self._fold_log(tvars, zero)
        shift = [zero] * self.dim
        for j, i in enumerate(idx):
            shift[i] = ring.var(f"m{j}")
        phi = self._fold_log(shift, zero)
        y = bch_coords(self.sc, x, phi)
        y = [v if isinstance(v, MultiPoly) else ring.const(v) for v in y]
        cmap = CompiledMap(self.dim + len(idx), self._peel(y, zero))
        self._rmap_cache[level] = cmap
        return cmap

    # -- lattice ---------------------------------------------------------------

    def verify_lattice(self, extra_trials: int = 8, seed: int = 0):
        """Check Gamma-closure on unit tuples and random small integer tuples.

        Inverses, pairwise products of unit tuples, and extra random
        pairs must all come back integral.  Raises LatticeError with the
        first offending combination; result is cached per system.
        """
        if self._lattice_ok:
            return
        import random

        rng = random.Random(seed)
        units = []
        for i in range(self.dim):
            t = [Fraction(0)] * self.dim
            t[i] = Fraction(1)
            units.append(tuple(t))
        extras = [
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(self.dim))
            for _ in range(extra_trials)
        ]
        logs = [self.log_from_sk(t) for t in units + extras]
        for t, lg in zip(units + extras, logs):
            inv = self.sk_from_log(-lg)
            if not all(_is_integral(v) for v in inv):
                raise LatticeError(f"inverse of {t} is not integral: {inv}")
        pairs = [(a, b) for a in range(len(units)) for b in range(len(units))]
        pairs += [
            (rng.randrange(len(logs)), rng.randrange(len(logs)))
            for _ in range(2 * extra_trials)
        ]
        alltuples = units + extras
        for a, b in pairs:
            prod = bch_coords(self.sc, logs[a].coords, logs[b].coords)
            t = self._peel(list(prod), Fraction(0))
            if not all(_is_integral(v) for v in t):
                raise LatticeError(
                    f"product of {alltuples[a]} and {alltuples[b]} "
                    f"is not integral: {tuple(t)}"
                )
        self._lattice_ok = True

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
            x = LieVector(bch_coords(self.sc, x.coords, phi.coords))
            glog = LieVector(bch_coords(self.sc, glog.coords, phi.coords))
        red = self.sk_from_log(x)
        if not all(0 <= v < 1 for v in red):
            raise AssertionError(f"reduction left the unit box: {red}")
        gamma = self.sk_from_log(glog)
        if not all(_is_integral(v) for v in gamma):
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
