"""Seeded generator of system documents that ``load_system`` accepts.

A document's *shape* (dimension, interval count, anchor placement,
coefficient kind, whether ``B`` or the impulses vanish) is fixed by the
workload; the seed only draws the numbers.  That keeps the cost of a unit a
property of its shape, so runs on different seeds measure the same mix.

Coefficients stay small (entries of A within 0.8, of B within 0.4, of the
impulses within 0.35) so every anchor ``J`` is comfortably invertible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

RETARDED = "retarded"  # zeta_k = t_k
INTERIOR = "interior"  # t_k < zeta_k < t_{k+1}
ADVANCED = "advanced"  # zeta_k = t_{k+1}, the right endpoint

CONST = "const"
TRIG = "trig"


@dataclass(frozen=True)
class Shape:
    n: int
    anchors: tuple  # one of RETARDED / INTERIOR / ADVANCED per interval
    coeff: str  # CONST or TRIG
    b_zero: bool = False
    diagonal: bool = False
    impulsive: bool = True

    @property
    def p(self) -> int:
        return len(self.anchors)

    @property
    def endpoint_impulse(self) -> bool:
        """An advanced-at-endpoint anchor meets a non-zero impulse.

        ``verify_normal_form`` reads ``Q(gamma)`` after the impulse there,
        while the solvers anchor on the interval's left limit, so the
        ``q_equation`` residual of such a system breaches its threshold.
        """
        return self.impulsive and ADVANCED in self.anchors


def _num(x: float) -> str:
    return f"{x:.17g}"


def _trig_entry(rng, w, i, j, amp):
    """``a0 + a1 * f(h w t)`` whose harmonic ``h`` and zero crossings are
    fixed by the position: off-diagonal entries change sign twice per
    harmonic, diagonal ones keep their sign.  Kinks of ``|entry|`` drive the
    cost of the program's norm quadrature, so they belong to the shape."""
    func = "sin" if (i + 2 * j) % 3 else "cos"
    harmonic = 1 + (i + j) % 2
    a1 = rng.uniform(0.5 * amp, amp)
    if i != j:
        a0 = rng.uniform(-0.5, 0.5) * a1
    else:
        a0 = rng.choice([-1.0, 1.0]) * (a1 + rng.uniform(0.2, 0.6) * amp)
    return f"{a0:.6f} + {a1:.6f}*{func}({_num(harmonic * w)}*t)"


def _matrix(rng, shape, w, center, amp, zero):
    n = shape.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if zero or (shape.diagonal and i != j):
                row.append("0")
            elif shape.coeff == CONST:
                row.append(f"{rng.uniform(-center, center):.6f}")
            else:
                row.append(_trig_entry(rng, w, i, j, amp))
        rows.append(row)
    return rows


def _impulse(rng, shape):
    n = shape.n
    if not shape.impulsive:
        return np.zeros((n, n))
    C = rng.uniform(-0.35, 0.35, size=(n, n))
    if shape.diagonal:
        C = np.diag(np.diag(C))
    else:
        C[~np.eye(n, dtype=bool)] *= 0.3
    return np.round(C, 6)


def _grid(rng, shape, omega):
    p = shape.p
    inner = np.sort(rng.uniform(0.2, 0.8, size=p - 1)) if p > 1 else np.array([])
    # Spread the breakpoints so no interval is shorter than omega / (4 p).
    fracs = np.concatenate(([0.0], inner, [1.0]))
    fracs = 0.5 * fracs + 0.5 * np.linspace(0.0, 1.0, p + 1)
    times = [float(f * omega) for f in fracs]
    times[0], times[-1] = 0.0, omega
    args = []
    for k, kind in enumerate(shape.anchors):
        lo, hi = times[k], times[k + 1]
        if kind == RETARDED:
            args.append(lo)
        elif kind == ADVANCED:
            args.append(hi)
        else:
            args.append(float(lo + rng.uniform(0.25, 0.75) * (hi - lo)))
    return times, args


def document(rng: np.random.Generator, shape: Shape) -> str:
    """Draw the JSON text of one document of ``shape`` from ``rng``."""
    omega = float(rng.uniform(0.8, 2.5))
    w = 2.0 * math.pi / omega
    times, args = _grid(rng, shape, omega)
    doc = {
        "n": shape.n,
        "omega": omega,
        "p": shape.p,
        "times": times,
        "args": args,
        "A": _matrix(rng, shape, w, 0.5, 0.4, zero=False),
        "B": _matrix(rng, shape, w, 0.25, 0.15, zero=shape.b_zero),
        "impulses": [_impulse(rng, shape).tolist() for _ in range(shape.p)],
    }
    return json.dumps(doc)


def sweep_template(rng: np.random.Generator) -> str:
    """n=2, p=2 template whose ``B`` scales with the sweep parameter ``$EPS``.

    Impulses act at both breakpoints; the anchors are interior and retarded,
    so every row is an ordinary, verifiable system.
    """
    shape = Shape(2, (INTERIOR, RETARDED), TRIG)
    doc = json.loads(document(rng, shape))
    doc["B"] = [[f"($EPS)*({e})" for e in row] for row in doc["B"]]
    return json.dumps(doc)


def shift_diagonal(text: str, sigma: float) -> str:
    """The document with ``sigma`` added to every diagonal entry of ``A``;
    with ``B = 0`` this scales every multiplier by ``exp(sigma omega)``."""
    doc = json.loads(text)
    for i, row in enumerate(doc["A"]):
        row[i] = f"{sigma:.17g} + ({row[i]})"
    return json.dumps(doc)


def substitute(template: str, param: str, value: float) -> str:
    """The document ``idepcag sweep`` builds for one parameter value."""
    return template.replace(f"${param}", f"{value:.17g}")
