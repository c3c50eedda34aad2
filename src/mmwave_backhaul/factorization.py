"""Constant-modulus factorization of precoders and combiners.

A target matrix is approximated by a small digital matrix times an
analog matrix whose entries all share one modulus (a phase-shifter
network can only rotate).  This is the phase-extraction alternating
minimization of Yu, Shen, Zhang & Letaief (IEEE JSTSP 2016): each step
copies phases into the analog stage, then refits the digital stage by
least squares, then refreshes the phase-copy target through the inverse
of the square digital stage.

A step stacks the target T over the analog stage A, so one product
gives both the cross term M = T A^H and the Gram matrix G = A A^H, and
one batched inverse of that R x R pair gives the normal-equations refit
``digital = M inv(G)`` and the refreshed target ``inv(digital) @ T =
G inv(M) @ T``.  A pseudoinverse is taken only when one of the pair is
too ill-conditioned (or, for a rank-deficient target, singular) to
invert accurately.  The phase copy divides each entry by its magnitude
rather than taking its angle.  Inside the loop the residual comes from
the normal equations, ``||T - digital A||^2 = ||T||^2 - Re tr(digital^H
M)``; the returned iterate's residual is recomputed from its factors.
The iteration is not provably monotone, so the best iterate seen is
returned rather than the last.

The analog modulus is ``1/sqrt(N)`` for N elements; the digital refit
absorbs any other scale.  The iteration stops once the best residual
has stopped falling: when over the last ``_STALL_WINDOW`` steps it fell
by no more than ``_STALL_TOLERANCE`` per step on average (an absolute
change of the relative residual), or at once when it is within that
tolerance of zero.  Judging the best over a window, not the raw
residual from one step to the next, rides out the steps where the
residual overshoots before it falls again, and ends the runs where the
raw residual keeps oscillating about a best that no longer moves.

The iteration normally starts from the target itself.  A caller that
knows a constant-modulus matrix spanning the target's row space (the
array responses of a channel's paths, when every path carries a stream)
passes it as the start; the first digital refit is then exact and the
iteration stops at its first step.

Both ends of a link take the same factorization, so there is one result
type, :class:`HybridFactors`.  :func:`factorize` returns a precoder,
``digital @ analog``; :func:`factorize_combiner` factorizes a combiner's
conjugate transpose and returns the factors transposed back, ``analog @
digital``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FactorizeOptions",
    "HybridFactors",
    "phase_project",
    "factorize",
    "factorize_combiner",
]


@dataclass(frozen=True)
class FactorizeOptions:
    """Iteration controls: the cap on the alternating steps."""

    max_iterations: int = 100

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class HybridFactors:
    """A constant-modulus analog stage and the digital stage it pairs with.

    For a precoder (from :func:`factorize`) ``analog`` is (R, N) and the
    approximation is ``digital @ analog``; for a combiner (from
    :func:`factorize_combiner`) ``analog`` is (N, R) and it is ``analog
    @ digital``.  ``digital`` is (R, R) and every entry of ``analog`` has
    magnitude ``modulus``.
    """

    analog: np.ndarray
    digital: np.ndarray
    modulus: float
    residual: float
    iterations_used: int
    pinv_steps: int  # steps whose refit or refreshed target took a pseudoinverse


# The smallest normal float: a magnitude of at least this (times the
# modulus, when that exceeds one) leaves ``modulus / magnitude`` finite.
_TINY = np.finfo(float).tiny


def phase_project(m: np.ndarray, modulus: float, out: np.ndarray | None = None) -> np.ndarray:
    """Keep each entry's phase but force its magnitude to ``modulus``.

    Scales each entry by ``modulus / |entry|``, into ``out`` when given.
    Entries too small to divide by (zero or subnormal) take their phase
    from ``np.angle`` instead, so zero entries map to ``modulus`` with
    phase 0, which keeps the projection deterministic.
    """
    m = np.asarray(m, dtype=complex)
    magnitude = np.abs(m)
    if magnitude.min(initial=np.inf) >= _TINY * max(1.0, modulus):
        return np.multiply(m, modulus / magnitude, out=out)
    return np.multiply(np.exp(1j * np.angle(m)), modulus, out=out)


# An R x R inverse stands in for a pseudoinverse only while it is well
# conditioned: the largest entry of the matrix times the largest entry
# of its inverse (within a factor R**2 of the condition number) must not
# exceed _MAX_COND.  Each step tests the Gram matrix A A^H and the cross
# term T A^H.  The Gram matrix squares the analog stage's condition
# number, which climbs past 1e5 on slowly converging link runs, where
# its normal equations would lose digits; a rank-deficient target makes
# the cross term singular.  Such steps take the pseudoinverse; they are
# rare on the link (7 of 53087 steps over 320 fig5 draws).
_MAX_COND = 1e4

# Steps over which the best residual must fall by more than
# _STALL_TOLERANCE per step, on average, for the iteration to go on.  The
# link's combiners can overshoot: the residual rises above its best for up
# to a dozen steps before falling far below it.  A window of one stops at the
# first rise (acceptance criterion 5's worst residual becomes 0.31, not
# 0.015), and a window of ten still stops some link combiners at 0.24
# where the iteration goes on to 0.027.
_STALL_WINDOW = 20
_STALL_TOLERANCE = 1e-6


def _checked_inverse(stack: np.ndarray) -> np.ndarray | None:
    """Batched inverse of the (M, R, R) ``stack``, or None unless every matrix is well conditioned.

    A matrix is well conditioned when the largest entry of its inverse
    is at most ``_MAX_COND`` over its own largest entry.
    """
    try:
        inverses = np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        return None
    matrix_maxes = np.abs(stack).max(axis=(1, 2)).tolist()
    inverse_maxes = np.abs(inverses).max(axis=(1, 2)).tolist()
    for matrix_max, inverse_max in zip(matrix_maxes, inverse_maxes):
        if not inverse_max <= _MAX_COND / matrix_max:
            return None
    return inverses


def _step(target: np.ndarray, shadow: np.ndarray, modulus: float) -> tuple:
    """One alternating step from the phase-copy target ``shadow``.

    Returns the analog stage (the phase copy of ``shadow``), the
    least-squares digital stage for it, the fit ``Re tr(digital^H
    target analog^H)`` (the squared residual is ``||target||_F^2`` less
    the fit), the next phase-copy target ``inv(digital) @ target`` and
    whether a pseudoinverse stood in for an inverse.
    """
    n_streams = target.shape[0]
    stack = np.empty((2 * n_streams, target.shape[1]), dtype=complex)
    stack[:n_streams] = target
    analog = phase_project(shadow, modulus, out=stack[n_streams:])
    # The cross term target @ analog^H over the Gram matrix analog @ analog^H.
    pair = (stack @ analog.conj().T).reshape(2, n_streams, n_streams)
    cross, gram = pair
    inverses = _checked_inverse(pair)
    if inverses is not None:
        # cross @ inv(gram), and inv(cross @ inv(gram)) = gram @ inv(cross).
        digital, lift = pair @ inverses[::-1]
        shadow = lift @ target
    else:
        gram_inv = _checked_inverse(gram[np.newaxis])
        digital = target @ np.linalg.pinv(analog) if gram_inv is None else cross @ gram_inv[0]
        shadow = np.linalg.pinv(digital) @ target
    return analog, digital, float(np.vdot(digital, cross).real), shadow, inverses is None


def factorize(target: np.ndarray, opts: FactorizeOptions | None = None,
              start: np.ndarray | None = None) -> HybridFactors:
    """Approximate ``target`` (R, N) by digital @ analog with |analog| = 1/sqrt(N).

    Starts the phase-copy shadow at ``start`` (R, N), or at the target
    itself when ``start`` is None, alternates the three update steps,
    and records the relative residual ``||target - digital @ analog||_F
    / ||target||_F`` after each digital refit, from the normal
    equations.  Stops at ``max_iterations``, or once the lowest
    relative residual so far is at most ``_STALL_TOLERANCE`` or has
    fallen by at most ``_STALL_WINDOW * _STALL_TOLERANCE`` (an absolute
    change) over the last ``_STALL_WINDOW`` steps.  Returns the
    lowest-residual iterate, with its residual recomputed from its
    factors and ``pinv_steps`` counting the steps that took a
    pseudoinverse.

    Raises
    ------
    ValueError
        If the target is not a matrix with R <= N, is all zero, or
        ``start`` has a different shape.
    """
    target = np.asarray(target, dtype=complex)
    if target.ndim != 2:
        raise ValueError("target must be a matrix")
    n_streams, n_elements = target.shape
    if n_streams > n_elements:
        raise ValueError("target must have at most as many rows as columns")
    target_norm = np.linalg.norm(target)
    if target_norm == 0:
        raise ValueError("target must be nonzero")

    opts = opts or FactorizeOptions()
    modulus = 1.0 / np.sqrt(n_elements)

    if start is None:
        shadow = target
    else:
        shadow = np.asarray(start, dtype=complex)
        if shadow.shape != target.shape:
            raise ValueError(f"start must have the target's shape {target.shape}")
    target_energy = float(np.vdot(target, target).real)
    best_digital = best_analog = None
    best_residual = np.inf
    best_history = []
    iterations = pinv_steps = 0
    for iterations in range(1, opts.max_iterations + 1):
        analog, digital, fit, next_shadow, took_pinv = _step(target, shadow, modulus)
        pinv_steps += took_pinv
        residual = max(target_energy - fit, 0.0) ** 0.5 / target_norm
        if residual < best_residual:
            best_digital, best_analog, best_residual = digital, analog, residual
        best_history.append(best_residual)
        # A best within the tolerance of zero cannot fall by more.
        if best_residual <= _STALL_TOLERANCE or (
                iterations > _STALL_WINDOW
                and best_history[-_STALL_WINDOW - 1] - best_residual
                <= _STALL_WINDOW * _STALL_TOLERANCE):
            break
        shadow = next_shadow

    return HybridFactors(
        analog=best_analog,
        digital=best_digital,
        modulus=modulus,
        residual=float(np.linalg.norm(target - best_digital @ best_analog) / target_norm),
        iterations_used=iterations,
        pinv_steps=pinv_steps,
    )


def factorize_combiner(target: np.ndarray, opts: FactorizeOptions | None = None,
                       start: np.ndarray | None = None) -> HybridFactors:
    """Approximate a combiner ``target`` (N, R) by analog @ digital.

    Runs :func:`factorize` on the conjugate transpose (and ``start``,
    also (N, R), on its conjugate transpose) and transposes the factors
    back, so the analog stage keeps the constant-modulus property and
    the residual is unchanged.
    """
    if start is not None:
        start = np.asarray(start, dtype=complex).conj().T
    result = factorize(np.asarray(target, dtype=complex).conj().T, opts, start)
    return dataclasses.replace(result, analog=result.analog.conj().T,
                               digital=result.digital.conj().T)
