"""Low-storage explicit Runge-Kutta time integration.

The five-stage fourth-order 2N-storage scheme of Carpenter & Kennedy
(NASA TM 109112, 1994), the integrator used for both the advection study
(§III-B) and the seismic wave propagation solver (§IV-B).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.trace.tracer import PHASE_RK, traced

# Carpenter-Kennedy LSRK(5,4) coefficients.
RK_A = np.array(
    [
        0.0,
        -567301805773.0 / 1357537059087.0,
        -2404267990393.0 / 2016746695238.0,
        -3550918686646.0 / 2091501179385.0,
        -1275806237668.0 / 842570457699.0,
    ]
)
RK_B = np.array(
    [
        1432997174477.0 / 9575080441755.0,
        5161836677717.0 / 13612068292357.0,
        1720146321549.0 / 2090206949498.0,
        3134564353537.0 / 4481467310338.0,
        2277821191437.0 / 14882151754819.0,
    ]
)
RK_C = np.array(
    [
        0.0,
        1432997174477.0 / 9575080441755.0,
        2526269341429.0 / 6820363962896.0,
        2006345519317.0 / 3224310063776.0,
        2802321613138.0 / 2924317926251.0,
    ]
)


#: Entries per block of the stage update (256 KiB per array, three arrays).
_STAGE_BLOCK_ITEMS = 1 << 15


def _as_rhs(rhs):
    """Accept ``rhs(q, t)`` or any operator exposing ``.rhs(q, t)``.

    Lets callers pass a bound :class:`repro.mangll.op.BoundDGOperator`
    (or the legacy ``DGSolver``) directly instead of wrapping it in a
    lambda.
    """
    method = getattr(rhs, "rhs", None)
    return method if method is not None else rhs


@traced(PHASE_RK)
def lsrk45_step(
    q: np.ndarray,
    t: float,
    dt: float,
    rhs: Callable[[np.ndarray, float], np.ndarray],
    work: np.ndarray = None,
) -> np.ndarray:
    """Advance ``q`` by one LSRK(5,4) step of size ``dt``.

    ``rhs(q, t)`` returns dq/dt (an operator with an ``.rhs`` method is
    accepted too).  Uses the classic 2N-storage update
    ``k = A_s k + dt f(q, t + C_s dt); q = q + B_s k``.  ``q`` is not
    modified; the updated state is returned.  ``work`` optionally reuses
    the register array (any contents: the first stage overwrites it).

    The stage update reuses the array ``rhs`` returns as scratch for the
    ``dt``-scaling and the ``B_s k`` increment (every operator in this
    package returns a fresh array; returns that alias other storage are
    detected and copied), and runs block by block over the leading axis
    so its five passes find ``k``, ``r`` and ``q`` in cache instead of
    streaming each from memory five times.  Each entry still sees the
    same five IEEE-754 operations the 2N formula above performs, in the
    same order, so trajectories are bit-identical to the naive
    expression.
    """
    rhs = _as_rhs(rhs)
    q = q.copy()
    k = np.empty_like(q) if work is None else work
    qv, kv = np.atleast_1d(q), np.atleast_1d(k)
    rows = max(1, _STAGE_BLOCK_ITEMS // max(qv[:1].size, 1))
    for s in range(5):
        r = rhs(q, t + RK_C[s] * dt)
        if r.base is not None or not r.flags.writeable:
            r = r.copy()
        rv = np.atleast_1d(r)
        for i in range(0, len(qv), rows):
            kb, rb, qb = kv[i : i + rows], rv[i : i + rows], qv[i : i + rows]
            if s:
                kb *= RK_A[s]
            else:
                kb.fill(0.0)
            rb *= dt
            kb += rb
            np.multiply(kb, RK_B[s], out=rb)
            qb += rb
    return q


def lsrk45_integrate(
    q: np.ndarray,
    t0: float,
    t1: float,
    dt: float,
    rhs: Callable[[np.ndarray, float], np.ndarray],
    step_hook: Callable[[np.ndarray, float, int], np.ndarray] = None,
) -> np.ndarray:
    """Integrate from ``t0`` to ``t1`` with fixed steps of at most ``dt``.

    ``step_hook(q, t, istep)``, if given, may transform the state after
    each step (e.g. the dynamic AMR re-meshing every K steps of §III-B)
    and must return the (possibly re-shaped) state.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    rhs = _as_rhs(rhs)
    t = t0
    istep = 0
    work = np.empty_like(q)
    while t < t1 - 1e-12 * max(1.0, abs(t1)):
        step = min(dt, t1 - t)
        if work.shape != q.shape:
            work = np.empty_like(q)
        q = lsrk45_step(q, t, step, rhs, work)
        t += step
        istep += 1
        if step_hook is not None:
            q = step_hook(q, t, istep)
            if q.shape != work.shape:
                work = np.empty_like(q)
    return q
