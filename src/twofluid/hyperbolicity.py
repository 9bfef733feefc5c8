"""Legendre transform, Godunov-symmetric form and hyperbolicity mapping.

Mechanical restriction: the entropies are frozen parameters here, so the
Lagrangian density reads L = j1^2/(2 rho1) + j2^2/(2 rho2) - W(rho1, rho2, w)
with j_alpha = rho_alpha u_alpha.  The partial Legendre transform with respect
to the densities,

    G(sigma1, sigma2, j1, j2) = L - sum sigma_a rho_a,
    sigma_a = dL/drho_a (at fixed j),

satisfies dG/dsigma_a = -rho_a and dG/dj_a = K_a, and the system becomes
A u_t + B u_x = 0 with u = (sigma1, sigma2, j1, j2), A = Hess G symmetric,
and B the (constant, symmetric) negated Hessian of the flux potential
sigma1 j1 + sigma2 j2.  Positive definiteness of A implies hyperbolicity;
characteristic speeds solve det(B - lambda A) = 0.

Two routes to A are provided.  The per-state oracle differences the gradient
of G directly in the (sigma, j) variables; it inverts the Legendre map
(sigma, j) -> (rho, j) at its eight shifted states in one stacked damped
Newton that reads only ``model.gradient``.  The batched route takes the
Hessian of L in m = (rho1, rho2, j1, j2) by the chain rule from the law's
Hessian H and W_w of one ``model.derivatives`` pass, as one array of flat
rows: the 10 distinct entries L_rr (11, 22, 12), L_rj (11, 22, 12, 21)
and L_jj (11, 22, 12) of each state.  With these 2x2 blocks

    A = [[-L_rr^-1, L_rr^-1 L_rj], [L_jr L_rr^-1, L_jj - L_jr L_rr^-1 L_rj]]
      = U^T diag(-L_rr^-1, L_jj) U,

so A is positive definite exactly when -L_rr and L_jj are: a closed-form
2x2 Cholesky of the two blocks certifies hyperbolicity.  The speeds are
Galilean covariant but A is not (a phase that outruns its sound speed
fails in the lab frame), so a state the lab frame does not certify and
whose mixture momentum is not round-off is tried again at zero mixture
momentum, with the same H and W_w; its margin and min-eig(A) read the
rows of the frame it keeps.  Each set of states (flat arrays) is certified
once (:func:`_certified_frame`), with one reduction of det M(lambda) = 0,
M(lambda) = lambda^2 L_jj + lambda (L_rj + L_jr) + L_rr: for F_j F_j^T =
L_jj, F_r F_r^T = -L_rr and G = F_j^-1, G M G^T = lambda^2 I + lambda X -
N with X = G (L_rj + L_jr) G^T, N = Y Y^T and Y = G F_r.  One root-finder
of the quartic det M (:func:`_speeds`) gives the solver's extreme pair and
the map's four speeds.  The decoupled (a = 0) case has a closed-form oracle.

The critical relative velocity w*, where the certificate first fails in
the zero-mixture-momentum frame, comes in closed form for the built-in
law W = W0 - a w^2 / 2: L_jj does not depend on w there and L_rr is affine
in w^2.  Any other law, a subclass too, gets a batched certificate scan,
the oracle of the closed form.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .potential import (RHO_FLOOR, ArrayLike, PotentialModel,
                        SeparableAddedMass, require_admissible)
from .state import ConvergenceError, PrimitiveState

#: B of the symmetric form A u_t + B u_x = 0: minus the Hessian of the flux
#: potential sigma1 j1 + sigma2 j2 in u = (sigma1, sigma2, j1, j2).
B_MATRIX = -np.array([
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
])


class AsymmetryError(RuntimeError):
    """Numerical Hessian of G came out asymmetric beyond tolerance."""


@dataclass(frozen=True, eq=False)
class LegendreVars:
    sigma1: ArrayLike
    sigma2: ArrayLike
    j1: ArrayLike
    j2: ArrayLike
    G: ArrayLike


@dataclass(frozen=True, eq=False)
class SymmetricSystem:
    A: np.ndarray
    B: np.ndarray
    asymmetry_A: float
    asymmetry_B: float
    eig_A: np.ndarray

    @property
    def min_eig_A(self) -> float:
        return float(self.eig_A[0])


@dataclass(frozen=True, eq=False)
class SpeedResult:
    hyperbolic: bool
    speeds: np.ndarray | None
    min_eig_A: float


@dataclass(frozen=True, eq=False)
class StabilityCheck:
    d2W_dw2: ArrayLike
    d2W_drho1sq: ArrayLike
    hessian_det2: ArrayLike
    ineq1: ArrayLike
    ineq2: ArrayLike
    ineq3: ArrayLike

    @property
    def all_hold(self):
        return self.ineq1 & self.ineq2 & self.ineq3


#: One record of :func:`map_hyperbolic_region` per grid point.
MAP_DTYPE = np.dtype([("rho1", float), ("rho2", float), ("w", float),
                      ("min_eig_A", float), ("ineq1", bool), ("ineq2", bool),
                      ("ineq3", bool), ("speeds", float, (4,)),
                      ("hyperbolic", bool)])


def _forward_maps(model, rho1, rho2, j1, j2, s1, s2):
    """(sigma1, sigma2, K1, K2) as functions of (rho, j) at frozen entropies."""
    u1 = j1 / rho1
    u2 = j2 / rho2
    w = u2 - u1
    g = model.gradient(rho1, rho2, s1, s2, w)
    Wr1, Wr2, Ww = g[0], g[1], g[4]
    sigma1 = -0.5 * u1 * u1 - Wr1 - Ww * u1 / rho1
    sigma2 = -0.5 * u2 * u2 - Wr2 + Ww * u2 / rho2
    K1 = u1 + Ww / rho1
    K2 = u2 - Ww / rho2
    return sigma1, sigma2, K1, K2


def _lagrangian_mech(model, rho1, rho2, j1, j2, s1, s2):
    return (0.5 * j1 * j1 / rho1 + 0.5 * j2 * j2 / rho2
            - model.value(rho1, rho2, s1, s2, j2 / rho2 - j1 / rho1))


def legendre_transform(model: PotentialModel, p: PrimitiveState) -> LegendreVars:
    """sigma_a = dL/drho_a at fixed momenta, G = L - sum sigma_a rho_a."""
    j1 = p.rho1 * p.u1
    j2 = p.rho2 * p.u2
    sigma1, sigma2, _, _ = _forward_maps(model, p.rho1, p.rho2, j1, j2, p.s1, p.s2)
    L = _lagrangian_mech(model, p.rho1, p.rho2, j1, j2, p.s1, p.s2)
    return LegendreVars(sigma1=sigma1, sigma2=sigma2, j1=j1, j2=j2,
                        G=L - sigma1 * p.rho1 - sigma2 * p.rho2)


def invert_legendre(model, sigma, j, s1, s2, rho_guess,
                    tol: float = 1e-13, max_iter: int = 60):
    """Solve sigma(rho; j) = sigma for (rho1, rho2) by damped Newton.

    ``sigma`` and ``j`` are (2, m) stacks of targets, all started from the
    pair ``rho_guess``; returns the (2, m) densities.  Each column
    converges, is damped and fails on its own (the ``cell`` of a
    ``ConvergenceError`` is the first failing column).  An iteration makes
    one :func:`_forward_maps` call, on the centre and the +-h shifts of each
    density of the unconverged columns, h = 1e-7 max(1, rho) shortened to
    keep rho - h above the density floor.
    """
    sigma, j = np.asarray(sigma, dtype=float), np.asarray(j, dtype=float)
    rho = np.asarray(rho_guess, dtype=float)[:, None] + np.zeros(sigma.shape)
    scale = np.maximum(1.0, np.max(np.abs(sigma), axis=0))
    todo = np.arange(sigma.shape[1])
    for _ in range(max_iter):
        r = rho[:, todo]
        # r > RHO_FLOOR: the guess is admissible and no damped step below
        # leaves the admissible set
        h = np.minimum(1e-7 * np.maximum(1.0, r), 0.5 * (r - RHO_FLOOR))
        # the centre, then rho1 +- h and rho2 +- h: a (5, 2, k) stack
        m = r + h * np.array([[0, 0], [1, 0], [-1, 0], [0, 1],
                              [0, -1]])[..., None]
        f = np.stack(_forward_maps(model, m[:, 0], m[:, 1], j[0, todo],
                                   j[1, todo], s1, s2)[:2], axis=1)
        res = f[0] - sigma[:, todo]
        left = ~(np.max(np.abs(res), axis=0) <= tol * scale[todo])
        todo, r, h, f, res = (todo[left], r[:, left], h[:, left],
                              f[..., left], res[:, left])
        if not todo.size:
            return rho
        # J[c, k, i] = d sigma_k / d rho_i of column c
        J = np.transpose((f[1::2] - f[2::2]) / (2.0 * h[:, None]), (2, 1, 0))
        try:
            step = np.linalg.solve(J, res.T[..., None])[..., 0].T
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"singular Jacobian in Legendre inversion: {exc}")
        # the step halved 0 to 60 times: each column takes the first that
        # keeps both densities above the floor
        new = r - step * 0.5 ** np.arange(61)[:, None, None]
        ok = ~(np.min(new, axis=1) <= RHO_FLOOR)
        bad = np.flatnonzero(~ok.any(axis=0))
        if bad.size:
            raise ConvergenceError("Legendre inversion left the admissible set",
                                   cell=int(todo[bad[0]]))
        rho[:, todo] = new[ok.argmax(axis=0), :, np.arange(todo.size)].T
    raise ConvergenceError("Legendre inversion did not converge",
                           cell=int(todo[0]))


def _shifted_inversions(model, p, h):
    """The oracle's eight inversions, in one stacked Newton from ``p``'s
    densities.  Returns (u, h_i, rho): u = (sigma1, sigma2, j1, j2) at ``p``
    shifted by +h_i and -h_i along each axis i in turn, a (4, 8) stack of
    columns, with h_i = h max(1, |u_i|), and rho the (2, 8) densities there.
    """
    lv = legendre_transform(model, p)
    u0 = np.array([lv.sigma1, lv.sigma2, lv.j1, lv.j2], dtype=float)
    hi = h * np.maximum(1.0, np.abs(u0))
    u = u0[:, None] + np.kron(np.diag(hi), [1.0, -1.0])
    return u, hi, invert_legendre(model, u[:2], u[2:], p.s1, p.s2,
                                  (p.rho1, p.rho2))


def check_legendre_identities(model: PotentialModel, p: PrimitiveState,
                              h: float = 1e-7) -> float:
    """Finite-difference check of dG/dsigma_a = -rho_a and dG/dj_a = K_a.

    Returns the worst relative error over the four identities.
    """
    u, hi, rho = _shifted_inversions(model, p, h)
    G = (_lagrangian_mech(model, rho[0], rho[1], u[2], u[3], p.s1, p.s2)
         - u[0] * rho[0] - u[1] * rho[1])
    num = (G[::2] - G[1::2]) / (2.0 * hi)
    _, _, K1, K2 = _forward_maps(model, p.rho1, p.rho2, p.rho1 * p.u1,
                                 p.rho2 * p.u2, p.s1, p.s2)
    expect = np.array([-p.rho1, -p.rho2, K1, K2], dtype=float)
    return float(np.max(np.abs(num - expect) / np.maximum(1.0, np.abs(expect))))


def assemble_symmetric_system(model: PotentialModel, p: PrimitiveState,
                              h: float = 1e-7,
                              asym_tol: float = 1e-6) -> SymmetricSystem:
    """A = Hess G by central differences of (-rho, K) in (sigma, j).

    The raw matrix is symmetrized by (A + A^T)/2; the pre-symmetrization
    asymmetry is reported and an error is raised when it exceeds ``asym_tol``
    (a bad Hessian or inadmissible state).  This error and a failed
    Legendre inversion state det L_rr at ``p``, near zero where A blows up.
    """
    try:
        u, hi, rho = _shifted_inversions(model, p, h)
        _, _, K1, K2 = _forward_maps(model, rho[0], rho[1], u[2], u[3],
                                     p.s1, p.s2)
        grad = np.array([-rho[0], -rho[1], K1, K2])
        A = (grad[:, ::2] - grad[:, 1::2]) / (2.0 * hi)
        scale = np.linalg.norm(A)
        asym = float(np.linalg.norm(A - A.T) / scale) if scale > 0 else 0.0
        if asym > asym_tol:
            raise AsymmetryError(f"Hessian of G asymmetric: {asym:g} "
                                 f"relative (tolerance {asym_tol:g})")
    except (AsymmetryError, ConvergenceError) as exc:
        a, c, b = _lagrangian_hessian(*_law_hessian(
            model, p.rho1, p.rho2, p.s1, p.s2, p.w), p.rho1, p.rho2, p.u1,
            p.u2)[:3]
        exc.args = (f"{exc}; det L_rr = {a * c - b * b:.3g} at this state",)
        raise
    A = 0.5 * (A + A.T)
    return SymmetricSystem(A=A, B=B_MATRIX.copy(), asymmetry_A=asym,
                           asymmetry_B=0.0, eig_A=np.linalg.eigvalsh(A))


def characteristic_speeds(sys: SymmetricSystem) -> SpeedResult:
    """Roots of det(B - lambda A) = 0; real and sorted when A is pos. def.

    A = F F^T by Cholesky (its failure means A is not positive definite),
    then the speeds are the eigenvalues of F^-1 B F^-T.
    """
    try:
        F = np.linalg.cholesky(sys.A)
    except np.linalg.LinAlgError:
        return SpeedResult(hyperbolic=False, speeds=None,
                           min_eig_A=sys.min_eig_A)
    Finv = np.linalg.inv(F)
    lam = np.linalg.eigvalsh(Finv @ sys.B @ Finv.T)
    return SpeedResult(hyperbolic=True, speeds=lam, min_eig_A=sys.min_eig_A)


def check_stability_inequalities(model: PotentialModel, p: PrimitiveState,
                                 hessian=None) -> StabilityCheck:
    """The three convexity conditions sufficient for small-w hyperbolicity.

    Broadcasts over array-valued states.  ``hessian``, the law's Hessian at
    ``p``, is built unless given.
    """
    H = model.hessian(p.rho1, p.rho2, p.s1, p.s2, p.w) if hessian is None \
        else hessian
    ww = H[4, 4]
    r11 = H[0, 0]
    det2 = H[0, 0] * H[1, 1] - H[0, 1] ** 2
    return StabilityCheck(d2W_dw2=ww, d2W_drho1sq=r11, hessian_det2=det2,
                          ineq1=ww < 0.0, ineq2=r11 > 0.0, ineq3=det2 > 0.0)


def mixture_rest_state(rho1: ArrayLike, rho2: ArrayLike, w: ArrayLike,
                       s1: ArrayLike, s2: ArrayLike) -> PrimitiveState:
    """State with relative velocity w in the zero-mixture-momentum frame."""
    require_admissible(rho1, rho2)
    rho = rho1 + rho2
    return PrimitiveState(rho1=rho1, rho2=rho2,
                          u1=-rho2 * w / rho, u2=rho1 * w / rho, s1=s1, s2=s2)


def map_hyperbolic_region(model: PotentialModel, rho1_vals, rho2_vals, w_vals,
                          s1: float = 0.0, s2: float = 0.0) -> np.recarray:
    """The hyperbolicity map over the grid (rho1, rho2, w): one record of
    :data:`MAP_DTYPE` per grid point, in ``ij`` order (w fastest).

    States are taken in the zero-mixture-momentum frame and certified in
    one batched call.  ``hyperbolic`` is the block-Cholesky certificate;
    ``speeds`` are the sorted characteristic speeds, all NaN where it
    fails; ``min_eig_A`` is NaN where A is undefined (singular L_rr);
    ``ineq1``-``ineq3`` are the stability inequalities.  Columns read as
    attributes (``maps.hyperbolic``), and so do the fields of one record
    (``maps[i].min_eig_A``).
    """
    grids = np.meshgrid(*[np.atleast_1d(np.asarray(v, dtype=float))
                          for v in (rho1_vals, rho2_vals, w_vals)],
                        indexing="ij")
    r1, r2, w = (g.ravel() for g in grids)
    maps = np.recarray(r1.size, dtype=MAP_DTYPE)
    maps.rho1, maps.rho2, maps.w = r1, r2, w
    p = mixture_rest_state(r1, r2, w, s1, s2)
    H, Ww = _law_hessian(model, r1, r2, s1, s2, p.w)
    ineq = check_stability_inequalities(model, p, H)
    maps.ineq1, maps.ineq2, maps.ineq3 = ineq.ineq1, ineq.ineq2, ineq.ineq3
    cert = _certified_frame(H, Ww, r1, r2, p.u1, p.u2)
    del H, ineq  # not held through the speeds, the map's peak of memory
    maps.hyperbolic, maps.speeds = cert.ok, _speeds(cert, range(4))
    maps.min_eig_A = min_eig_A_batch(cert)
    return maps


#: Sub-intervals per pass of the w* scan, and its relative width at the end.
N_SCAN, SCAN_REL_TOL = 64, 1e-6


def critical_relative_velocity(model: PotentialModel, rho1: float, rho2: float,
                               s1: float = 0.0, s2: float = 0.0,
                               w_max: float = 20.0):
    """The w* where the hyperbolicity certificate fails at fixed densities.

    States are taken in the zero-mixture-momentum frame.  Returns 0.0 if
    the certificate already fails at w = 0, and None if it holds up to
    ``w_max`` (positive and finite).  For a :class:`SeparableAddedMass`
    (not a subclass, which may change how W depends on w) w* is taken in
    closed form.  For any other law each pass of a scan evaluates the
    certificate at ``N_SCAN + 1`` evenly spaced w in [lo, hi] in one
    batched call and keeps the first sub-interval on which it fails,
    starting from [0, ``w_max``], until it is narrower than
    ``SCAN_REL_TOL`` times its upper end, and returns its midpoint.  Raises
    ValueError where ``s1`` or ``s2`` is not finite.
    """
    if not 0.0 < w_max < math.inf:
        raise ValueError(f"w_max must be positive and finite; got {w_max!r}")
    for name, s in (("s1", s1), ("s2", s2)):
        if not math.isfinite(s):
            raise ValueError(f"{name} must be finite; got {s!r}")
    require_admissible(rho1, rho2)
    rho = rho1 + rho2
    if type(model) is SeparableAddedMass:
        # L_jj is constant and -L_rr = N0 + w^2 N2: with F F^T = N0,
        # -L_rr = F (I + w^2 M) F^T for M = F^-1 N2 F^-T, so the certificate
        # first fails at w^2 = -1 / min-eig(M), well conditioned also where
        # det(-L_rr), a quadratic in w^2, has a double root (W_w = W_ww w)
        H = model.hessian(rho1, rho2, s1, s2, np.array([0.0, 1.0]))
        R0, R1 = (_lagrangian_hessian(H[..., k], H[4, 4, k] * w, rho1, rho2,
                                      -rho2 * w / rho, rho1 * w / rho)
                  for k, w in enumerate((0.0, 1.0)))
        ok, L = _cholesky2(R0)
        if not (ok[0] and ok[1]):
            return 0.0
        (m11, m22, m12), _ = _congruence(L[:, 0], *(R0[:3] - R1[:3]))
        mu = 0.5 * (m11 + m22) - math.hypot(0.5 * (m11 - m22), m12)
        return math.sqrt(-1.0 / mu) if mu * w_max * w_max <= -1.0 else None
    lo, hi = 0.0, float(w_max)
    while hi - lo > SCAN_REL_TOL * hi:
        ws = np.linspace(lo, hi, N_SCAN + 1)
        failed = np.flatnonzero(~_certificate(
            *_law_hessian(model, rho1, rho2, s1, s2, ws), rho1, rho2,
            -rho2 * ws / rho, rho1 * ws / rho, 0.0)[0])
        # after the first pass ws[0] = lo is certified and ws[-1] = hi fails
        if failed.size == 0:
            return None
        if failed[0] == 0:
            return 0.0
        lo, hi = float(ws[failed[0] - 1]), float(ws[failed[0]])
    return 0.5 * (lo + hi)


def _law_hessian(model: PotentialModel, rho1, rho2, s1, s2, w):
    """(H, W_w), what the certificate reads of the law, in one law pass."""
    _, grad, H = model.derivatives(rho1, rho2, s1, s2, w)
    return H, grad[4]


def _lagrangian_hessian(H, Ww, rho1, rho2, u1, u2):
    """Hess L in m = (rho1, rho2, j1, j2) at frozen entropies, by the chain rule.

    L = j1^2/(2 rho1) + j2^2/(2 rho2) - W(rho1, rho2, s1, s2, w) with
    w = j2/rho2 - j1/rho1; ``H`` and ``Ww`` are the law's Hessian and W_w
    at w = u2 - u1.  The inputs broadcast together to a shape S; returns
    one (10,) + S array of rows, the 10 distinct entries of the 2x2
    blocks: L_rr (11, 22, 12), L_rj (11, 22, 12, 21) and L_jj (11, 22, 12),
    with L_rj[i, k] = d2L/drho_i dj_k.
    """
    Www = H[4, 4]
    wj1, wj2 = -1.0 / rho1, 1.0 / rho2            # dw/dj_a
    wr1, wr2 = -u1 * wj1, -u2 * wj2               # dw/drho_a
    K1, K2 = u1 - Ww * wj1, u2 - Ww * wj2         # dL/dj_a
    # d(W_w)/drho_a along w(m)
    q1, q2 = H[0, 4] + Www * wr1, H[1, 4] + Www * wr2
    R = np.empty((10,) + np.broadcast(Www, Ww, rho1, rho2, u1, u2).shape)
    # the kinetic part and the W_w d2w terms sit on the diagonals
    R[0] = -(H[0, 0] + q1 * wr1 + H[0, 4] * wr1) + u1 * (2.0 * K1 - u1) / rho1
    R[1] = -(H[1, 1] + q2 * wr2 + H[1, 4] * wr2) + u2 * (2.0 * K2 - u2) / rho2
    R[2] = -(H[0, 1] + q1 * wr2 + H[1, 4] * wr1)
    R[3] = -q1 * wj1 - K1 / rho1
    R[4] = -q2 * wj2 - K2 / rho2
    R[5] = -q1 * wj2
    R[6] = -q2 * wj1
    R[7] = -Www * wj1 * wj1 + 1.0 / rho1
    R[8] = -Www * wj2 * wj2 + 1.0 / rho2
    R[9] = -Www * wj1 * wj2
    return R


def _cholesky2(R):
    """Closed-form Cholesky of -L_rr and L_jj (index 0 and 1 of the second
    axis) from the rows ``R``: (ok, L), ``ok`` where the block is positive
    definite with finite pivots (never where an entry is not finite), and
    there its factor L = (l11, l21, l22)."""
    a, c, b = np.array((-R[:3], R[7:])).swapaxes(0, 1)
    L = np.empty((3,) + a.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.sqrt(a, out=L[0])
        np.divide(b, L[0], out=L[1])
        pivot2 = c - L[1] * L[1]
        np.sqrt(pivot2, out=L[2])
    return (a > 0.0) & (pivot2 > 0.0) & (np.maximum(a, pivot2) < np.inf), L


def _scaled_margin(R):
    """The smaller of min-eig / ||block||_2 of -L_rr and L_jj from the rows
    ``R``: > 0 exactly where both blocks are positive definite."""
    a, c, b = np.array((-R[:3], R[7:])).swapaxes(0, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        pivot2 = c - (b / np.sqrt(a)) ** 2
        mid, rad = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
        # where positive definite, min-eig / max-eig = (a / max-eig) (pivot2
        # / max-eig), det = a pivot2 (no cancellation or overflow); else <= 0
        scaled = np.where((a > 0.0) & (pivot2 > 0.0),
                          (a / (mid + rad)) * (pivot2 / (mid + rad)),
                          np.fmin((mid - rad) / (np.abs(mid) + rad), 0.0))
    return np.minimum(scaled[0], scaled[1])


def _certificate(H, Ww, rho1, rho2, u1, u2, V):
    """Block-Cholesky hyperbolicity certificate in the frame moving with V:
    (ok, L, R), ``ok`` where -L_rr and L_jj are positive definite (A = Hess
    G is then), L their factors (:func:`_cholesky2`), R the Hess-L rows."""
    R = _lagrangian_hessian(H, Ww, rho1, rho2, u1 - V, u2 - V)
    ok, L = _cholesky2(R)
    return ok[0] & ok[1], L, R


def _symmetric_system(R):
    """A = Hess G, an (..., 4, 4) stack, from the rows ``R`` of Hess L, by
    the closed-form inverse of L_rr; not finite where L_rr is singular."""
    a, c, b = R[:3]
    blocks = R.shape[1:] + (2, 2)
    Lrj = np.stack([R[3], R[5], R[6], R[4]], axis=-1).reshape(blocks)
    Ljj = np.stack([R[7], R[9], R[9], R[8]], axis=-1).reshape(blocks)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.stack([c, -b, -b, a], axis=-1).reshape(blocks) \
            / (a * c - b * b)[..., None, None]
        P = inv @ Lrj
        Ljr_P = np.swapaxes(Lrj, -1, -2) @ P
    A = np.empty(R.shape[1:] + (4, 4))
    A[..., :2, :2] = -inv
    A[..., :2, 2:] = P
    A[..., 2:, :2] = np.swapaxes(P, -1, -2)
    A[..., 2:, 2:] = Ljj - 0.5 * (Ljr_P + np.swapaxes(Ljr_P, -1, -2))
    return A


def _congruence(F, s11, s22, s12):
    """G S G^T (rows 11, 22, 12) and G = (g11, g21, g22) for S = [[s11, s12],
    [s12, s22]] and G = F^-1, F = (l11, l21, l22) lower triangular."""
    l11, l21, l22 = F
    g11, g22 = 1.0 / l11, 1.0 / l22
    g21 = -l21 * g11 * g22
    t = g21 * s11 + g22 * s12
    return ((g11 * g11 * s11, g21 * t + g22 * (g21 * s12 + g22 * s22),
             g11 * t), (g11, g21, g22))


def _pencil(R, L):
    """The rows (x11, x22, x12, y11, y21, y22) of the pencil lambda^2 I +
    lambda X - N, N = Y Y^T (module docstring), from the rows ``R`` and the
    factors ``L`` = (F_r, F_j); meaningful where both are positive definite."""
    h11, h21, h22 = L[:, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        X, (g11, g21, g22) = _congruence(L[:, 1], 2.0 * R[3], 2.0 * R[4],
                                         R[5] + R[6])
        return np.array(X + (g11 * h11, g21 * h11 + g22 * h21, g22 * h22))


#: The record of :func:`_certified_frame`, per state: the frame velocity ``V``
#: (0: lab), ``ok`` and, in that frame, the rows ``pencil`` and Hess-L ``R``.
Certificate = namedtuple("Certificate", "V ok pencil R")


def _certified_frame(H, Ww, rho1, rho2, u1, u2):
    """The :data:`Certificate` of states (flat, equal-length arrays) from the
    law's ``H`` and ``Ww`` at w = u2 - u1: in the lab frame, retried at zero
    mixture momentum (frame velocity V) where it fails unless rho1 u1 + rho2
    u2 is round-off, at most 4 eps (|rho1 u1| + |rho2 u2|); one pencil."""
    ok, L, R = _certificate(H, Ww, rho1, rho2, u1, u2, 0.0)
    V = np.zeros(ok.shape)
    retry = np.flatnonzero(~ok)
    if retry.size:
        j1, j2 = rho1[retry] * u1[retry], rho2[retry] * u2[retry]
        retry = retry[np.abs(j1 + j2) > 4.0 * np.finfo(float).eps
                      * (np.abs(j1) + np.abs(j2))]
    if retry.size:
        V[retry] = ((rho1[retry] * u1[retry] + rho2[retry] * u2[retry])
                    / (rho1[retry] + rho2[retry]))
        ok[retry], L[..., retry], R[:, retry] = _certificate(
            H[..., retry], *(a[retry] for a in (Ww, rho1, rho2, u1, u2, V)))
    return Certificate(V, ok, _pencil(R, L), R)


def min_eig_A_batch(cert):
    """min-eig(A) per state of the :data:`Certificate` ``cert``, from its
    rows, in its frame; NaN where A is undefined (singular L_rr)."""
    A = _symmetric_system(cert.R)
    finite = np.all(np.isfinite(A), axis=(-2, -1))
    eig = np.linalg.eigvalsh(np.where(finite[..., None, None], A, 0.0))
    return np.where(finite, eig[..., 0], np.nan)


def wave_speeds_batch(model: PotentialModel, rho1, rho2, u1, u2, s1, s2):
    """Characteristic speeds per state, batched; (speeds, ok_mask, margin).

    ``ok_mask`` is the block-Cholesky hyperbolicity certificate: A = Hess G
    positive definite in the lab frame or, failing that, in the
    zero-mixture-momentum frame.  ``margin`` is the scale-free distance to
    losing it in the frame min-eig(A) is read in, > 0 exactly where
    ``ok_mask`` holds.  Speeds are sorted, NaN where the certificate fails;
    the states broadcast to the outputs' shape.
    """
    state = np.broadcast_arrays(*[np.asarray(a, dtype=float) for a in (
        rho1, rho2, u1, u2, s1, s2)])
    rho1, rho2, u1, u2, s1, s2 = (a.ravel() for a in state)
    cert = _certified_frame(*_law_hessian(model, rho1, rho2, s1, s2, u2 - u1),
                            rho1, rho2, u1, u2)
    shape = state[0].shape
    return (_speeds(cert, range(4)).reshape(shape + (4,)),
            cert.ok.reshape(shape), _scaled_margin(cert.R).reshape(shape))


#: Per root of det M in increasing order, its half-line and the eigenvalue
#: of M that vanishes there (-1 the smaller, +1 the larger).
_ROOTS = np.array([[-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, -1.0]])


def _speeds(cert, rows=(0, 3)):
    """The speeds ``rows`` of the four sorted ones (by default the outer
    pair), a row per state of the certificate ``cert``, NaN where it fails.
    In the certifying frame they are the roots of det M, M(lambda) =
    lambda^2 I + lambda X - N the pencil, two of each sign, and M(0) = -N <
    0: the smaller eigenvalue of M vanishes once on each half-line at the
    outer root, the larger at the inner one, also at double roots.  Roots
    in closed form (Euler's resolvent cubic) are polished by Newton on that
    eigenvalue, each until its first step within 1e-8 of its state's
    largest speed (at most three): the error left is of the order of its
    square, and no state's speeds depend on the others'."""
    # each state's pencil scaled exactly, by a power of two, to a largest
    # entry in [1/2, 1): the sixth powers below stay finite
    e = np.frexp(np.max(np.abs(cert.pencil), axis=0))[1]
    x11, x22, x12, y11, y21, y22 = np.ldexp(cert.pencil, -e)
    side, branch = _ROOTS[:, rows, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # lambda = y - b, b = tr X / 4: M = y^2 I + y D - E for D = X - 2b I
        # = [[d, x12], [x12, -d]], E = N + b X - b^2 I; det M = y^4 - P y^2
        # + q y + r
        b, d = 0.25 * (x11 + x22), 0.5 * (x11 - x22)
        bb, dx = b * b, d * d + x12 * x12
        e11 = y11 * y11 + b * x11 - bb
        e22 = y21 * y21 + y22 * y22 + b * x22 - bb
        e12 = y11 * y21 + b * x12
        P = dx + e11 + e22
        q = d * (e11 - e22) + 2.0 * x12 * e12
        r = e11 * e22 - e12 * e12
        # roots +-t0 +-t1 +-t2 with product -q/8, t_j^2 = z_j the roots
        # z0 >= z1 >= z2 >= 0 of the resolvent z^3 - (P/2) z^2 + (P^2 -
        # 4r)/16 z - q^2/64; x = 6z - P solves 4x^3 - 3k x = c for k = P^2
        # + 12r, c = 27 q^2 / 2 - P (P^2 - 36r), so x_j = sqrt(k) cos(phi -
        # 2 pi j / 3) with cos(3 phi) = c / k^(3/2), phi in [0, pi/3]
        PP = P * P
        m = np.sqrt(np.maximum(PP + 12.0 * r, 0.0))
        c = 13.5 * q * q - P * (PP - 36.0 * r)
        phi = np.arccos(np.minimum(np.maximum(
            c / np.maximum(m * m * m, 1e-300), -1.0), 1.0)) / 3.0
        mc, ms = m * np.cos(phi), (0.5 * math.sqrt(3.0)) * m * np.sin(phi)
        z1 = P - 0.5 * mc
        t = np.sqrt(np.maximum(np.array((mc + P, z1 + ms, z1 - ms)), 0.0) / 6.0)
        # with s = sign(-q), the outer roots s t2 -+ (t0 + t1) and the
        # inner ones -s t2 -+ (t0 - t1), in increasing order
        st2, t01 = np.copysign(t[2], -q), t[0] + t[1]
        y = -branch * st2 + side * (t[0] - branch * t[1])
        # Newton on mid + rad, rad signed by the branch: M's half-difference
        # and off-diagonal entry are linear in y, and at rad = 0 (M a
        # multiple of I) each eigenvalue's derivative is that of 2y I + D
        tol = 1e-8 * np.maximum(b - (st2 - t01), st2 + t01 - b)
        half0, mid0 = 0.5 * (e22 - e11), -0.5 * (e11 + e22)
        flat, side_b = branch * np.sqrt(dx), side * b
        active = np.broadcast_to(cert.ok, y.shape).copy()
        for _ in range(3):
            half, off = d * y + half0, x12 * y - e12
            rad = branch * np.sqrt(half * half + off * off)
            drad = np.where(rad != 0.0, (half * d + off * x12) / rad, flat)
            step = (y * y + mid0 + rad) / (2.0 * y + drad)
            new = y - step
            # a step must stay finite and on its half-line, else it recurs
            y = np.where(active & np.isfinite(new) & (side * new > side_b),
                         new, y)
            active &= np.abs(step) > tol
            if not active.any():
                break
    speeds = (np.ldexp(y - b, e) + cert.V).T
    speeds[~cert.ok] = np.nan
    return speeds
