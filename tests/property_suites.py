"""Randomized property suites, run by criterion 7 of the acceptance tests.
Each suite executes a number of seeded trials and returns a list of failure
descriptions; an empty list means every trial held."""

from __future__ import annotations

import numpy as np

from hidesign.bounds import fisher_bound
from hidesign.designs import (
    InvalidPointSetError,
    PointSet,
    eval_h4_basis_sum,
    generate,
    lift_design,
    verify_harmonic_index,
)
from hidesign.orthopoly import KernelSpec, dim_harmonic, q_eval, q_roots

BASE_SEED = 20250811


def random_point_set(rng: np.random.Generator, n: int, m: int) -> PointSet:
    while True:
        pts = rng.normal(size=(m, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        try:
            return PointSet(n, pts)
        except InvalidPointSetError:
            continue  # astronomically rare collision; resample


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def kernel_nonnegativity_suite(trials: int = 100, seed: int = BASE_SEED) -> list[str]:
    """The raw kernel sum is a sum of squares, so it stays >= -1e-8 * m * Q(1)."""
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(trials):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 13))
        t = int(rng.integers(1, 9))
        ps = random_point_set(rng, n, m)
        raw = float(q_eval(KernelSpec(n, t), ps.gram()).sum())
        floor = -1e-8 * m * dim_harmonic(n, t)
        if raw < floor:
            failures.append(f"trial {i}: raw sum {raw} below {floor} (n={n}, m={m}, t={t})")
    return failures


def rotation_invariance_suite(trials: int = 100, seed: int = BASE_SEED + 1) -> list[str]:
    """The certificate depends only on inner products."""
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(trials):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 13))
        t = int(rng.integers(1, 9))
        ps = random_point_set(rng, n, m)
        rotated = ps.transformed(random_orthogonal(rng, n))
        r0 = verify_harmonic_index(ps, t).residuals[0]
        r1 = verify_harmonic_index(rotated, t).residuals[0]
        if abs(r0 - r1) >= 1e-9:
            failures.append(f"trial {i}: residual moved {abs(r0 - r1)} under rotation")
    return failures


def antipodal_flip_suite(trials: int = 100, seed: int = BASE_SEED + 2) -> list[str]:
    """For even degrees, replacing points by antipodes changes nothing."""
    rng = np.random.default_rng(seed)
    failures = []
    designs = [generate("x0_plus"), generate("x0_minus"), generate("icosahedron_half")]
    degrees = [4, 4, 8]
    for i in range(trials):
        if i % 2 == 0:
            which = int(rng.integers(0, len(designs)))
            ps, t = designs[which], degrees[which]
        else:
            ps = random_point_set(rng, int(rng.integers(2, 5)), int(rng.integers(2, 10)))
            t = 2 * int(rng.integers(1, 5))
        flips = [k for k in range(len(ps)) if rng.random() < 0.5]
        try:
            flipped = ps.with_flipped(flips)
        except InvalidPointSetError:
            continue  # a flip collided with an existing point; skip
        c0 = verify_harmonic_index(ps, t)
        c1 = verify_harmonic_index(flipped, t)
        if c0.passed != c1.passed or abs(c0.residuals[0] - c1.residuals[0]) >= 1e-9:
            failures.append(f"trial {i}: flip changed the certificate at t={t}")
    return failures


def lift_soundness_suite(trials: int = 100, seed: int = BASE_SEED + 3) -> list[str]:
    """Every root of the target kernel lifts a polygon design soundly."""
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(trials):
        t = int(rng.integers(2, 11))
        m = int(rng.integers(t + 1, t + 7))
        base = generate("regular_polygon", m=m)
        roots = q_roots(KernelSpec(3, t))
        r = float(roots[rng.integers(0, len(roots))])
        lifted = lift_design(base, t, r)
        cert = verify_harmonic_index(lifted, t)
        if not cert.passed:
            failures.append(
                f"trial {i}: lift of {m}-gon at r={r:.6f} failed t={t} "
                f"(residual {cert.residuals[0]:.2e})"
            )
    return failures


def _design_corpus() -> list[tuple[PointSet, int]]:
    corpus = [
        (generate("x0_plus"), 4),
        (generate("x0_minus"), 4),
        (generate("icosahedron_half"), 8),
        (generate("icosahedron_half"), 14),
        (generate("e8_half"), 10),
        (generate("cell600_half"), 58),
    ]
    for n in range(2, 9):
        corpus.append((generate("cross_polytope_half", n=n), 2))
    for e in range(1, 7):
        corpus.append((generate("two_point_s1", e=e, j=1), 2 * e))
    return corpus


def fisher_consistency_suite(trials: int = 100, seed: int = BASE_SEED + 4) -> list[str]:
    """Every passing design in the corpus respects the cardinality bound."""
    rng = np.random.default_rng(seed)
    corpus = _design_corpus()
    failures = []
    for i in range(trials):
        if i < len(corpus):
            ps, t = corpus[i]
        else:
            t = 2 * int(rng.integers(1, 6))
            m = int(rng.integers(2 * t + 1, 2 * t + 8))
            base = generate("regular_polygon", m=m)
            roots = q_roots(KernelSpec(3, t))
            ps = lift_design(base, t, float(roots[rng.integers(0, len(roots))]))
        tol = 1e-8 if t >= 50 else 1e-9
        cert = verify_harmonic_index(ps, t, tol=tol)
        if not cert.passed:
            failures.append(f"trial {i}: corpus member {ps.source} failed at t={t}")
            continue
        b = fisher_bound(ps.dim, t).b
        if len(ps) < b - 1e-6:
            failures.append(f"trial {i}: |X|={len(ps)} below bound {b} ({ps.source}, t={t})")
    return failures


def h4_oracle_agreement_suite(trials: int = 100, seed: int = BASE_SEED + 5) -> list[str]:
    """Kernel criterion at (3,4) agrees with the explicit 9-polynomial basis."""
    rng = np.random.default_rng(seed)
    failures = []
    for i in range(trials):
        if i % 5 == 0:
            base = generate("x0_plus") if i % 10 == 0 else generate("x0_minus")
            flips = [k for k in range(5) if rng.random() < 0.5]
            ps = base.with_flipped(flips)
        else:
            ps = random_point_set(rng, 3, int(rng.integers(2, 10)))
        kernel_zero = verify_harmonic_index(ps, 4, tol=1e-9).passed
        basis_zero = bool(np.abs(eval_h4_basis_sum(ps)).max() <= 1e-9 * len(ps))
        if kernel_zero != basis_zero:
            failures.append(
                f"trial {i}: kernel says {kernel_zero}, explicit basis says {basis_zero}"
            )
    return failures


ALL_SUITES = {
    "kernel-sum non-negativity": kernel_nonnegativity_suite,
    "rotation invariance": rotation_invariance_suite,
    "antipodal-flip invariance": antipodal_flip_suite,
    "lift soundness": lift_soundness_suite,
    "Fisher consistency": fisher_consistency_suite,
    "(3,4) kernel vs explicit basis": h4_oracle_agreement_suite,
}
