"""Shared generators and reference implementations for the test suite.

Everything in here is deliberately independent of the package internals:
reference values are computed with plain numpy so the tests act as an
oracle for the implementation rather than a mirror of it.
"""

import numpy as np

from gateselftest import Channel


def ginibre(rng, rows, cols):
    """Complex Ginibre matrix with iid standard complex normal entries."""
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_kraus_set(rng, dim, n_kraus):
    """Random CPTP Kraus family via QR of a stacked Ginibre block.

    Stacking the Kraus operators into a (n_kraus*dim, dim) isometry and
    orthonormalizing its columns gives sum_k K_k^dagger K_k = I exactly
    (up to QR roundoff).
    """
    block = ginibre(rng, n_kraus * dim, dim)
    q, _ = np.linalg.qr(block)
    return [q[k * dim:(k + 1) * dim, :] for k in range(n_kraus)]


def choi_of_kraus(kraus):
    """Reference Choi matrix, input factor first, independent of channel.py."""
    dim = kraus[0].shape[0]
    choi = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in kraus:
        vec = k.T.reshape(-1)
        choi += np.outer(vec, vec.conj())
    return choi

def random_cptp(rng, n=1, n_kraus=None):
    """Random CPTP Channel on n qubits."""
    dim = 2 ** n
    if n_kraus is None:
        n_kraus = int(rng.integers(1, dim * dim + 1))
    return Channel(choi_of_kraus(random_kraus_set(rng, dim, n_kraus)))


def random_unitary(rng, dim):
    q, r = np.linalg.qr(ginibre(rng, dim, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_near_identity(rng, n=1, scale=0.05):
    """CPTP channel close to the identity: small random unitary + weak mixing."""
    from scipy.linalg import expm

    dim = 2 ** n
    herm = ginibre(rng, dim, dim)
    herm = (herm + herm.conj().T) / 2
    herm /= max(np.linalg.norm(herm, 2), 1e-30)
    u = expm(1j * scale * rng.uniform(0.0, 1.0) * herm)
    mix = scale * rng.uniform(0.0, 1.0)
    kraus = [np.sqrt(1 - mix) * u]
    kraus += [np.sqrt(mix) * k for k in random_kraus_set(rng, dim, 2)]
    return Channel(choi_of_kraus(kraus))


def random_noncp_map(rng, n=1, scale=0.3):
    """Hermiticity-preserving linear map that is typically not CP.

    Built as a signed mixture of two CP parts; trace-preserving is not
    guaranteed and not needed by the consumers.
    """
    dim = 2 ** n
    plus = choi_of_kraus(random_kraus_set(rng, dim, 2))
    minus = choi_of_kraus(random_kraus_set(rng, dim, 2))
    return Channel((1 + scale) * plus - scale * minus)


def random_density_matrix_pair(rng, n=1):
    from gateselftest import random_density_matrix

    return random_density_matrix(n, rng), random_density_matrix(n, rng)


def reference_trace_norm(m):
    return float(np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False).sum())


def reference_apply(channel, rho):
    """Apply a channel to a matrix using only its Choi array."""
    dim = rho.shape[0]
    choi = channel.choi.reshape(dim, dim, dim, dim)
    # choi[i, k, j, l] = <ik| C |jl> with input factor first:
    # G(rho)[k, l] = sum_ij rho[i, j] choi[i, k, j, l]
    return np.einsum("ij,ikjl->kl", rho, choi)


def bernoulli_mean_band(p, samples, z=3.9):
    """Half-width of a ~1e-4 tail band for a Bernoulli mean estimate."""
    return z * np.sqrt(max(p * (1 - p), 1e-12) / samples)


def depolarize_distance(lam, qubits):
    """Distance of a member depolarised at lam to its family: lam max(1, 2(1 - 1/d)).

    A depolarised pure state is at trace distance 2 lam (1 - 1/d) from every
    pure state, an off-diagonal input u v^+ loses lam, and the member itself
    attains both.
    """
    d = 2**qubits
    return lam * max(1.0, 2.0 * (1.0 - 1.0 / d))
