"""Reference jobs: fixed work that does not touch tfkit, timed before and
after every timed op to gauge how fast the shared machine is running at
that moment (see README.md, "Timing").

    python3 benchmarks/reference.py startup|tables

runs a job in a fresh interpreter, as the report workloads' ops run;
gabor-design calls `dense()` in its session process.  Each job does the
kind of work its workload's op spends its time on, so its speed drifts
with the host's load as the op's does, and an op's time over the
reference's time next to it stays put while both drift.
"""

from __future__ import annotations

import sys

import numpy as np


def startup() -> float:
    """After interpreter start-up and `import numpy`: interpreted Python
    and small numpy calls, like tfkit at its default orders."""
    acc = 0
    for i in range(150_000):
        acc += (i * i) % 7
    table = {f"k{i}": i for i in range(40_000)}
    acc += sum(len(k) for k in table)
    n = 384
    idx = np.arange(n)
    phase = np.exp((2j * np.pi / n) * np.outer(idx, idx))
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gram = a @ a.conj().T + phase @ phase.conj().T
    eig = np.linalg.eigvalsh(gram)
    return float(acc) + float(eig[-1] / eig[0])


def tables(n: int = 32, repeats: int = 12, convolutions: int = 3000) -> float:
    """Phase tables on Z/n as tfkit builds them (broadcast products of a
    kernel with shifted windows, FFTs along rows, (n^2, n^2) complex),
    then many small FFT convolutions, one numpy call at a time."""
    rng = np.random.default_rng(0)
    kernel = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    t = np.arange(n)
    window = np.exp(-np.pi * np.minimum(t, n - t) ** 2 / n)
    shifts = window[(t[None, :] - t[:, None]) % n]
    total = 0.0
    for _ in range(repeats):
        rows = kernel.T[:, None, :] * shifts[None, :, :]
        m = np.fft.ifft(rows.reshape(n * n, n), axis=1).reshape(n, n, n)
        m = np.transpose(m, (1, 2, 0)).reshape(n * n, n)
        rows2 = m[:, None, :] * shifts[None, :, :]
        b = np.fft.ifft(rows2.reshape(n * n * n, n), axis=1).reshape(n * n, n * n)
        total += float(np.abs(b).max(axis=1).sum())
    f = rng.standard_normal(4 * n)
    for _ in range(convolutions):
        f = np.fft.ifft(np.fft.fft(f) * np.fft.fft(window, 4 * n)).real
        total += float(np.abs(f).sum())
        f /= np.abs(f).max()
    return total


def dense(n: int = 384, repeats: int = 3) -> float:
    """A dense Hermitian Gram matrix and its eigen-solves, like the frame
    operator's bounds and tight window.  Smaller than a gabor-design op's
    matrices, so that it does not raise that op's peak RSS."""
    rng = np.random.default_rng(1)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gram = a.conj().T @ a
    for _ in range(repeats):
        w, _ = np.linalg.eigh(gram)
    return float(w[0] + w[-1])


JOBS = {"startup": startup, "tables": tables, "dense": dense}

if __name__ == "__main__":
    JOBS[sys.argv[1]]()
