"""Shared fixtures: the bundled channel corpus and memoized solver runs.

random_unitary and random_density_matrix are plain helpers that test modules
import from here.
"""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from gpcq.causal import causal_capacity
from gpcq.channel import serialize_channel
from gpcq.noncausal import noncausal_lower_bound

_spec = importlib.util.spec_from_file_location(
    "make_channels", REPO / "scripts" / "make_channels.py"
)
make_channels = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_channels)


def _corpus():
    return {
        "flip": make_channels.flip_channel(),
        "stuck": make_channels.stuck_channel(),
        "skew": make_channels.flip_channel(p1=0.22),
        "purecq": make_channels.purecq_channel(),
    }


@pytest.fixture(scope="session")
def suite():
    return _corpus()


@pytest.fixture(scope="session")
def flip(suite):
    return suite["flip"]


@pytest.fixture(scope="session")
def stuck(suite):
    return suite["stuck"]


@pytest.fixture(scope="session")
def skew(suite):
    return suite["skew"]


@pytest.fixture(scope="session")
def purecq(suite):
    return suite["purecq"]


@pytest.fixture(scope="session")
def channel_dir(tmp_path_factory, suite):
    """Directory with the corpus serialized to .chan files for CLI runs."""
    out = tmp_path_factory.mktemp("channels")
    for name, ch in suite.items():
        (out / f"{name}.chan").write_text(serialize_channel(ch))
    return out


class SolverCache:
    """Memoizes the expensive solver runs shared by several tests."""

    def __init__(self, suite):
        self.suite = suite
        self._causal = {}
        self._noncausal = {}

    def causal(self, name):
        if name not in self._causal:
            self._causal[name] = causal_capacity(self.suite[name])
        return self._causal[name]

    def noncausal(self, name, n=1, **kw):
        kw.setdefault("restarts", 32)
        kw.setdefault("seed", 7)
        key = (name, n, tuple(sorted(kw.items())))
        if key not in self._noncausal:
            self._noncausal[key] = noncausal_lower_bound(self.suite[name], n=n, **kw)
        return self._noncausal[key]


@pytest.fixture(scope="session")
def solvers(suite):
    return SolverCache(suite)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    # fix phases so the factorization is unique
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density matrix G G† / tr with Ginibre G of the given rank."""
    r = dim if rank is None else rank
    g = rng.normal(size=(dim, r)) + 1j * rng.normal(size=(dim, r))
    m = g @ g.conj().T
    return m / np.trace(m).real
