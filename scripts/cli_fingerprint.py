"""Fingerprint of the seeded CLI outputs on the bundled corpus.

Runs a fixed set of `gpcq` commands, each in a fresh `python -m gpcq.cli`
with BLAS on one thread, and prints one line per command:
`sha256(stdout) exit_code argv`. Two runs of the same tree must print the
same lines; comparing the output of two trees shows which commands changed.

Usage: python3 scripts/cli_fingerprint.py
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHANNELS = ("flip", "stuck", "skew", "purecq")
SCHEMES = ("causal-sequential", "noncausal-sqrt")
COVERAGE = ["types", "--op", "coverage", "--joint", "0.3,0.2;0.2,0.3", "--n", "2,4,6",
            "--trials", "30", "--seed", "2", "--json"]


def commands() -> list[list[str]]:
    cmds = []
    for name in CHANNELS:
        chan = f"channels/{name}.chan"
        cmds.append(["causal", chan, "--json"])
        cmds.append(["holevo", chan, "--json"])
        cmds.append(["noncausal", chan, "--seed", "3", "--restarts", "4", "--json"])
    for name in ("stuck", "purecq"):
        cmds.append(["noncausal", f"channels/{name}.chan", "--n", "2", "--seed", "3", "--restarts", "4", "--json"])
    # purecq's bracket stays open, so its random starts run as batches: 31 at the default 32 restarts, 7 at n = 2.
    cmds.append(["noncausal", "channels/purecq.chan", "--seed", "3", "--json"])
    cmds.append(["noncausal", "channels/purecq.chan", "--n", "2", "--seed", "3", "--restarts", "8", "--json"])
    for name in CHANNELS:
        for scheme in SCHEMES:
            cmds.append(["simulate", f"channels/{name}.chan", "--scheme", scheme, "--rates", "0.25,0.5",
                         "--n", "2,4", "--seed", "5", "--trials", "4", "--json"])
    # n=6 at rate 1.2: many codewords share a word, so decode projectors repeat.
    for scheme in SCHEMES:
        cmds.append(["simulate", "channels/flip.chan", "--scheme", scheme, "--rates", "1.2",
                     "--n", "6", "--seed", "5", "--trials", "2", "--json"])
    # n=8: the decoders run on the nine frequency classes of eight slots.
    for scheme in SCHEMES:
        cmds.append(["simulate", "channels/flip.chan", "--scheme", scheme, "--rates", "0.5",
                     "--n", "8", "--seed", "5", "--trials", "2", "--json"])
    # Causal codewords of several letter types: its two trials span 7 and 5 types.
    cmds.append(["simulate", "channels/stuck.chan", "--scheme", "causal-sequential", "--rates", "0.5",
                 "--n", "6", "--delta", "0.5", "--seed", "5", "--trials", "2", "--json"])
    cmds.append(COVERAGE + ["--k", "3"])
    cmds.append(COVERAGE + ["--k", "0"])
    for op in ("nearest", "class-size"):
        cmds.append(["types", "--op", op, "--p", "0.5,0.25,0.25", "--n", "3,10,17", "--json"])
    # Text forms: tables and CSV come from the same payloads as the JSON above.
    for name in CHANNELS:
        for command in ("validate", "causal", "holevo"):
            cmds.append([command, f"channels/{name}.chan"])
    cmds.append(["noncausal", "channels/stuck.chan", "--seed", "3", "--restarts", "4"])
    for op in ("class-size", "nearest"):
        cmds.append(["types", "--op", op, "--p", "0.5,0.25,0.25", "--n", "3,10,17"])
    for mode in ("frames", "dims", "check"):
        cmds.append(["schur", mode, "--d", "3", "--n", "4"])
    # Past the nine slots that n! class sums allowed, and a one-frame table of huge n.
    cmds.append(["schur", "check", "--d", "2", "--n", "9"])
    cmds.append(["schur", "frames", "--d", "1", "--n", "300000", "--json"])
    # Twelve slots, the most DIM_CAP admits at d = 2: the largest frame bases.
    cmds.append(["schur", "check", "--d", "2", "--n", "12"])
    return cmds


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for argv in commands():
        out = subprocess.run([sys.executable, "-m", "gpcq.cli", *argv], cwd=ROOT, env=env,
                             capture_output=True)
        print(hashlib.sha256(out.stdout).hexdigest(), out.returncode, " ".join(argv), flush=True)


if __name__ == "__main__":
    main()
