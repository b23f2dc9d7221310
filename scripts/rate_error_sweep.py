"""Rate-error sweeps for both coding schemes on one channel.

Writes one CSV per scheme into the output directory through
`gpcq simulate ... --out`, and prints it. The flip channel with the
canonical binary witness shows the textbook picture: below capacity the
error falls with blocklength, above capacity it stays pinned near 1.

Usage: python3 scripts/rate_error_sweep.py [channel] [--out results/]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from gpcq.cli import dispatch


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("channel", nargs="?", default="channels/flip.chan")
    ap.add_argument("--out", default="results")
    ap.add_argument("--rates", default="0.25,0.5,0.8,1.2")
    ap.add_argument("--n", default="2,4,6")
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for scheme in ("causal-sequential", "noncausal-sqrt"):
        path = out / f"{pathlib.Path(args.channel).stem}_{scheme}.csv"
        argv = ["simulate", args.channel, "--scheme", scheme, "--rates", args.rates, "--n", args.n,
                "--trials", str(args.trials), "--seed", str(args.seed), "--out", str(path)]
        if dispatch(argv) != 0:
            sys.exit(1)
        print(f"wrote {path}")
        sys.stdout.write(path.read_text())


if __name__ == "__main__":
    main()
