"""Capacity summary for every channel in channels/.

Prints causal capacity, the non-causal lower bound at n=1 with its
informed-decoder upper bound, that bound's gap and whether the bracket is
closed, and the Holevo value of the state-averaged channel (no state
knowledge baseline). Exits 1 if a lower bound exceeds its certified upper
bound by more than BRACKET_TOL.

Usage: python3 scripts/capacity_report.py [channels-dir] [--seed N]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from gpcq.causal import causal_capacity, state_averaged_holevo
from gpcq.channel import load_channel
from gpcq.noncausal import noncausal_lower_bound

# Float rounding can put an exact lower bound a few ulps above the upper bound.
BRACKET_TOL = 1e-12


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("channels_dir", nargs="?", default="channels")
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--restarts", type=int, default=16)
    args = ap.parse_args()

    paths = sorted(pathlib.Path(args.channels_dir).glob("*.chan"))
    if not paths:
        sys.exit(f"no .chan files in {args.channels_dir}")
    print(
        f"{'channel':<12} {'causal':>10} {'noncausal':>10} {'upper':>10} {'gap':>9} {'certified':>9}"
        f" {'averaged':>10}"
    )
    violations = []
    for path in paths:
        ch = load_channel(str(path))
        causal = causal_capacity(ch)
        wit = noncausal_lower_bound(ch, restarts=args.restarts, seed=args.seed)
        avg = state_averaged_holevo(ch)
        print(
            f"{path.stem:<12} {causal.value:>10.6f} {wit.value:>10.6f} {wit.upper:>10.6f} {wit.upper_gap:>9.2e}"
            f" {str(wit.certified_optimal).lower():>9} {avg.value:>10.6f}"
        )
        if wit.value > wit.upper + wit.upper_gap + BRACKET_TOL:
            violations.append(path.stem)
    if violations:
        sys.exit(f"lower bound above the certified upper bound on: {', '.join(violations)}")


if __name__ == "__main__":
    main()
