"""Rate-error sweeps for both coding schemes on one channel.

Writes one CSV per scheme into the output directory. The flip channel with
the canonical binary witness shows the textbook picture: below capacity the
error falls with blocklength, above capacity it stays pinned near 1.

Usage: python3 scripts/rate_error_sweep.py [channel] [--out results/]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from gpcq.channel import load_channel
from gpcq.coding import rows_to_csv, simulate_rate_error_curve


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("channel", nargs="?", default="channels/flip.chan")
    ap.add_argument("--out", default="results")
    ap.add_argument("--rates", default="0.25,0.5,0.8,1.2")
    ap.add_argument("--n", default="2,4,6")
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args()

    ch = load_channel(args.channel)
    rates = [float(r) for r in args.rates.split(",")]
    n_list = [int(n) for n in args.n.split(",")]
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for scheme in ("causal-sequential", "noncausal-sqrt"):
        rows = simulate_rate_error_curve(
            ch,
            scheme,
            rates=rates,
            n_list=n_list,
            trials=args.trials,
            seed=args.seed,
        )
        path = out / f"{pathlib.Path(args.channel).stem}_{scheme}.csv"
        path.write_text(rows_to_csv(rows))
        print(f"wrote {path}")
        for row in rows:
            print(
                f"  {scheme} n={row.n} rate={row.rate:.3g} M={row.M}"
                f" err={row.err:.4f} [{row.ci_low:.4f}, {row.ci_high:.4f}]"
            )


if __name__ == "__main__":
    main()
