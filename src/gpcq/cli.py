"""Command line entry point binding solvers, sweeps, and simulations.

Each command builds one payload and passes it to _emit with its text form:
an aligned `key  value` table (_table) or a CSV (_csv) rendered from the
payload by one cell rule. The causal, noncausal, holevo and simulate
payloads are the fields of their result dataclasses (_payload), so every
result field is reported. With --json the payload itself is written as
sorted JSON instead. Where a command has --out, the selected format goes to
that file, otherwise to stdout.

Exit codes: 0 on success, 1 on a domain error (structured message on
stderr), 2 on usage errors. Every run emits a JSON manifest line to stderr
with the command line, channel hash, seed, tolerances, version, and wall
time; results go to stdout (or --out) so reruns are byte-comparable.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .causal import INNER_EPS, Strategy, causal_capacity, state_averaged_holevo
from .channel import load_channel
from .coding import SimRow, simulate_rate_error_curve
from .errors import GpcqError, NonFinite, PreconditionViolated
from .method_of_types import (
    nearest_type,
    coverage_probability,
    type_class_size,
    typical_mass,
)
from .noncausal import ALT_EPS, noncausal_lower_bound
from .quantum import TAU_EIG, TAU_HERM, TAU_SUPP, TAU_TR, shannon_entropy
from .schur_weyl import (
    TAU_PROJ,
    check_frame_table,
    class_partition,
    frame_dimension_bounds,
    frame_distribution,
    gl_multiplicity,
    irrep_dimension,
    young_frames,
)

TOLERANCES = {
    "hermitian": TAU_HERM,
    "trace": TAU_TR,
    "eigenvalue": TAU_EIG,
    "support": TAU_SUPP,
    "projector": TAU_PROJ,
    "inner_eps": INNER_EPS,
    "alt_eps": ALT_EPS,
}

STOCHASTIC_COMMANDS = ("noncausal", "simulate")


def _parse_floats(text: str) -> list[float]:
    try:
        vals = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise GpcqError(f"expected comma-separated numbers, got {text!r}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise NonFinite(f"expected finite numbers, got {text!r}")
    return vals

def _parse_ints(text: str) -> list[int]:
    vals = _parse_floats(text)
    out = [int(round(v)) for v in vals]
    if any(abs(o - v) > 1e-12 for o, v in zip(out, vals)):
        raise GpcqError(f"expected comma-separated integers, got {text!r}")
    return out


def _parse_matrix(text: str) -> np.ndarray:
    rows = [
        _parse_floats(row) for row in text.split(";") if row.strip() != ""
    ]
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise GpcqError(f"expected 'a,b;c,d' matrix rows of equal length, got {text!r}")
    return np.asarray(rows, dtype=float)


def _sha256(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _emit_manifest(argv, channel_path, seed, started, inner_eps) -> None:
    manifest = {
        "cmdline": ["gpcq", *argv],
        "channel_sha256": _sha256(channel_path) if channel_path else None,
        "seed": seed,
        "tolerances": {**TOLERANCES, "inner_eps": inner_eps},
        "version": __version__,
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    print(json.dumps(manifest, sort_keys=True), file=sys.stderr)


def _cell(value) -> str:
    """One table or CSV cell: floats to 12 digits, booleans lowercase, lists joined."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value + 0.0:.12g}"
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return "; ".join(",".join(map(_cell, row)) for row in value)
        return " ".join(map(_cell, value))
    return str(value)


def _plain(value):
    """A result field as a JSON value: arrays and tuples become lists, a Strategy its columns."""
    if isinstance(value, Strategy):
        value = value.columns
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def _payload(result) -> dict:
    """The fields of a result dataclass, in declaration order, as JSON values."""
    return {field.name: _plain(getattr(result, field.name)) for field in dataclasses.fields(result)}


def _table(payload: dict, keys=None) -> str:
    """Aligned `key  value` lines for the given payload keys (all by default)."""
    keys = list(payload) if keys is None else keys
    width = max(len(k) for k in keys)
    return "".join(f"{k.ljust(width)}  {_cell(payload[k])}\n" for k in keys)


def _csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)] + [",".join(_cell(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(args, payload, text: str) -> None:
    """Write the payload as JSON under --json, else the text; to --out if given."""
    if args.json:
        text = json.dumps(payload, sort_keys=True) + "\n"
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpcq",
        description=(
            "Capacities of state-parametrized classical-quantum channels and "
            "desk-scale simulations of their random-coding schemes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="parse and validate a channel file")
    p_val.add_argument("channel")
    p_val.add_argument("--json", action="store_true")

    p_c = sub.add_parser("causal", help="capacity with causal state knowledge")
    p_c.add_argument("channel")
    p_c.add_argument("--eps", type=float, default=INNER_EPS)
    p_c.add_argument("--json", action="store_true")

    p_nc = sub.add_parser("noncausal", help="non-causal lower bound bracketed by the informed-decoder bound")
    p_nc.add_argument("channel")
    p_nc.add_argument("--n", type=int, default=1)
    p_nc.add_argument("--aux-size", type=int, default=None, help="letters of a random start; applies at n >= 2")
    p_nc.add_argument("--restarts", type=int, default=32, help="most starts of the search; applies at n >= 2")
    p_nc.add_argument("--seed", type=int, default=None)
    p_nc.add_argument("--json", action="store_true")

    p_h = sub.add_parser("holevo", help="Holevo capacity of the state-averaged channel")
    p_h.add_argument("channel")
    p_h.add_argument("--eps", type=float, default=INNER_EPS)
    p_h.add_argument("--json", action="store_true")

    p_t = sub.add_parser("types", help="type-class sweeps as CSV")
    p_t.add_argument("--op", required=True, choices=["class-size", "nearest", "typical-mass", "coverage"])
    p_t.add_argument("--p", help="comma-separated pmf, e.g. 0.5,0.5")
    p_t.add_argument("--joint", help="joint pmf rows 'a,b;c,d' (states x aux) for coverage")
    p_t.add_argument("--n", required=True, help="comma-separated block lengths")
    p_t.add_argument("--delta", type=float, default=0.2)
    p_t.add_argument("--k", type=int, default=2, help="codewords per bin (coverage)")
    p_t.add_argument("--trials", type=int, default=200)
    p_t.add_argument("--seed", type=int, default=None)
    p_t.add_argument("--out", default=None)
    p_t.add_argument("--json", action="store_true")

    p_s = sub.add_parser("schur", help="Young frame tables and projector checks")
    p_s.add_argument("mode", choices=["frames", "dims", "check"])
    p_s.add_argument("--d", type=int, required=True)
    p_s.add_argument("--n", type=int, required=True)
    p_s.add_argument("--out", default=None)
    p_s.add_argument("--json", action="store_true")

    p_sim = sub.add_parser("simulate", help="rate-error sweep for a coding scheme")
    p_sim.add_argument("channel")
    p_sim.add_argument("--scheme", required=True, choices=["causal-sequential", "noncausal-sqrt"])
    p_sim.add_argument("--rates", required=True, help="comma-separated rates in bits")
    p_sim.add_argument("--n", required=True, help="comma-separated block lengths")
    p_sim.add_argument("--trials", type=int, default=50)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--k", type=int, default=2, help="codewords per bin (noncausal)")
    p_sim.add_argument("--delta", type=float, default=0.2)
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--json", action="store_true")

    return parser


def _require_seed(parser: argparse.ArgumentParser, args) -> None:
    if args.command in STOCHASTIC_COMMANDS and args.seed is None:
        parser.error(f"--seed is required for '{args.command}' (stochastic command)")
    if args.command == "types" and args.op == "coverage" and args.seed is None:
        parser.error("--seed is required for 'types --op coverage' (stochastic command)")


def _cmd_validate(args) -> None:
    ch = load_channel(args.channel)
    info = {
        "ok": True,
        "dim": ch.dim,
        "num_states": ch.num_states,
        "num_inputs": ch.num_inputs,
        "states": list(ch.state_alphabet),
        "inputs": list(ch.input_alphabet),
        "warnings": list(ch.warnings),
    }
    _emit(args, info, _table(info, ["ok", "dim", "states", "inputs"]))
    if not args.json:
        for text in ch.warnings:
            print(f"warning: {text}", file=sys.stderr)


def _cmd_causal(args) -> None:
    payload = _payload(causal_capacity(load_channel(args.channel), eps=args.eps))
    _emit(args, payload, _table(payload))


def _cmd_noncausal(args) -> None:
    wit = noncausal_lower_bound(
        load_channel(args.channel), n=args.n, aux_size=args.aux_size, restarts=args.restarts, seed=args.seed
    )
    payload = _payload(wit)
    keys = ["value", "holevo", "leak", "n", "aux_size", "restart_index"]
    keys += ["upper", "upper_gap", "certified_optimal", "capped_starts"]
    _emit(args, payload, _table({**payload, "capped_starts": sum(wit.restart_capped)}, keys))


def _cmd_holevo(args) -> None:
    payload = _payload(state_averaged_holevo(load_channel(args.channel), eps=args.eps))
    _emit(args, payload, _table(payload))


def _types_rows(args) -> list[tuple]:
    """One (n, value, lower bound, upper bound) row per --n."""
    ns = _parse_ints(args.n)
    if any(n < 1 for n in ns):
        raise PreconditionViolated("every --n >= 1", ns, ">= 1")
    rows = []
    if args.op == "coverage":
        if args.joint is None:
            raise GpcqError("types --op coverage requires --joint")
        joint = _parse_matrix(args.joint)
        total = joint.sum()
        if total > 0:
            # A joint left unnormalized has a negative entry or no mass;
            # coverage_probability refuses both.
            joint = joint / total
        for n in ns:
            res = coverage_probability(joint, n, args.k, args.delta, trials=args.trials, seed=args.seed)
            if not res.hypotheses_hold:
                print(f"note: n={n}: {res.hypothesis_note}", file=sys.stderr)
            rows.append((n, res.estimate, res.ci_low, res.ci_high))
        return rows
    if args.p is None:
        raise GpcqError(f"types --op {args.op} requires --p")
    p = np.asarray(_parse_floats(args.p), dtype=float)
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise GpcqError("--p must be a probability vector summing to 1")
    for n in ns:
        if args.op == "class-size":
            res = type_class_size(nearest_type(p, n))
            rows.append((n, res.size, res.lower, res.upper))
        elif args.op == "nearest":
            dist = float(np.abs(nearest_type(p, n) / n - p).sum())
            rows.append((n, dist, 0.0, 2.0 * int(np.sum(p > 0)) / n))
        else:
            guaranteed = max(0.0, 1.0 - 2.0 ** (-n * args.delta / 2.0))
            rows.append((n, typical_mass(p, args.delta, n), guaranteed, 1.0))
    return rows


def _cmd_types(args) -> None:
    columns = ["n", "value", "lower_bound", "upper_bound"]
    rows = [dict(zip(columns, row)) for row in _types_rows(args)]
    _emit(args, {"op": args.op, "rows": rows}, _csv(rows, columns))


def _schur_rows(args) -> list[tuple]:
    """One (frame, dimension, entropy, lower bound, upper bound) row per Young frame."""
    check_frame_table(args.d, args.n)
    rows = []
    for frame in young_frames(args.d, args.n):
        bounds = frame_dimension_bounds(frame, args.d)
        dim = bounds.dimension
        if args.mode == "dims":
            dim *= gl_multiplicity(frame, args.d)
        entropy = shannon_entropy(frame_distribution(frame, args.d)) + 0.0
        rows.append(("+".join(map(str, frame)), dim, entropy, bounds.lower, bounds.upper))
    return rows


def _cmd_schur(args) -> None:
    if args.d < 1 or args.n < 1:
        raise PreconditionViolated("--d and --n", (args.d, args.n), ">= 1")
    if args.mode != "check":
        columns = ["frame", "dim", "entropy", "lower", "upper"]
        rows = [dict(zip(columns, row)) for row in _schur_rows(args)]
        _emit(args, {"mode": args.mode, "rows": rows}, _csv(rows, columns))
        return
    # Slot permutations keep each frequency class, so every projector is block
    # diagonal over the classes and each defect is the worst over class blocks.
    # Each frame's traces, summed over the classes, must give its dimension.
    part = class_partition(args.d, args.n)
    closure = worst_idem = worst_cross = 0.0
    traces = dict.fromkeys(young_frames(args.d, args.n), 0.0)
    for words, bases in zip(part.words, part.bases):
        blocks = [basis @ basis.T for basis in bases.values()]
        for frame, proj in zip(bases, blocks):
            traces[frame] += float(np.trace(proj))
        closure = max(closure, float(np.max(np.abs(sum(blocks) - np.eye(len(words))))))
        for i, proj in enumerate(blocks):
            worst_idem = max(worst_idem, float(np.max(np.abs(proj @ proj - proj))))
            for other in blocks[i + 1 :]:
                worst_cross = max(worst_cross, float(np.max(np.abs(proj @ other))))
    for frame, trace in traces.items():
        expected = irrep_dimension(frame) * gl_multiplicity(frame, args.d)
        if abs(trace - expected) > 1e-6:
            raise GpcqError(f"projector trace {trace} != {expected} for frame {frame}")
    ok = max(closure, worst_idem, worst_cross) <= TAU_PROJ
    payload = {
        "ok": bool(ok),
        "frames": len(traces),
        "dim": args.d**args.n,
        "closure_defect": closure,
        "idempotency_defect": worst_idem,
        "orthogonality_defect": worst_cross,
    }
    _emit(args, payload, _table(payload))
    if not ok:
        raise GpcqError(f"projector defects exceed {TAU_PROJ}")


def _cmd_simulate(args) -> None:
    ch = load_channel(args.channel)
    rows = simulate_rate_error_curve(
        ch,
        args.scheme,
        rates=_parse_floats(args.rates),
        n_list=_parse_ints(args.n),
        trials=args.trials,
        seed=args.seed,
        K=args.k,
        delta=args.delta,
    )
    rows = [_payload(row) for row in rows]
    _emit(args, {"rows": rows}, _csv(rows, [field.name for field in dataclasses.fields(SimRow)]))


HANDLERS = {
    "validate": _cmd_validate,
    "causal": _cmd_causal,
    "noncausal": _cmd_noncausal,
    "holevo": _cmd_holevo,
    "types": _cmd_types,
    "schur": _cmd_schur,
    "simulate": _cmd_simulate,
}


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _require_seed(parser, args)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    started = time.monotonic()
    channel_path = getattr(args, "channel", None)
    seed = getattr(args, "seed", None)
    message = None
    try:
        for name in ("eps", "delta"):
            if not math.isfinite(getattr(args, name, 0.0)):
                raise NonFinite(f"--{name} must be finite, got {getattr(args, name)}")
        HANDLERS[args.command](args)
    except GpcqError as exc:
        message = {"error": exc.code, "message": str(exc), "details": repr(exc.details)}
    except OSError as exc:
        message = {"error": "io", "message": str(exc)}
    except np.linalg.LinAlgError as exc:
        message = {"error": "linalg", "message": str(exc)}
    if message is not None:
        print(json.dumps(message, sort_keys=True), file=sys.stderr)
    _emit_manifest(argv, channel_path, seed, started, getattr(args, "eps", INNER_EPS))
    return 0 if message is None else 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
