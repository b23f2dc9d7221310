"""Desk-scale acceptance run: one test per top-level contract, each with a wall-clock budget."""

import dataclasses
import math
import time
from types import SimpleNamespace

import numpy as np

from gpcq.causal import causal_capacity, inner_maximize
from gpcq.channel import build_channel
from gpcq.cli import dispatch
from gpcq.coding import simulate_rate_error_curve, square_root_decoder
from gpcq.method_of_types import (
    matched_set_members,
    nearest_type,
    type_class_size,
)
from gpcq.noncausal import (
    noncausal_lower_bound,
    product_witness,
    trim_witness,
)
from gpcq.quantum import (
    decoding_basis,
    holevo_quantity,
    kl_divergence,
    von_neumann_entropy,
)
from gpcq.schur_weyl import (
    DecodeContext,
    frame_dimension_bounds,
    irrep_dimension,
    young_frames,
)
from gpcq.util import compositions, digit_table

from classical_oracles import ClassicalGP, classical_gp_oracle, shannon_strategy_oracle
from code_reference import (
    central_projector,
    holevo_via_divergence,
    joint_type,
    joint_type_completion,
    kostka_rank,
    kostka_zero_combinatorial,
    union_bound_gap,
)
from conftest import random_density_matrix, random_unitary
from dense_reference import kron_all, scatter

DIAGONAL = ("flip", "stuck", "skew")


def _within(t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget:.0f}s"


def test_entropy_kernel_on_random_ensembles():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    for dim in (2, 3):
        cap = math.log2(dim)
        for _ in range(500):
            k = int(rng.integers(2, 5))
            states = np.stack([random_density_matrix(dim, rng) for _ in range(k)])
            q = rng.dirichlet(np.ones(k))
            chi = holevo_quantity(q, states)
            assert -1e-9 <= chi <= cap + 1e-9
            assert abs(chi - holevo_via_divergence(q, states)) <= 1e-9
            u = random_unitary(dim, rng)
            rotated = u @ states[0] @ u.conj().T
            assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(states[0])) <= 1e-9
            # Pinsker on the diagonal restrictions of the first two members.
            p_diag = np.real(np.diag(states[0]))
            q_diag = np.real(np.diag(states[1]))
            l1 = float(np.abs(p_diag - q_diag).sum())
            assert kl_divergence(p_diag, q_diag) >= l1 * l1 / (2 * math.log(2)) - 1e-12
    _within(t0, 10.0)


def test_causal_solver_agrees_with_strategy_oracle(suite, solvers):
    t0 = time.monotonic()
    for name in DIAGONAL:
        sol = solvers.causal(name)
        gp = ClassicalGP.from_channel(suite[name])
        oracle = shannon_strategy_oracle(gp.w, gp.p)
        assert abs(sol.value - oracle) <= 2e-3, (name, sol.value, oracle)
    assert abs(solvers.causal("flip").value - 1.0) <= 1e-6
    _within(t0, 60.0)


def _single_state_channel(states):
    mats = {("0", str(x)): np.asarray(m, dtype=complex) for x, m in enumerate(states)}
    return build_channel(
        ["0"], [str(x) for x in range(len(states))], states[0].shape[0], mats, [1.0]
    )


def test_single_state_channels_collapse_to_holevo():
    t0 = time.monotonic()
    zero = np.array([[1, 0], [0, 0]], dtype=complex)
    one = np.array([[0, 0], [0, 1]], dtype=complex)
    plus = np.full((2, 2), 0.5, dtype=complex)

    def trine(k):
        v = np.array([math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)])
        return np.outer(v, v).astype(complex)

    for states in ([zero, one], [zero, plus], [trine(0), trine(1), trine(2)]):
        ch = _single_state_channel(states)
        causal = causal_capacity(ch).value
        nc = noncausal_lower_bound(ch, restarts=8, seed=7).value
        holevo = inner_maximize(np.stack(states)).value
        assert abs(causal - nc) <= 1e-6
        assert abs(causal - holevo) <= 1e-6
    _within(t0, 10.0)


def test_noncausal_dominates_causal_and_blocklength_two(suite, solvers):
    t0 = time.monotonic()
    for name, ch in suite.items():
        n1 = solvers.noncausal(name)
        assert n1.value >= solvers.causal(name).value - 1e-6, name
        seed_wit = product_witness(n1.q_given_s, n1.strategy, ch.num_inputs)
        n2 = noncausal_lower_bound(
            ch, n=2, restarts=8, seed=7, seed_witnesses=(seed_wit,)
        )
        assert n2.value >= n1.value - 1e-6, (name, n1.value, n2.value)
        # The informed-decoder bound caps every blocklength per symbol.
        assert n2.value <= n2.upper + n2.upper_gap + 1e-12, (name, n2.value, n2.upper)
    _within(t0, 300.0)


def test_noncausal_matches_classical_oracle_on_diagonal_channels(suite, solvers):
    t0 = time.monotonic()
    for name in DIAGONAL:
        nc = solvers.noncausal(name)
        gp = ClassicalGP.from_channel(suite[name])
        oracle = classical_gp_oracle(
            gp, aux_size=2, grid_step=0.2, refine_rounds=8, eval_budget=200000
        )
        assert abs(nc.value - oracle) <= 5e-3, (name, nc.value, oracle)
    _within(t0, 300.0)


def test_type_counting_bounds_roundings_and_completions():
    t0 = time.monotonic()
    for d in (1, 2, 3):
        for n in range(1, 15):
            total = 0
            for counts in compositions(n, d):
                tc = type_class_size(counts)
                assert tc.lower <= tc.size <= tc.upper * (1 + 1e-12)
                total += tc.size
            assert total == d**n  # exact big-integer partition of the word count

    rng = np.random.default_rng(11)
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        n = d * d + int(rng.integers(0, 41))
        p = rng.dirichlet(np.ones(d))
        counts = nearest_type(p, n)
        assert float(np.abs(counts / n - p).sum()) <= 2 * d / n + 1e-12

    done = 0
    while done < 1000:
        cells = rng.multinomial(8, [0.25] * 4)
        if np.any(cells == 0):
            continue  # admissibility needs every joint mass positive
        p_su = cells.reshape(2, 2) / 8.0
        n = int(rng.choice([72, 96, 120]))
        s_counts = np.rint(p_su.sum(axis=1) * n).astype(int)
        s_seq = rng.permutation(np.repeat([0, 1], s_counts))
        u_seq = joint_type_completion(s_seq, p_su, 0.05)
        gap = float(np.abs(joint_type(s_seq, u_seq, 2, 2) / n - p_su).sum())
        assert gap <= 0.1 + 1e-12
        done += 1
    _within(t0, 30.0)


def test_symmetric_group_projector_axioms_and_kostka_agreement():
    t0 = time.monotonic()
    for d, n_max in ((2, 6), (3, 4)):
        for n in range(1, n_max + 1):
            projs = [central_projector(f, d, n) for f in young_frames(d, n)]
            dim = d**n
            assert np.max(np.abs(sum(projs) - np.eye(dim))) <= 1e-8
            for i, p in enumerate(projs):
                assert np.max(np.abs(p @ p - p)) <= 1e-8
                for q in projs[i + 1 :]:
                    assert np.max(np.abs(p @ q)) <= 1e-8

    for n in range(1, 13):
        for frame in young_frames(2, n):
            bounds = frame_dimension_bounds(frame, 2)
            assert bounds.dimension == irrep_dimension(frame)
            assert bounds.lower <= bounds.dimension <= bounds.upper * (1 + 1e-12)

    for d in (1, 2, 3):
        for n in range(1, 7):
            for frame in young_frames(d, n):
                dim = irrep_dimension(frame)
                for freq in compositions(n, d):
                    rank = kostka_rank(freq, frame, d, n)
                    assert (rank == 0) == kostka_zero_combinatorial(freq, frame)
                    assert rank % dim == 0
    _within(t0, 300.0)


def _matched_pairs(ch, wit, n, delta):
    """The witness's decode context at n, its letter states and its matched word pairs.

    letters[s, u] is state letter s's output under auxiliary letter u in the
    basis frame of ctx. The auxiliary words are those of the witness's
    nearest type, and members[a, b] says whether state word a matches
    auxiliary word b; one matched_set_members call scores every pair.
    """
    q_rows, strat = trim_witness(wit.q_given_s, wit.strategy)
    p_su = ch.p[:, None] * q_rows
    keep = p_su.sum(axis=0) > 1e-9
    p_su = p_su[:, keep]
    p_su /= p_su.sum()
    strat = strat[:, keep]
    q_u = p_su.sum(axis=0)
    picked = ch.tensor[np.arange(ch.num_states)[:, None], strat]
    blended = np.einsum("su,suij->uij", p_su, picked)
    states = blended / q_u[:, None, None]
    ctx = DecodeContext(states, decoding_basis(q_u, states), n, delta)
    u_words = digit_table(len(q_u), n)
    word_counts = np.stack([(u_words == u).sum(axis=1) for u in range(len(q_u))], axis=1)
    u_words = u_words[np.all(word_counts == nearest_type(q_u, n)[None, :], axis=1)]
    s_words = digit_table(ch.num_states, n)
    letters = ctx.rotate(ch.tensor)[np.arange(ch.num_states)[:, None], strat]
    return ctx, letters, s_words, u_words, matched_set_members(s_words, u_words, p_su, delta)


def _pair_trace(ctx, letters, s_word, u_word) -> float:
    """tr(P_u sigma_s) of one word pair, by brute force independent of product_traces.

    P_u is the package's class blocks of u's decode projector scattered into
    one matrix, and sigma_s the left-to-right np.kron fold of the pair's
    letter states.
    """
    proj = scatter([b[0] for b in ctx.projectors(u_word[None, None]).blocks], ctx.partition.words, ctx.d**ctx.n)
    return float(np.einsum("ij,ji->", proj, kron_all(letters[s, u] for s, u in zip(s_word, u_word))).real)


def _joint_types(s_words, u_words, num_s, num_u):
    """Each (state word, auxiliary word) pair's joint type, the count of every (s, u) letter pair, as one int64 key."""
    n = s_words.shape[1]
    assert (n + 1) ** (num_s * num_u) < 2**62
    radix = (n + 1) ** np.arange(num_s * num_u, dtype=np.int64)
    return sum(radix[s_words * num_u + u] @ (u_words == u).T.astype(np.int64) for u in range(num_u))


# (channel, n) with no matched pair at delta = 0.2, where the trace floor checks nothing:
# on skew no four-slot state word is within divergence delta/2 of the witness's p(s|u).
NO_MATCHED_PAIR = {("skew", 4)}


def _matched_trace_scan(ch, wit, ns, delta):
    """Worst decode-projector trace over matched state/auxiliary word pairs, None where no pair matches.

    A word's decode projector is covariant under slot permutations and the
    pair's product state permutes with it, so a trace depends on its pair
    through the pair's joint type only: one representative pair per joint
    type is traced (_pair_trace).
    """
    out = {}
    for n in ns:
        ctx, letters, s_words, u_words, members = _matched_pairs(ch, wit, n, delta)
        keys = _joint_types(s_words, u_words, *letters.shape[:2])
        a, b = np.nonzero(members)
        _, first = np.unique(keys[a, b], return_index=True)
        traces = [_pair_trace(ctx, letters, s_words[a[i]], u_words[b[i]]) for i in first]
        out[n] = min(traces) if traces else None
    return out


def test_decoder_closure_union_bound_and_matched_traces(suite, solvers):
    t0 = time.monotonic()
    rng = np.random.default_rng(23)
    for _ in range(200):
        dim = int(rng.integers(3, 7))
        projs = []
        for _ in range(int(rng.integers(2, 6))):
            rho = random_density_matrix(dim, rng, rank=int(rng.integers(1, 3)))
            vals, vecs = np.linalg.eigh(rho)
            picked = vecs[:, vals > 1e-9]
            projs.append(picked @ picked.conj().T)
        elements, err = square_root_decoder(projs)
        assert np.max(np.abs(sum(elements) + err - np.eye(dim))) <= 1e-8

    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        sigma = random_density_matrix(dim, rng) * float(rng.uniform(0.2, 1.0))
        projs = []
        for _ in range(int(rng.integers(1, 5))):
            rho = random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
            vals, vecs = np.linalg.eigh(rho)
            picked = vecs[:, vals > 1e-9]
            projs.append(picked @ picked.conj().T)
        loss, bound = union_bound_gap(sigma, projs)
        assert loss <= bound + 1e-10

    delta = 0.2
    records = {}
    for name, ch in suite.items():
        worst = _matched_trace_scan(ch, solvers.noncausal(name), (4, 6, 8), delta)
        records[name] = worst
        for n, trace in worst.items():
            assert (trace is None) == ((name, n) in NO_MATCHED_PAIR), (name, n)
            floor = 1.0 - 2.0 ** (-n * delta / 2)
            assert trace is None or trace >= floor, (name, n, trace, floor)
        # The covariance the scan rests on: a slot permutation of a matched pair keeps its trace.
        for n in (4, 6):
            ctx, letters, s_words, u_words, members = _matched_pairs(ch, solvers.noncausal(name), n, delta)
            a, b = np.nonzero(members)
            for i in rng.choice(len(a), size=min(len(a), 5), replace=False):
                perm = rng.permutation(n)
                trace = _pair_trace(ctx, letters, s_words[a[i]], u_words[b[i]])
                permuted = _pair_trace(ctx, letters, s_words[a[i]][perm], u_words[b[i]][perm])
                assert abs(permuted - trace) <= 1e-14, (name, n, perm)
    print(f"matched-trace scan at delta={delta}: {records}")
    _within(t0, 600.0)


def test_decode_projectors_ignore_a_perturbation_inside_the_degenerate_eigenspace(purecq):
    # purecq's x = u XOR s witness averages to exactly I/2, so the decoding basis is fixed inside that
    # eigenspace by the letter states, not by eigh's rounding. Moving every channel state by +-1e-10 X
    # moves the average inside the eigenspace: the basis keeps its columns up to phases, every decode
    # projector is the same up to the words' phases, and so is the scan.
    t0 = time.monotonic()
    wit = SimpleNamespace(q_given_s=np.full((2, 2), 0.5), strategy=np.array([[0, 1], [1, 0]]))
    nudge = 1e-10 * np.array([[0.0, 1.0], [1.0, 0.0]])
    n, delta = 4, 0.2
    ctx, *_, u_words, _ = _matched_pairs(purecq, wit, n, delta)
    base = ctx.projectors(u_words[:, None, :]).blocks
    scan = _matched_trace_scan(purecq, wit, (4, 6), delta)
    for sign in (1.0, -1.0):
        moved = dataclasses.replace(purecq, tensor=purecq.tensor + sign * nudge)
        moved_ctx, *_, moved_words, _ = _matched_pairs(moved, wit, n, delta)
        assert np.array_equal(moved_words, u_words)
        phases = np.einsum("ik,ik->k", ctx.basis.conj(), moved_ctx.basis)
        assert np.max(np.abs(np.abs(phases) - 1.0)) <= 1e-8
        word_phases = np.prod(phases[digit_table(2, n)], axis=1)
        for block, moved_block, words in zip(base, moved_ctx.projectors(u_words[:, None, :]).blocks, ctx.partition.words):
            turned = word_phases[words].conj()[:, None] * block * word_phases[words][None, :]
            assert np.max(np.abs(moved_block - turned), initial=0.0) <= 1e-8
        moved_scan = _matched_trace_scan(moved, wit, (4, 6), delta)
        assert all(abs(moved_scan[k] - scan[k]) <= 1e-8 for k in scan), (sign, scan, moved_scan)
    _within(t0, 60.0)


def test_flip_error_curves_bracket_the_half_bit_rate(flip):
    t0 = time.monotonic()
    rows = simulate_rate_error_curve(
        flip,
        "noncausal-sqrt",
        rates=[0.5, 1.2],
        n_list=[2, 4, 6],
        trials=200,
        seed=2024,
        K=2,
        delta=0.2,
        gp_witness=(np.full((2, 2), 0.5), np.array([[0, 1], [1, 0]])),
    )
    by = {(r.rate, r.n): r for r in rows}
    r2, r4, r6 = by[(0.5, 2)], by[(0.5, 4)], by[(0.5, 6)]
    assert r2.err > r4.err > r6.err
    assert r4.ci_high < r2.ci_low  # confidence intervals separate each drop
    assert r6.ci_high < r4.ci_low
    assert abs(r2.err - 1.0) <= 1e-12
    assert abs(r4.err - 0.7905039062500001) <= 1e-12
    assert abs(r6.err - 0.4911142578125) <= 1e-12
    for n in (2, 4, 6):
        assert by[(1.2, n)].err > 0.3
    _within(t0, 900.0)


def _run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_seeded_commands_rerun_byte_identical(channel_dir, capsys):
    stuck = str(channel_dir / "stuck.chan")
    base = ("noncausal", stuck, "--seed", "7", "--restarts", "8", "--json")
    code_a, out_a = _run(capsys, *base)
    code_b, out_b = _run(capsys, *base)
    assert code_a == code_b == 0
    assert out_a == out_b

    flip = str(channel_dir / "flip.chan")
    sim = (
        "simulate", flip, "--scheme", "noncausal-sqrt", "--rates", "0.5",
        "--n", "2", "--trials", "20", "--seed", "9", "--k", "2",
    )
    code_a, out_a = _run(capsys, *sim)
    code_b, out_b = _run(capsys, *sim)
    assert code_a == code_b == 0
    assert out_a == out_b

    cov = (
        "types", "--op", "coverage", "--joint", "0.35,0.15;0.15,0.35",
        "--n", "12", "--k", "16", "--trials", "40", "--seed", "5", "--json",
    )
    code_a, out_a = _run(capsys, *cov)
    code_b, out_b = _run(capsys, *cov)
    assert code_a == code_b == 0
    assert out_a == out_b
