import math
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjj import (
    FockState,
    LossChannel,
    ModelKind,
    ZeroProbabilityBranchError,
    build_hamiltonian,
    cat_state,
    conditional_state,
    gamma3,
    gap_soliton_number,
    ground,
    ground_state,
    hz_criterion,
    kappa_eff,
    lambda_eff,
    loss_mixture,
    noon_state,
    one_body_decay,
    steady_states,
    three_body_decay,
    traced_mixture,
)
from sjj import losses
from oracles import mp_branch_probability, mp_hz, mp_loss_rows, random_state


def satellite_noon(n_total: int, side: float = 1e-3) -> FockState:
    """Dominant N00N components plus tiny equal satellites at n = 1, N-1."""
    amps = np.zeros(n_total + 1, dtype=complex)
    amps[0] = amps[-1] = math.sqrt(0.5 - side**2)
    amps[1] = amps[-2] = side
    return FockState(amps)


def test_channel_validation():
    with pytest.raises(ValueError):
        LossChannel(0.0, 0.5)
    with pytest.raises(ValueError):
        LossChannel(0.5, 1.2)
    LossChannel(1.0, 1.0)


def test_conditional_no_loss_identity(rng):
    amps = random_state(rng, 9)
    out = conditional_state(FockState(amps), 0, 0, LossChannel(1.0, 1.0))
    assert abs(out.probability - 1.0) <= 1e-12
    assert np.allclose(out.state.amps, amps, atol=1e-15)


def test_conditional_single_loss_collapses_noon():
    # one detected loss in channel a picks out the all-in-a component
    out = conditional_state(noon_state(60), 1, 0, LossChannel(0.999, 0.999))
    p = out.state.probabilities
    assert out.state.n_total == 59
    assert abs(p[0] - 1.0) <= 1e-12
    assert np.all(p[1:] == 0.0)


def test_conditional_impossible_event():
    with pytest.raises(ZeroProbabilityBranchError):
        conditional_state(noon_state(40), 1, 1, LossChannel(0.99, 0.99))


def test_conditional_unbalanced_noon_ratio():
    # simultaneous single losses on a satellite-dressed N00N state leave an
    # (N-2)-particle N00N with weight ratio eta_a^(N-2) : eta_b^(N-2)
    n_total = 300
    s = satellite_noon(n_total)
    ch = LossChannel(0.999, 0.998)
    out = conditional_state(s, 1, 1, ch)
    p = out.state.probabilities
    nz = np.flatnonzero(p > 0.0)
    assert list(nz) == [0, n_total - 2]
    expect = (ch.eta_a / ch.eta_b) ** (n_total - 2)
    assert abs(p[0] / p[-1] - expect) <= 1e-10 * expect


def test_conditional_single_loss_amplitude_law(rng):
    # at eta_a = eta_b the (1,0) branch amplitudes are A_n sqrt(N-n) up to
    # one overall constant
    n_total = 14
    amps = random_state(rng, n_total)
    out = conditional_state(FockState(amps), 1, 0, LossChannel(0.97, 0.97))
    n = np.arange(n_total)
    law = amps[:-1] * np.sqrt(n_total - n)
    law = law / np.linalg.norm(law)
    phase = out.state.amps[0] / law[0]
    assert abs(abs(phase) - 1.0) <= 1e-12
    assert np.allclose(out.state.amps, phase * law, atol=1e-12)


def test_mixture_unit_transmission():
    mix = loss_mixture(noon_state(12), LossChannel(1.0, 1.0))
    assert len(mix) == 1
    assert mix[0].l_a == mix[0].l_b == 0
    assert abs(mix[0].probability - 1.0) <= 1e-12


def test_mixture_hand_value():
    # |1, 1> at eta = (0.5, 1): mode a loses its atom with probability 1/2,
    # and mode b, at unit transmission, never loses one
    mix = loss_mixture(FockState(np.array([0.0, 1.0, 0.0])), LossChannel(0.5, 1.0))
    assert [(b.l_a, b.l_b) for b in mix] == [(0, 0), (1, 0)]
    assert all(abs(b.probability - 0.5) <= 1e-15 for b in mix)
    assert np.array_equal(mix[1].state.amps, [0.0, 1.0])


def test_mixture_completeness_random(rng):
    s = FockState(random_state(rng, 12))
    for eta in ((0.9, 0.75), (0.999, 0.999)):
        mix = loss_mixture(s, LossChannel(*eta))
        assert abs(math.fsum(b.probability for b in mix) - 1.0) <= 1e-12


def test_mixture_sorted_and_truncated(rng):
    s = FockState(random_state(rng, 10))
    mix = loss_mixture(s, LossChannel(0.9, 0.9))
    probs = [b.probability for b in mix]
    assert probs == sorted(probs, reverse=True)
    cut = loss_mixture(s, LossChannel(0.9, 0.9), p_min=1e-3)
    assert all(b.probability >= 1e-3 for b in cut)
    assert len(cut) < len(mix)


def test_mixture_particle_bookkeeping(rng):
    s = FockState(random_state(rng, 9))
    for b in loss_mixture(s, LossChannel(0.8, 0.85)):
        assert b.state.n_total == 9 - b.l_a - b.l_b


def test_mixture_symmetric_branches(rng):
    # mirror-symmetric input with equal transmissivities keeps the (l, l)
    # branches mirror symmetric
    mags = rng.uniform(0.2, 1.0, size=6)
    amps = np.concatenate([mags, mags[:-1][::-1]]).astype(complex)
    amps /= np.linalg.norm(amps)
    s = FockState(amps)
    ch = LossChannel(0.95, 0.95)
    for ell in (1, 2):
        out = conditional_state(s, ell, ell, ch)
        p = out.state.probabilities
        assert np.max(np.abs(p - p[::-1])) <= 1e-12


@pytest.mark.parametrize("n_total,coupling", [(40, 1.0), (60, 4.0), (121, 2.0009925)])
def test_mixture_mirror_pairs_ordered_by_loss_counts(n_total, coupling):
    # p(l_a, l_b) = p(l_b, l_a) exactly for a mirror-symmetric state and
    # eta_a = eta_b, so the (l_a, l_b) tie-break, not rounding, must order
    # every mirror pair
    _, g = ground_state(build_hamiltonian(ModelKind.SJJ, n_total, coupling))
    assert np.array_equal(g.probabilities, g.probabilities[::-1])
    mix = loss_mixture(g, LossChannel(0.97, 0.97))
    position = {(b.l_a, b.l_b): i for i, b in enumerate(mix)}
    pairs = [(a, b) for a, b in position if a < b and (b, a) in position]
    assert len(pairs) > 100
    assert all(position[(a, b)] < position[(b, a)] for a, b in pairs)


@pytest.mark.parametrize("n_total,eta", [(12, (0.9, 0.8)), (60, (0.97, 0.97))],
                         ids=["asym", "mirror"])
def test_mixture_and_conditional_probabilities_agree_bitwise(n_total, eta):
    # every branch probability is read from a scan's table, where each
    # branch is summed once and a mirror pair symmetrised once, so the
    # mixture and a conditional state agree and the mixture stays sorted by
    # its values
    _, g = ground(ModelKind.SJJ, n_total, 4.0)
    ch = LossChannel(*eta)
    mix = loss_mixture(g, ch)
    probs = [b.probability for b in mix]
    assert probs == [conditional_state(g, b.l_a, b.l_b, ch).probability for b in mix]
    assert probs == sorted(probs, reverse=True)


def test_ground_state_mixture_structure():
    # strongly coupled soliton ground state: the lossless branch dominates
    # and equal-loss branches stay N00N-like
    _, g = ground_state(build_hamiltonian(ModelKind.SJJ, 300, 4.0))
    mix = loss_mixture(g, LossChannel(0.999, 0.999), p_min=1e-6)
    assert (mix[0].l_a, mix[0].l_b) == (0, 0)
    by_loss = {(b.l_a, b.l_b): b for b in mix}
    b11 = by_loss[(1, 1)]
    p = b11.state.probabilities
    assert p[0] + p[-1] > 0.9
    assert abs(p[0] - p[-1]) <= 1e-9


def tailed_state(rng, n_total: int) -> FockState:
    """Random phases on magnitudes falling tenfold every 0.2 steps: p_N ~ 1e-10N."""
    amps = 10.0 ** (-5.0 * np.arange(n_total + 1)) * np.exp(1j * rng.uniform(0, 2 * np.pi, n_total + 1))
    return FockState(amps / np.linalg.norm(amps))


def dense_rows(s: FockState, ch: LossChannel) -> np.ndarray:
    """Every traced row, as a (l_a, l_b, n) array with zeros where none is returned."""
    rows = traced_mixture(s, ch)
    out = np.zeros((s.n_total + 1,) * 3)
    out[rows.l_a, rows.l_b, rows.n] = rows.prob
    return out


def assert_relative(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert np.array_equal(got > 0.0, want > 0.0)
    nz = want > 0.0
    assert np.max(np.abs(got[nz] - want[nz]) / want[nz], initial=0.0) <= rtol


@pytest.mark.parametrize("n_total,eta", [
    (1, (0.5, 0.5)), (2, (0.9, 0.75)), (7, (0.999, 0.999)), (12, (0.3, 1.0)), (20, (0.999, 0.998)),
])
def test_kernel_matches_mp_oracle(rng, n_total, eta):
    # rows, branch probabilities and conditional states against term-by-term
    # mpmath products, 1e-12 relative, down to tails of ~1e-260
    ch = LossChannel(*eta)
    states = [FockState(random_state(rng, n_total)), tailed_state(rng, n_total)]
    if n_total >= 2:
        states.append(ground_state(build_hamiltonian(ModelKind.SJJ, n_total, 4.0))[1])
    for s in states:
        ref = mp_loss_rows(s.amps, *eta)
        ref_prob = ref.sum(axis=-1)
        assert_relative(dense_rows(s, ch), ref)

        mix = loss_mixture(s, ch)
        prob = np.zeros_like(ref_prob)
        for b in mix:
            prob[b.l_a, b.l_b] = b.probability
        assert_relative(prob, ref_prob)

        for b in mix:
            n = np.arange(b.l_b, n_total - b.l_a + 1)
            want = ref[b.l_a, b.l_b, n] / ref_prob[b.l_a, b.l_b]
            single = conditional_state(s, b.l_a, b.l_b, ch)
            assert_relative(single.probability, ref_prob[b.l_a, b.l_b])
            assert_relative(single.state.probabilities, want)
            assert_relative(b.state.probabilities, want)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_total=st.integers(min_value=1, max_value=30),
    eta_a=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    eta_b=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_loss_completeness_random_states(seed, n_total, eta_a, eta_b):
    s = FockState(random_state(np.random.default_rng(seed), n_total))
    ch = LossChannel(eta_a, eta_b)
    assert abs(math.fsum(b.probability for b in loss_mixture(s, ch)) - 1.0) <= 1e-12
    assert abs(math.fsum(traced_mixture(s, ch).prob.tolist()) - 1.0) <= 1e-12


def whole_row_tensor(k, la: slice):
    """The rows of the (l_a, l_b, n) tensor for the l_a in `la`, evaluated
    at once, and their branch sums: branch l_a sums its n <= N - l_a, and
    every row past that is 0."""
    size = len(k.log_p)
    tensor = np.exp(k.log_ta[la, None, :] + k.log_tb[None, :, :] + k.log_p)
    prob = np.stack([t[:, : size - l_a].sum(axis=-1) for t, l_a in zip(tensor, range(size)[la])])
    return tensor, prob


def assert_scan_equals_row_tensor(k, step):
    """`_scan` against the (l_a, l_b, n) tensor evaluated `step` l_a at a time."""
    size = len(k.log_p)
    tensor, prob = (np.concatenate(part) for part in zip(*(
        whole_row_tensor(k, slice(lo, lo + step)) for lo in range(0, size, step)
    )))
    if k.mirror:
        prob = 0.5 * (prob + prob.T)
    for row_min in (0.0, 1e-6):
        got_prob, got_rows = losses._scan(k, row_min)
        assert np.array_equal(got_prob, prob)
        kept = np.nonzero((tensor >= row_min) & (tensor > 0.0))
        want = (*kept, tensor[kept])
        assert all(np.array_equal(a, b) for a, b in zip(got_rows, want, strict=True))


@pytest.mark.parametrize("n_total", [15, 150])
@pytest.mark.parametrize("eta", [(0.8, 0.9), (0.999, 0.999)], ids=["asym", "sym"])
def test_scan_equals_whole_row_tensor(n_total, eta, rng):
    # scanning one l_a at a time changes no row and no branch sum against
    # the whole (l_a, l_b, n) tensor evaluated at once, not even by rounding
    k = losses._kernel(FockState(random_state(rng, n_total)), LossChannel(*eta))
    assert_scan_equals_row_tensor(k, step=n_total + 1)


@pytest.mark.parametrize("n_total", [15, 150])
@pytest.mark.parametrize("step", [1, 3, 7])
def test_row_chunk_size_changes_nothing(n_total, step, rng):
    # cutting the row tensor into chunks of `step` l_a values changes no row
    # and no branch sum against the scan, not even by rounding
    k = losses._kernel(FockState(random_state(rng, n_total)), LossChannel(0.8, 0.9))
    assert_scan_equals_row_tensor(k, step)


def assert_floor_scan_exact(s, ch, floors, row_mins=(0.0, 1e-6, math.inf)):
    """The scan of the kernel cut by `_reach` at each floor against the
    full kernel's row tensor, one l_a at a time: every branch it computes
    and every row it returns is the tensor's, bit for bit; every branch it
    leaves out lies below the floor.  Returns the number of nonzero
    branches each floor left out."""
    full = losses._kernel(s, ch)
    size = len(full.log_p)
    reach = {f: losses._reach(s.n_total, min(ch.eta_a, ch.eta_b), f) for f in floors}
    scans = {(f, r): losses._scan(losses._kernel(s, ch, reach[f]), r) for f in floors for r in row_mins}
    want = np.zeros((size, size))
    for l_a in range(size):
        tensor, want[l_a] = whole_row_tensor(full, slice(l_a, l_a + 1))
        for (f, row_min), (_, (la, lb, n, rows)) in scans.items():
            at = slice(*np.searchsorted(la, [l_a, l_a + 1]))
            held = tensor[0][: reach[f] if l_a < reach[f] else 0]
            kept = np.nonzero((held >= row_min) & (held > 0.0))
            assert np.array_equal(lb[at], kept[0]) and np.array_equal(n[at], kept[1])
            assert np.array_equal(rows[at], held[kept])
    if full.mirror:
        want = 0.5 * (want + want.T)
    skipped = {}
    for (floor, _), (got_prob, _) in scans.items():
        cut = reach[floor]
        assert got_prob.shape == (cut, cut)
        assert np.array_equal(got_prob, want[:cut, :cut])
        left_out = np.ones((size, size), dtype=bool)
        left_out[:cut, :cut] = False
        assert np.all(want[left_out] < floor)
        skipped[floor] = int(np.count_nonzero(left_out & (want > 0.0)))
    return skipped


@pytest.mark.parametrize("n_total", [15, 150, 300])
@pytest.mark.parametrize("eta", [(0.8, 0.9), (0.999, 0.999)], ids=["asym", "sym"])
@pytest.mark.parametrize("state", ["random", "ground"])
def test_scan_floor_skips_only_branches_below_it(n_total, eta, state, rng):
    # the binomial bound leaves out branches that cannot reach the floor
    # and changes no branch or row that can, not even by rounding
    if state == "random":
        s = FockState(random_state(rng, n_total))
    else:
        s = ground_state(build_hamiltonian(ModelKind.SJJ, n_total, 4.0))[1]
    ch = LossChannel(*eta)
    assert losses._kernel(s, ch).mirror == (state == "ground" and eta[0] == eta[1])
    skipped = assert_floor_scan_exact(s, ch, floors=(0.0, 1e-100, 1e-6))
    assert skipped[0.0] == 0
    assert skipped[1e-6] > 0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_total=st.integers(min_value=1, max_value=30),
    eta_a=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    eta_b=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)
def test_reach_bounds_every_branch(seed, n_total, eta_a, eta_b):
    # P[l_a, l_b] <= P(Bin(N, 1 - eta) >= max(l_a, l_b)) at the smaller eta:
    # the cut kernel keeps every branch >= floor and every row >= row_min
    # bit for bit, and every branch it leaves out lies below the floor
    s = FockState(random_state(np.random.default_rng(seed), n_total))
    assert_floor_scan_exact(s, LossChannel(eta_a, eta_b), floors=(1e-100, 1e-6, 1e-3))


def test_scan_floor_keeps_mirror_pairs_together():
    # for a mirror state at eta_a = eta_b one loss count bounds both
    # tables, so a floor at or near a branch probability keeps or leaves
    # out each mirror pair together, and the symmetrised P is exact
    _, g = ground_state(build_hamiltonian(ModelKind.SJJ, 60, 4.0))
    ch = LossChannel(0.97, 0.97)
    assert losses._kernel(g, ch).mirror
    prob, _ = losses._scan(losses._kernel(g, ch), 0.0)
    pairs = [(l, l + 1) for l in (0, 2, 5, 9, 14, 20)]
    assert all(prob[a, b] == prob[b, a] > 0.0 for a, b in pairs)
    floors = tuple(x * prob[a, b] for a, b in pairs for x in (1.0, 2.0))
    assert_floor_scan_exact(g, ch, floors, row_mins=(0.0,))
    for floor in floors:
        cut, _ = losses._scan(losses._kernel(g, ch, losses._reach(60, 0.97, floor)), 0.0)
        assert np.array_equal(cut, cut.T)


@pytest.mark.parametrize("eta", [(0.8, 0.9), (0.97, 0.97)], ids=["asym", "sym"])
@pytest.mark.parametrize("state", ["random", "ground"])
def test_mixture_floor_is_a_cut(eta, state, rng):
    # loss_mixture with p_min is the complete mixture cut at p_min, with
    # every probability and branch state bit for bit
    if state == "random":
        s = FockState(random_state(rng, 40))
    else:
        s = ground_state(build_hamiltonian(ModelKind.SJJ, 40, 4.0))[1]
    ch = LossChannel(*eta)
    full = loss_mixture(s, ch)
    for p_min in (1e-100, 1e-6, 1e-3, 0.5):
        cut = loss_mixture(s, ch, p_min)
        want = [b for b in full if b.probability >= p_min]
        assert [(b.l_a, b.l_b, b.probability) for b in cut] == [(b.l_a, b.l_b, b.probability) for b in want]
        assert all(np.array_equal(b.state.amps, w.state.amps) for b, w in zip(cut, want))


def exp_values(monkeypatch, call: Callable[[], object]) -> int:
    """How many values call() makes the losses module pass to exp."""
    counted = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x, *args, **kwargs):
            counted.append(np.size(x))
            return np.exp(x, *args, **kwargs)

    monkeypatch.setattr(losses, "np", CountingNumpy())
    call()
    return sum(counted)


def readme_exp_values(monkeypatch, p_min: float) -> int:
    """How many values the traced README table (SJJ, N = 300, coupling 4,
    eta = 0.999, rows >= 1e-100) with this p_min passes to exp."""
    _, g = ground_state(build_hamiltonian(ModelKind.SJJ, 300, 4.0))
    return exp_values(monkeypatch, lambda: traced_mixture(
        g, LossChannel(0.999, 0.999), p_min=p_min, row_min=1e-100))


def test_readme_loss_scan_work_bounded(monkeypatch):
    # only the slab rows of 54 loss counts per table, against 9,135,651
    # rows for the whole row tensor
    assert readme_exp_values(monkeypatch, 0.0) == 800_442


def test_readme_p_min_loss_scan_work_bounded(monkeypatch):
    # --p-min 1e-6 cuts each table to 7 loss counts
    assert readme_exp_values(monkeypatch, 1e-6) == 14_602


def test_mixture_probabilities_come_from_the_one_scan(monkeypatch):
    # the scan's 14,602 values, as for the traced table above, and two per
    # amplitude of each of the 12 branches (7,160) for its state; no branch
    # sums its rows a second time
    _, g = ground_state(build_hamiltonian(ModelKind.SJJ, 300, 4.0))
    count = exp_values(monkeypatch, lambda: loss_mixture(g, LossChannel(0.999, 0.999), p_min=1e-6))
    assert count == 21_762


def test_loss_tables_bounded_before_allocation(rng, monkeypatch):
    monkeypatch.setattr(losses, "_MAX_TABLE", 16**2)
    ch = LossChannel(0.8, 0.9)
    assert loss_mixture(FockState(random_state(rng, 15)), ch)
    big = FockState(random_state(rng, 16))
    for call in (lambda: loss_mixture(big, ch), lambda: traced_mixture(big, ch),
                 lambda: conditional_state(big, 0, 0, ch)):
        with pytest.raises(ValueError, match="n_total must be at most 15 for the loss tables"):
            call()


def test_traced_rows_order_and_floor(rng):
    s = FockState(random_state(rng, 15))
    ch = LossChannel(0.8, 0.9)
    rows = traced_mixture(s, ch)
    mix = loss_mixture(s, ch)
    branches = [(b.l_a, b.l_b) for b in mix]
    # branch blocks in loss_mixture's order, n ascending inside each
    starts = np.flatnonzero(np.diff(rows.l_a * 100 + rows.l_b, prepend=-1))
    assert [(rows.l_a[i], rows.l_b[i]) for i in starts] == branches
    key = np.lexsort((rows.n, [branches.index(ab) for ab in zip(rows.l_a, rows.l_b)]))
    assert np.array_equal(key, np.arange(len(key)))
    floored = traced_mixture(s, ch, row_min=1e-6)
    assert np.array_equal(floored.prob, rows.prob[rows.prob >= 1e-6])
    cut = traced_mixture(s, ch, p_min=1e-3)
    kept = {(b.l_a, b.l_b) for b in mix if b.probability >= 1e-3}
    assert set(zip(cut.l_a.tolist(), cut.l_b.tolist())) == kept
    # no branch reaches a p_min above 1, so the scan builds no slab
    assert all(len(col) == 0 for col in traced_mixture(s, ch, p_min=2.0))
    with pytest.raises(ValueError):
        traced_mixture(s, ch, p_min=-1.0)


def lobe_ratio(s: FockState) -> float:
    """Smaller over larger of the probability below and above the centre n = N/2."""
    n, p = np.arange(s.n_total + 1), s.probabilities
    below, above = p[2 * n < s.n_total].sum(), p[2 * n > s.n_total].sum()
    return min(below, above) / max(below, above)


# SJJ, N = 300, eta_a = eta_b = 0.999: the ground state's (1, 1) branch
# probability and order-N' witness, and its (1, 0) lobe ratio
GROUND_AFTER_LOSS = {2.001: (2.187e-5, 0.6795, 3.29e-4),
                     2.1: (1.727e-5, 0.6538, 2.60e-4),
                     4.0: (2.538e-6, 0.5313, 3.81e-5)}


def test_kernel_reads_the_state_log_probabilities():
    # 22 |A_n|^2 of this ground state underflow to 0: the kernel took their
    # log as -inf, and the witness as 2 log|A_n|
    s = ground(ModelKind.SJJ, 800, 0.5)[1]
    assert np.count_nonzero(s.probabilities == 0.0) == 22
    k = losses._kernel(s, LossChannel(0.9, 0.9), rows=1)
    assert np.array_equal(k.log_p, s.log_probabilities)
    assert np.all(np.isfinite(k.log_p))


def test_ground_state_keeps_an_entangled_two_lobe_state_after_losses():
    # The paper's claim: tiny entangled Fock components next to the N00N
    # components make the quantum SJJ state resist few-particle losses,
    # unlike its Hartree analogue.  The figures of merit, the lobe ratio and
    # the order-N' witness of the state left after the losses, are this
    # package's, not the paper's.  Tolerances: 1e-3 relative on P, 1e-2 on a
    # (1, 0) lobe ratio, 1e-4 absolute on a witness; the oracles to 1e-12 and
    # 5e-13.
    ch = LossChannel(0.999, 0.999)

    def after(s, l_a, l_b):
        b = conditional_state(s, l_a, l_b, ch)
        hz = hz_criterion(b.state, b.state.n_total)
        assert abs(hz - mp_hz(b.state.amps, b.state.n_total)) <= 5e-13
        want = mp_branch_probability(s.amps, l_a, l_b, 0.999, 0.999)
        assert abs(b.probability - want) <= 1e-12 * want
        return b.probability, lobe_ratio(b.state), hz

    for coupling, (p11, hz11, lobe10) in GROUND_AFTER_LOSS.items():
        s = ground(ModelKind.SJJ, 300, coupling)[1]
        p, lobe, hz = after(s, 1, 1)
        # both lobes survive one loss from each mode, entangled at order N'
        assert abs(p - p11) <= 1e-3 * p11 and abs(lobe - 1.0) <= 1e-12 and abs(hz - hz11) <= 1e-4
        _, lobe, hz = after(s, 1, 0)
        # one loss from mode a leaves the lobe that had atoms in a
        assert abs(lobe - lobe10) <= 1e-2 * lobe10 and 0.9997 <= hz <= 1.0

    # the even Hartree cat keeps its lobes too, but no order-N' entanglement
    cat = cat_state(2.001, 300)
    p, lobe, hz = after(cat, 1, 1)
    assert abs(p - 8.342e-3) <= 1e-3 * 8.342e-3 and abs(lobe - 1.0) <= 1e-12
    assert abs(hz - 1.0) <= 1e-4
    _, lobe, hz = after(cat, 1, 0)
    assert abs(lobe - 0.1722) <= 1e-3 * 0.1722 and abs(hz - 1.0) <= 1e-4

    # a pure N00N state cannot lose from both modes, and one loss collapses it
    with pytest.raises(ZeroProbabilityBranchError):
        conditional_state(noon_state(300), 1, 1, ch)
    _, lobe, hz = after(noon_state(300), 1, 0)
    assert lobe == 0.0 and hz == 1.0


def test_three_body_decay():
    assert three_body_decay(300.0, 2.6e-28, 1e13, 0.0) == 300.0
    assert abs(gamma3(2.6e-28, 1e13) - 5.2e-2) <= 1e-12
    g3 = gamma3(2.6e-28, 1e13)
    assert abs(three_body_decay(100.0, 2.6e-28, 1e13, 3.0 / g3) - 50.0) <= 1e-9
    with pytest.raises(ValueError):
        three_body_decay(-1.0, 2.6e-28, 1e13, 0.0)
    for l3, rho in [(-2.6e-28, 1e13), (2.6e-28, -1e13)]:
        with pytest.raises(ValueError, match="l3 and rho must be >= 0"):
            gamma3(l3, rho)


def test_one_body_decay():
    assert one_body_decay(300.0, 0.2, 0.0) == 300.0
    ratio = one_body_decay(1.0, 0.2, 0.032)
    assert abs(ratio - math.exp(-0.0064)) <= 1e-15
    assert abs(ratio - 0.99362) <= 1e-5
    assert abs(one_body_decay(8.0, 1.0, math.log(2.0)) - 4.0) <= 1e-12
    for args in [(-1.0, 0.2, 0.0), (1.0, -0.2, 0.0), (1.0, 0.2, -1.0)]:
        with pytest.raises(ValueError, match="all inputs must be >= 0"):
            one_body_decay(*args)


@pytest.mark.parametrize("call, match", [
    (lambda s, ch: loss_mixture(s, ch, p_min=math.nan), "p_min must be >= 0"),
    (lambda s, ch: traced_mixture(s, ch, p_min=math.nan), "p_min must be >= 0"),
    (lambda s, ch: traced_mixture(s, ch, row_min=math.nan), "row_min must be >= 0"),
    (lambda s, ch: traced_mixture(s, ch, row_min=-1.0), "row_min must be >= 0"),
    (lambda s, ch: three_body_decay(1.0, math.nan, 1.0, 1.0), "all inputs must be >= 0"),
    (lambda s, ch: one_body_decay(1.0, math.nan, 1.0), "all inputs must be >= 0"),
    (lambda s, ch: gamma3(math.nan, 1.0), "l3 and rho must be >= 0"),
    (lambda s, ch: kappa_eff(0.1, math.nan), "kappa must be > 0"),
    (lambda s, ch: gap_soliton_number(math.nan, 1.0, 1.0, 1.0), "all inputs must be > 0"),
    (lambda s, ch: steady_states(math.nan), "Lambda must be finite and >= 0"),
    (lambda s, ch: steady_states(math.inf), "Lambda must be finite and >= 0"),
], ids=["loss_mixture_p_min", "traced_p_min", "traced_row_min", "traced_row_min_negative",
        "three_body", "one_body", "gamma3", "kappa_eff", "gap_soliton", "steady_nan",
        "steady_inf"])
def test_nan_input_is_value_error(call, match):
    # a NaN fails every comparison, so each guard tests that the value holds
    with pytest.raises(ValueError, match=match):
        call(noon_state(4), LossChannel(0.9, 0.9))


# the six calls that gave NaN when only the range of each input was
# checked, then each input of each function set to inf on its own
VALID_INPUTS = [(gamma3, (1.0, 1.0)), (one_body_decay, (1.0, 1.0, 1.0)),
                (three_body_decay, (1.0, 1.0, 1.0, 1.0)), (kappa_eff, (0.5, 1.0)),
                (lambda_eff, (0.5, 1.0)), (gap_soliton_number, (1.0, 1.0, 1.0, 1.0))]
NOT_FINITE = [
    (gamma3, (math.inf, 0.0)), (one_body_decay, (1.0, math.inf, 0.0)),
    (three_body_decay, (1.0, math.inf, 0.0, 1.0)), (kappa_eff, (1.0, math.inf)),
    (lambda_eff, (0.5, math.nan)), (gap_soliton_number, (math.inf, 1.0, math.inf, 1.0)),
] + [(f, (*args[:i], math.inf, *args[i + 1:])) for f, args in VALID_INPUTS for i in range(len(args))]


@pytest.mark.parametrize("f, args", NOT_FINITE,
                         ids=[f"{f.__name__}{args}" for f, args in NOT_FINITE])
def test_not_finite_input_is_value_error(f, args):
    assert all(math.isfinite(f(*valid)) for g, valid in VALID_INPUTS if g is f)
    with pytest.raises(ValueError):
        f(*args)
