import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sjj import (
    FockState,
    LossChannel,
    ModelKind,
    TwoModeParams,
    ZeroProbabilityBranchError,
    bs_coefficient,
    build_hamiltonian,
    conditional_state,
    gamma3,
    ground_state,
    loss_mixture,
    noon_state,
    one_body_decay,
    three_body_decay,
    traced_mixture,
)
from sjj import losses
from oracles import mp_loss_rows, random_state


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


def test_bs_coefficient_unit_transmission():
    ch = LossChannel(1.0, 1.0)
    assert bs_coefficient(3, 0, 0, 10, ch) == 1.0
    assert bs_coefficient(3, 2, 0, 10, ch) == 0.0


def test_bs_coefficient_hand_value():
    assert abs(bs_coefficient(1, 1, 0, 2, LossChannel(0.5, 1.0)) - 0.5) <= 1e-15


@pytest.mark.parametrize("eta", [(0.9, 0.7), (0.999, 0.999), (1.0, 0.3)])
def test_bs_coefficient_completeness(eta):
    ch = LossChannel(*eta)
    n_total = 7
    for n in range(n_total + 1):
        total = math.fsum(
            bs_coefficient(n, la, lb, n_total, ch)
            for la in range(n_total - n + 1)
            for lb in range(n + 1)
        )
        assert abs(total - 1.0) <= 1e-12


def test_bs_coefficient_range_checks():
    ch = LossChannel(0.9, 0.9)
    with pytest.raises(ValueError):
        bs_coefficient(3, 8, 0, 10, ch)
    with pytest.raises(ValueError):
        bs_coefficient(3, 0, 4, 10, ch)
    with pytest.raises(ValueError):
        bs_coefficient(11, 0, 0, 10, ch)


def test_conditional_no_loss_identity(rng):
    amps = random_state(rng, 9)
    out = conditional_state(FockState(amps), 0, 0, LossChannel(1.0, 1.0))
    assert abs(out.probability - 1.0) <= 1e-12
    assert np.allclose(out.state.amps, amps, atol=1e-15)


def test_conditional_single_loss_collapses_noon():
    # one detected loss in channel a picks out the all-in-a component
    out = conditional_state(noon_state(60), 1, 0, LossChannel(0.999, 0.999))
    p = out.state.probabilities
    assert out.n_remaining == 59
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
        assert b.n_remaining == 9 - b.l_a - b.l_b


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
    _, g = ground_state(build_hamiltonian(TwoModeParams(ModelKind.SJJ, n_total, coupling)))
    assert np.array_equal(g.probabilities, g.probabilities[::-1])
    mix = loss_mixture(g, LossChannel(0.97, 0.97))
    position = {(b.l_a, b.l_b): i for i, b in enumerate(mix)}
    pairs = [(a, b) for a, b in position if a < b and (b, a) in position]
    assert len(pairs) > 100
    assert all(position[(a, b)] < position[(b, a)] for a, b in pairs)


def test_ground_state_mixture_structure():
    # strongly coupled soliton ground state: the lossless branch dominates
    # and equal-loss branches stay N00N-like
    _, g = ground_state(build_hamiltonian(TwoModeParams(ModelKind.SJJ, 300, 4.0)))
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
        states.append(ground_state(build_hamiltonian(TwoModeParams(ModelKind.SJJ, n_total, 4.0)))[1])
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


def assert_floor_scan_exact(k, floors, row_mins=(0.0, 1e-6, math.inf)):
    """`_scan(k, row_min, floor)` against the whole row tensor, one l_a at a
    time: every branch it computes and every row it returns is the
    tensor's, bit for bit; every branch it skips is below the floor.
    Returns the number of nonzero branches each floor skipped."""
    size = len(k.log_p)
    scans = {(f, r): losses._scan(k, r, f) for f in floors for r in row_mins}
    want = np.zeros((size, size))
    for l_a in range(size):
        tensor, want[l_a] = whole_row_tensor(k, slice(l_a, l_a + 1))
        for (_, row_min), (got_prob, (la, lb, n, rows)) in scans.items():
            at = slice(*np.searchsorted(la, [l_a, l_a + 1]))
            computed = got_prob[l_a] != 0.0
            kept = np.nonzero((tensor[0] >= row_min) & (tensor[0] > 0.0) & computed[:, None])
            assert np.array_equal(lb[at], kept[0]) and np.array_equal(n[at], kept[1])
            assert np.array_equal(rows[at], tensor[0][kept])
    if k.mirror:
        want = 0.5 * (want + want.T)
    skipped = {}
    for (floor, _), (got_prob, _) in scans.items():
        computed = got_prob != 0.0
        assert np.array_equal(got_prob[computed], want[computed])
        assert np.all((want[~computed] < floor) | (want[~computed] == 0.0))
        skipped[floor] = int(np.count_nonzero(~computed & (want > 0.0)))
    return skipped


@pytest.mark.parametrize("n_total", [15, 150, 300])
@pytest.mark.parametrize("eta", [(0.8, 0.9), (0.999, 0.999)], ids=["asym", "sym"])
@pytest.mark.parametrize("state", ["random", "ground"])
def test_scan_floor_skips_only_branches_below_it(n_total, eta, state, rng):
    # the marginal bound skips branches that cannot reach the floor and
    # changes no branch or row that can, not even by rounding
    if state == "random":
        s = FockState(random_state(rng, n_total))
    else:
        s = ground_state(build_hamiltonian(TwoModeParams(ModelKind.SJJ, n_total, 4.0)))[1]
    k = losses._kernel(s, LossChannel(*eta))
    assert k.mirror == (state == "ground" and eta[0] == eta[1])
    skipped = assert_floor_scan_exact(k, floors=(0.0, 1e-100, 1e-6))
    assert skipped[0.0] == 0
    assert skipped[1e-6] > 0


def test_scan_floor_keeps_mirror_pairs_together():
    # for a mirror state at eta_a = eta_b the marginals Pa and Pb are equal
    # in exact arithmetic but round differently; a floor at twice either
    # one of a differing pair would keep l on one side and skip it on the
    # other, and the symmetrised P would halve the one branch computed
    _, g = ground_state(build_hamiltonian(TwoModeParams(ModelKind.SJJ, 60, 4.0)))
    k = losses._kernel(g, LossChannel(0.97, 0.97))
    assert k.mirror
    pa, pb = losses._marginals(k)
    differ = np.flatnonzero(pa != pb)[:6]
    assert len(differ) == 6
    floors = tuple(2.0 * x for l in differ.tolist() for x in (pa[l], pb[l]))
    assert_floor_scan_exact(k, floors, row_mins=(0.0,))
    for floor in floors:
        prob, _ = losses._scan(k, 0.0, floor)
        assert np.array_equal(prob, prob.T)


@pytest.mark.parametrize("eta", [(0.8, 0.9), (0.97, 0.97)], ids=["asym", "sym"])
@pytest.mark.parametrize("state", ["random", "ground"])
def test_mixture_floor_is_a_cut(eta, state, rng):
    # loss_mixture with p_min is the complete mixture cut at p_min, with
    # every probability and branch state bit for bit
    if state == "random":
        s = FockState(random_state(rng, 40))
    else:
        s = ground_state(build_hamiltonian(TwoModeParams(ModelKind.SJJ, 40, 4.0)))[1]
    ch = LossChannel(*eta)
    full = loss_mixture(s, ch)
    for p_min in (1e-100, 1e-6, 1e-3, 0.5):
        cut = loss_mixture(s, ch, p_min)
        want = [b for b in full if b.probability >= p_min]
        assert [(b.l_a, b.l_b, b.probability) for b in cut] == [(b.l_a, b.l_b, b.probability) for b in want]
        assert all(np.array_equal(b.state.amps, w.state.amps) for b, w in zip(cut, want))


def test_readme_loss_scan_work_bounded(monkeypatch):
    # the traced README table (SJJ, N = 300, coupling 4, eta = 0.999, rows
    # >= 1e-100) passes 981,644 values to exp: 800,442 slab rows and
    # 2 x 301^2 marginal terms, against 9,135,651 for the whole row tensor
    counted = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x, *args, **kwargs):
            counted.append(np.size(x))
            return np.exp(x, *args, **kwargs)

    _, g = ground_state(build_hamiltonian(TwoModeParams(ModelKind.SJJ, 300, 4.0)))
    monkeypatch.setattr(losses, "np", CountingNumpy())
    traced_mixture(g, LossChannel(0.999, 0.999), row_min=1e-100)
    assert sum(counted) <= 1_000_000


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


def test_three_body_decay():
    assert three_body_decay(300.0, 2.6e-28, 1e13, 0.0) == 300.0
    assert abs(gamma3(2.6e-28, 1e13) - 5.2e-2) <= 1e-12
    g3 = gamma3(2.6e-28, 1e13)
    assert abs(three_body_decay(100.0, 2.6e-28, 1e13, 3.0 / g3) - 50.0) <= 1e-9
    with pytest.raises(ValueError):
        three_body_decay(-1.0, 2.6e-28, 1e13, 0.0)


def test_one_body_decay():
    assert one_body_decay(300.0, 0.2, 0.0) == 300.0
    ratio = one_body_decay(1.0, 0.2, 0.032)
    assert abs(ratio - math.exp(-0.0064)) <= 1e-15
    assert abs(ratio - 0.99362) <= 1e-5
    assert abs(one_body_decay(8.0, 1.0, math.log(2.0)) - 4.0) <= 1e-12
