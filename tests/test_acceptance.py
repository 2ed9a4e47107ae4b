"""Acceptance gate: one test per shipping criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them on success). Timing
criteria retry only on the harness's own environment-noise guard, never on
a failed assertion.
"""

import math
import time

import numpy as np
import pytest

from momentflow import (
    Batch,
    BenchScenario,
    EmptyState,
    ExponentialMetric,
    Kind,
    MetricSpec,
    OrderLadder,
    PolynomialMetric,
    dumps_state,
    fractional_chain,
    fractional_convergence_sweep,
    from_batch,
    loads_state,
    metric_update,
    run_scenario,
    storage_report,
    update_fractional,
    update_integer,
    update_mean,
    update_normalizer,
)
from momentflow.cli import main
from momentflow.elements import norm_payload, relative_error
from momentflow.errors import TimingUnstable

from conftest import swapped_metric_update

KINDS = [(Kind.SCALAR, None), (Kind.COMPLEX, None), (Kind.VECTOR, 4)]
ORACLE_LADDER = OrderLadder.integer_range(2, 20)


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] criterion {num} ({desc}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({desc}) failed: {detail}"


def _draw_case(rng, kind, dim):
    n = 16 if rng.random() < 0.5 else 256
    delta = int(rng.integers(1, n + 1))

    def draw(count):
        weights = (1.0 - rng.random(count)).tolist()  # (0, 1]
        if kind is Kind.SCALAR:
            values = rng.random(count).tolist()
        elif kind is Kind.COMPLEX:
            values = [complex(a, b) for a, b in zip(rng.random(count), rng.random(count))]
        else:
            rows = rng.random((count, dim))
            values = [rows[i].copy() for i in range(count)]
        return Batch.from_values(kind, values, weights, dim=dim)

    base = draw(n)
    extra = draw(delta)
    joined = Batch(kind=kind, dim=dim, values=np.concatenate([base.values, extra.values]),
                   weights=np.concatenate([base.weights, extra.weights]))
    return base, extra, joined


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed, (kind, dim) in enumerate(KINDS, start=101):
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            base, extra, joined = _draw_case(rng, kind, dim)
            upd = update_integer(from_batch(base, ORACLE_LADDER), extra)
            oracle = from_batch(joined, ORACLE_LADDER)
            m2 = norm_payload(kind, oracle.moments[2.0])
            for n in range(2, 21):
                tol = 1e-8 if n <= 10 else 1e-6
                rel = relative_error(kind, upd.moments[float(n)], oracle.moments[float(n)], m2, n)
                worst = max(worst, rel / tol)
                assert rel < tol, f"kind={kind} order={n} rel={rel:.3e}"
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "oracle equivalence, 1000 cases x 3 kinds, orders 2..20",
        elapsed < 60.0,
        f"worst rel/tol={worst:.3e}, elapsed={elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_normalizer_and_mean_updates():
    worst = 0.0
    for seed, (kind, dim) in enumerate(KINDS, start=101):
        rng = np.random.default_rng(seed)  # the criterion-1 corpus, replayed
        for _ in range(1000):
            base, extra, joined = _draw_case(rng, kind, dim)
            state = from_batch(base, OrderLadder([2]))
            zp = update_normalizer(state, extra)
            mp = update_mean(state, extra, zp)
            z_direct = sum(joined.weights)
            acc = None
            for x, w in zip(joined.values, joined.weights):
                wx = w * x
                acc = wx if acc is None else acc + wx
            mean_direct = acc / z_direct
            rel_z = abs(zp - z_direct) / abs(z_direct)
            rel_m = norm_payload(kind, mp - mean_direct) / norm_payload(kind, mean_direct)
            worst = max(worst, rel_z, rel_m)
            assert rel_z <= 1e-12 and rel_m <= 1e-12
    _report(2, "normalizer/mean updates match recomputation", worst <= 1e-12,
            f"worst rel={worst:.3e} (tol 1e-12)")


def _run_with_noise_retry(make_scenario, attempts=3):
    for attempt in range(attempts):
        try:
            return run_scenario(make_scenario(attempt))
        except TimingUnstable:
            if attempt == attempts - 1:
                raise
    raise AssertionError("unreachable")


def _spearman(xs, ys):
    def ranks(v):
        order = np.argsort(v)
        r = np.empty(len(v))
        r[order] = np.arange(len(v))
        return r

    rx, ry = ranks(np.asarray(xs)), ranks(np.asarray(ys))
    rx -= rx.mean()
    ry -= ry.mean()
    return float((rx * ry).sum() / math.sqrt((rx * rx).sum() * (ry * ry).sum()))


def test_criterion_3_speedup_trend_large_set():
    records = _run_with_noise_retry(
        lambda attempt: BenchScenario(
            kind=Kind.SCALAR, base_size=256, deltas=(1,),
            orders=tuple(range(2, 21)), repeats=100, seed=1000 + attempt,
        )
    )
    speedups = [r.speedup for r in records]
    rho = _spearman([r.order for r in records], speedups)
    at2 = speedups[0]
    ok = at2 >= 2.0 and rho < 0.0
    _report(
        3, "speedup trend on the 256-float set, delta=1", ok,
        f"speedup@n=2 = {at2:.1f}x (>=2), peak {max(speedups):.1f}x, "
        f"min {min(speedups):.1f}x, spearman rho = {rho:.3f} (<0)",
    )


def test_criterion_4_crossover_matches_prediction():
    # delta = N: predicted threshold order is (16+16)/16 + 1 = 3
    records = _run_with_noise_retry(
        lambda attempt: BenchScenario(
            kind=Kind.SCALAR, base_size=16, deltas=(16,),
            orders=tuple(range(2, 21)), repeats=100, seed=2000 + attempt,
        )
    )
    cross = next((r.order for r in records if r.speedup < 1.0), None)
    predicted = records[0].predicted_threshold
    ok_a = cross is not None and abs(cross - predicted) <= 4

    # delta = 1 on the small set: the update stays ahead through order ~14+-4
    records1 = _run_with_noise_retry(
        lambda attempt: BenchScenario(
            kind=Kind.SCALAR, base_size=16, deltas=(1,),
            orders=tuple(range(2, 21)), repeats=100, seed=3000 + attempt,
        )
    )
    low_orders = [r for r in records1 if r.order <= 10]
    ok_b = all(r.speedup > 1.0 for r in low_orders)
    cross1 = next((r.order for r in records1 if r.speedup < 1.0), None)
    _report(
        4, "crossover order vs predicted threshold", ok_a and ok_b,
        f"delta=16: first speedup<1 at order {cross} (predicted {predicted:.0f}+-4); "
        f"delta=1: speedup>1 through order 10, first crossover at {cross1}",
    )


def _median_times(fns, repeats, warmup=3):
    """Median wall time of each callable in ``fns`` over ``repeats[key]``
    calls. Each round times one call of every callable still short of its
    count, in turn, so a slow phase of the machine lands on all of them
    alike instead of on whichever was being timed."""
    times = {key: [] for key in fns}
    for i in range(max(repeats.values()) + warmup):
        for key, fn in fns.items():
            if i >= repeats[key] + warmup:
                continue
            t0 = time.perf_counter_ns()
            fn()
            t1 = time.perf_counter_ns()
            if i >= warmup:
                times[key].append((t1 - t0) / 1e9)
    return {key: sorted(ts)[len(ts) // 2] for key, ts in times.items()}


def test_criterion_5_update_time_independent_of_absorbed_count():
    ladder = OrderLadder.integer_range(2, 8)
    rng = np.random.default_rng(4321)
    updates, fulls, full_reps = {}, {}, {}
    for exp in (10, 13, 16):
        n = 2**exp
        values = rng.random(n).tolist()
        weights = (1.0 - rng.random(n)).tolist()
        base = Batch.from_values(Kind.SCALAR, values, weights)
        state = from_batch(base, ladder)
        extra = Batch.from_values(Kind.SCALAR, [float(rng.random())], [0.5])
        updates[n] = lambda state=state, extra=extra: update_integer(state, extra)
        fulls[n] = lambda base=base: from_batch(base, ladder)
        full_reps[n] = 31 if exp <= 13 else 7
    update_times = _median_times(updates, repeats=dict.fromkeys(updates, 201))
    full_times = _median_times(fulls, repeats=full_reps)
    update_spread = max(update_times.values()) / min(update_times.values())
    full_growth = full_times[2**16] / full_times[2**10]
    ok = update_spread < 1.5 and full_growth > 30.0
    _report(
        5, "O(batch) update vs O(N) recomputation", ok,
        f"update spread {update_spread:.2f}x across N=2^10..2^16 (<1.5), "
        f"from-scratch growth {full_growth:.0f}x (>30)",
    )


def test_criterion_6_metric_engine():
    rng = np.random.default_rng(77)

    # (a) polynomial metrics are lossless
    worst_poly = 0.0
    for _ in range(500):
        deg = int(rng.integers(0, 6))
        g = PolynomialMetric(rng.uniform(-2, 2, size=deg + 1).tolist())
        n_star = max(2, deg)
        nb = int(rng.integers(2, 33))
        nd = int(rng.integers(1, 9))
        bv, bw = rng.random(nb).tolist(), (1.0 - rng.random(nb)).tolist()
        ev, ew = rng.random(nd).tolist(), (1.0 - rng.random(nd)).tolist()
        state = from_batch(Batch.from_values(Kind.SCALAR, bv, bw), OrderLadder.integer_range(2, n_star))
        res = metric_update(state, Batch.from_values(Kind.SCALAR, ev, ew), MetricSpec(g, n_star=n_star))
        zall = math.fsum(bw + ew)
        direct = math.fsum(w * g.evaluate(x) for x, w in zip(bv + ev, bw + ew)) / zall
        magnitude = math.fsum(w * abs(g.evaluate(x)) for x, w in zip(bv + ev, bw + ew)) / zall
        rel = abs(res.value - direct) / max(abs(direct), magnitude, 1e-300)
        worst_poly = max(worst_poly, rel)
        assert rel <= 1e-10

    # (b) entire function: exp at n_star = 14 on [0,1] data
    g = ExponentialMetric(1.0, 1.0)
    worst_exp = 0.0
    for _ in range(20):
        bv, bw = rng.random(64).tolist(), (1.0 - rng.random(64)).tolist()
        ev, ew = rng.random(8).tolist(), (1.0 - rng.random(8)).tolist()
        state = from_batch(Batch.from_values(Kind.SCALAR, bv, bw), OrderLadder.integer_range(2, 14))
        res = metric_update(state, Batch.from_values(Kind.SCALAR, ev, ew), MetricSpec(g, n_star=14))
        zall = math.fsum(bw + ew)
        direct = math.fsum(w * math.exp(x) for x, w in zip(bv + ev, bw + ew)) / zall
        rel = abs(res.value - direct) / abs(direct)
        worst_exp = max(worst_exp, rel)
        assert rel <= 1e-9

    # (c) the two double-sum evaluation orders agree
    worst_swap = 0.0
    for _ in range(25):
        bv, bw = rng.random(24).tolist(), (1.0 - rng.random(24)).tolist()
        ev, ew = rng.random(4).tolist(), (1.0 - rng.random(4)).tolist()
        state = from_batch(Batch.from_values(Kind.SCALAR, bv, bw), OrderLadder.integer_range(2, 12))
        batch = Batch.from_values(Kind.SCALAR, ev, ew)
        spec = MetricSpec(ExponentialMetric(1.0, 1.0), n_star=12)
        a = metric_update(state, batch, spec).value
        b = swapped_metric_update(state, batch, spec)
        diff = abs(a - b) / max(1.0, abs(a))
        worst_swap = max(worst_swap, diff)
        assert diff <= 1e-12

    _report(
        6, "metric engine: polynomial exact, exp 1e-9, summation swap 1e-12", True,
        f"worst poly rel={worst_poly:.2e}, exp rel={worst_exp:.2e}, swap diff={worst_swap:.2e}",
    )


def _complex_corpus(rng, n=12, base=100.0, spread=0.05, min_gap=0.15):
    while True:
        u = rng.uniform(-1.0, 1.0, size=n) + 1j * rng.uniform(-1.0, 1.0, size=n)
        weights = (0.5 + 0.5 * rng.random(n)).tolist()
        d = u - sum(w * x for w, x in zip(weights, u)) / sum(weights)
        if np.min(np.abs(d)) <= min_gap:
            continue
        cut = min((abs(x.imag) for x in d if x.real < 0), default=np.inf)
        if cut > min_gap:
            break
    return [complex(base + spread * x) for x in u], weights


def test_criterion_7_fractional_path():
    rng = np.random.default_rng(55)

    # (a) integer-valued orders through the series reproduce the exact path
    ladder = OrderLadder.integer_range(2, 8)
    worst_int = 0.0
    for _ in range(50):
        bv, bw = rng.random(16).tolist(), (1.0 - rng.random(16)).tolist()
        ev, ew = rng.random(3).tolist(), (1.0 - rng.random(3)).tolist()
        state = from_batch(Batch.from_values(Kind.SCALAR, bv, bw), ladder)
        extra = Batch.from_values(Kind.SCALAR, ev, ew)
        advanced = update_integer(state, extra)
        for order in (2.0, 3.0, 5.0, 8.0):
            got, _ = update_fractional(state, extra, order, cutoff=12)
            want = advanced.moments[order]
            rel = abs(got - want) / max(abs(want), 1e-300)
            worst_int = max(worst_int, rel)
            assert rel <= 1e-12

    # (b) truncated series vs the direct fractional oracle, small spreads
    order, cutoff = 2.5, 12
    chain_ladder = OrderLadder(fractional_chain(order, cutoff))
    worst_frac = 0.0
    for _ in range(50):
        values, weights = _complex_corpus(rng)
        state = from_batch(Batch.from_values(Kind.COMPLEX, values, weights), chain_ladder)
        nv = complex(state.mean) + complex(rng.normal(), rng.normal()) * 1e-6
        extra = Batch.from_values(Kind.COMPLEX, [nv], [1.0])
        got, report = update_fractional(state, extra, order, cutoff)
        oracle = from_batch(
            Batch.from_values(Kind.COMPLEX, values + [nv], weights + [1.0]),
            OrderLadder([order]),
        ).moments[order]
        rel = abs(got - oracle) / abs(oracle)
        worst_frac = max(worst_frac, rel)
        assert rel <= 1e-4 and report.converged

    # (c) the convergence sweep covers non-convergent cells without crashing
    cells = fractional_convergence_sweep(
        spreads=[0.0, 0.01, 0.05, 0.2], shifts=[0.0, 1e-4, 1e-2, 0.5],
        order=2.5, max_cutoff=12,
    )
    n_diverged = sum(1 for c in cells if c.min_converged_cutoff is None)
    assert len(cells) == 16 and n_diverged >= 1

    _report(
        7, "fractional path: integer reduction 1e-12, oracle 1e-4, sweep", True,
        f"worst integer rel={worst_int:.2e}, fractional rel={worst_frac:.2e}, "
        f"sweep cells={len(cells)} ({n_diverged} non-convergent)",
    )


def test_criterion_8_persistence_and_sessions(tmp_path, monkeypatch):
    rng = np.random.default_rng(99)

    # (a) 200 fuzzed multi-append CLI sessions all verify clean
    kinds = ["scalar", "complex", "vector:2", "vector:3"]
    for session in range(200):
        sdir = tmp_path / f"s{session}"
        sdir.mkdir()
        state = str(sdir / "state.json")
        kind = kinds[int(rng.integers(0, len(kinds)))]
        top = int(rng.integers(2, 9))
        assert main(["init", "--state", state, "--orders", f"2..{top}", "--kind", kind]) == 0
        if kind == "scalar":
            header = "x,weight"
        elif kind == "complex":
            header = "re,im,weight"
        else:
            d = int(kind.split(":")[1])
            header = ",".join(f"x{i}" for i in range(d)) + ",weight"
        all_rows = []
        for a in range(int(rng.integers(1, 5))):
            size = int(rng.integers(1, 7))
            rows = []
            for _ in range(size):
                w = float(0.1 + rng.random())
                if kind == "scalar":
                    rows.append(f"{rng.normal()!r},{w!r}")
                elif kind == "complex":
                    rows.append(f"{rng.normal()!r},{rng.normal()!r},{w!r}")
                else:
                    d = int(kind.split(":")[1])
                    rows.append(",".join(repr(float(c)) for c in rng.normal(size=d)) + f",{w!r}")
            all_rows.extend(rows)
            bp = sdir / f"b{a}.csv"
            bp.write_text(header + "\n" + "\n".join(rows) + "\n")
            assert main(["append", "--state", state, "--batch", str(bp)]) == 0
        full = sdir / "all.csv"
        full.write_text(header + "\n" + "\n".join(all_rows) + "\n")
        assert main(["verify", "--state", state, "--data", str(full), "--tol", "1e-8"]) == 0

    # (b) serialization round-trip is bit-exact (full 10k fuzz in test_statefile)
    from test_statefile import _assert_states_bit_equal, _random_state

    rt_rng = np.random.default_rng(7)
    for i in range(1000):
        kind, dim = [(Kind.SCALAR, None), (Kind.COMPLEX, None), (Kind.VECTOR, 3)][i % 3]
        st = _random_state(rt_rng, kind, dim)
        _assert_states_bit_equal(st, loads_state(dumps_state(st)))

    # (c) an injected crash between temp-write and rename never corrupts
    state = str(tmp_path / "crash.json")
    assert main(["init", "--state", state, "--orders", "2..4", "--kind", "scalar"]) == 0
    b = tmp_path / "cb.csv"
    b.write_text("x,weight\n1.0,1.0\n2.0,1.0\n")
    assert main(["append", "--state", state, "--batch", str(b)]) == 0
    before = open(state).read()
    monkeypatch.setattr("momentflow.statefile.os.replace",
                        lambda s, d: (_ for _ in ()).throw(OSError("crash")))
    with pytest.raises(OSError):
        main(["append", "--state", state, "--batch", str(b)])
    monkeypatch.undo()
    assert open(state).read() == before
    assert main(["verify", "--state", state, "--data", str(b), "--tol", "1e-10"]) == 0

    _report(8, "200 fuzzed sessions verify clean; round-trip bit-exact; crash-safe", True)


def test_criterion_9_storage_identity():
    checks = []
    for n, orders in ((256, 19), (16, 5), (1024, 3)):
        rep = storage_report(
            EmptyState(kind=Kind.SCALAR, dim=None,
                       ladder=OrderLadder.integer_range(2, orders + 1)),
            hypothetical_n=n, datum_bytes=8, weight_bytes=8,
        )
        checks.append(rep.dataset_bytes == 2 * n * rep.moment_bytes)
        checks.append(rep.full_to_ladder_ratio == (2 * n) / orders)
    rep256 = storage_report(
        EmptyState(kind=Kind.SCALAR, dim=None, ladder=OrderLadder.integer_range(2, 20)),
        hypothetical_n=256, datum_bytes=8, weight_bytes=8,
    )
    checks.append(abs(rep256.full_to_ladder_ratio - 26.947368421052632) < 1e-12)
    _report(9, "storage identity: dataset = 2N x one moment (equal sizes)", all(checks),
            f"S_X/S_ladder at N=256, 19 moments = {rep256.full_to_ladder_ratio:.3f}")
