"""Tests of the benchmark itself: tracer arithmetic, seeded inputs,
output checkers and percentile reporting."""

import copy
import json
import random
import sys
from collections import Counter
from itertools import product

import pytest

import run
import speed
import tracer as tracing
import worker
import workloads as W
from z4dc import code, dual, gray, search
from z4dc.code import code_size, from_spec_dict
from z4dc.errors import NotFree, Z4DCError


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_parent_with_two_children():
    # parent [0, 10] holds child a [1, 3] and child b [4, 7]
    tr = tracing.Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 7.0, 10.0]))
    a = tr.wrap(lambda: None, "a")
    b = tr.wrap(lambda: None, "b")

    def body():
        a()
        b()

    tr.wrap(body, "parent")()
    spans = tr.spans()
    assert spans["parent"] == [1, 10.0, 5.0]
    assert spans["a"] == [1, 2.0, 2.0]
    assert spans["b"] == [1, 3.0, 3.0]


def test_self_time_counts_only_direct_children():
    records = [("p", 0.0, 10.0, -1), ("c", 1.0, 9.0, 0), ("g", 2.0, 6.0, 1)]
    spans = tracing.aggregate(records)
    assert spans["p"][2] == 2.0
    assert spans["c"][2] == 4.0
    assert spans["g"][2] == 4.0


def test_raised_span_is_closed_and_counted():
    tr = tracing.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap(boom, "boom")()
    assert tr.spans()["boom"][0] == 1
    assert tr.counts["boom.raised"] == 1
    assert tr.parent_name() is None


def _z4dc_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "z4dc" or name.startswith("z4dc."))]


def test_install_patches_every_binding_site_and_uninstall_restores():
    originals = [code.validate, code.generator_matrix, code.canonicalize_ideal,
                 search.lee_enumerator, dual.dual_free]
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        for mod in _z4dc_modules():
            for attr, value in vars(mod).items():
                assert not any(value is f for f in originals), \
                    f"{mod.__name__}.{attr} still unwrapped"
        assert search.validate is code.validate
        assert dual.generator_matrix is code.generator_matrix
    finally:
        tr.uninstall()
    assert code.validate is originals[0] and search.validate is originals[0]
    assert dual.canonicalize_ideal is originals[2]


def test_traced_search_counts_match_its_report():
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        rep = search.search(1, 7, forms=("ii",))
    finally:
        tr.uninstall()
    layers = tracing.layer_metrics(tr, rep.candidates_evaluated,
                                   rep.candidates_skipped)
    assert layers["search.candidates"] == len(list(
        search.iter_candidates(1, 7, forms=("ii",))))
    assert layers["search.reenumerations"] == len(rep.results)
    assert layers["gray.lee_enumerator.calls"] == \
        rep.candidates_evaluated + len(rep.results)
    assert layers["code.validate.calls"] == \
        layers["search.candidates"] + len(rep.results)
    assert layers["search.valid"] == layers["search.candidates"] - \
        layers["code.validate.rejected"]
    assert layers["code.enum.words"] > 0


def test_traced_dual_op_never_enumerates():
    spec, _ = _first_dual_output()
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        W.WORKLOADS["dual-population"].op(spec)
    finally:
        tr.uninstall()
    layers = tracing.layer_metrics(tr, 0, 0)
    assert layers["code.enum.words"] == 0
    assert layers["dual.dual_free.calls"] == 1
    assert layers["code.validate.calls"] >= 1


# -- seeded inputs --------------------------------------------------------


def test_dual_population_is_fixed_by_the_seed():
    a, b = W.dual_population(606), W.dual_population(606)
    assert a == b
    assert len(a) == 8112
    assert W.dual_population(607) != a


def test_wide_population_is_fixed_by_the_seed_and_valid():
    wf = W.WideFactors()
    a, b = W.wide_population(5, wf), W.wide_population(5, W.WideFactors())
    assert a == b
    assert W.wide_population(6, wf) != a
    assert Counter(k for _, k in a) == Counter(W.WIDE_BITS)
    assert len({json.dumps(spec, sort_keys=True) for spec, _ in a}) == len(a)
    mixed = W.wide_population(1, wf) + W.wide_population(2, wf)
    assert any("l" in spec for spec, _ in mixed)
    assert any(spec["f2"] != spec["g2"] for spec, _ in a)
    for spec, k in a:
        c = from_spec_dict(spec)
        assert c.r + c.s == 66
        assert code_size(c) == 2 ** k


def test_wide_seeds_run_other_codes_of_the_same_shapes():
    wf = W.WideFactors()

    def shapes(pop):
        return Counter((k, str(spec.get("f1")), str(spec.get("g1")),
                        len(spec["f2"]), len(spec["g2"]), str(spec.get("l")))
                       for spec, k in pop)

    a, b = W.wide_population(1, wf), W.wide_population(2, wf)
    assert shapes(a) == shapes(b)
    assert sorted(map(str, a)) != sorted(map(str, b))


def test_rejections_are_predicted_by_the_benchmark():
    for spec in W.dual_population(606)[::4]:
        try:
            from_spec_dict(spec)
            got = None
        except Z4DCError as exc:
            got = type(exc).__name__
        assert got == W.expected_rejection(spec), spec


# -- output checkers --------------------------------------------------------


def _image_witness(rows):
    """Two Gray images of generator rows whose XOR is not in the image,
    found with the benchmark's own membership test."""
    basis = W.z4_echelon(rows)
    words = [[a * x % 4 for x in row] for row in rows for a in (1, 3)]
    for u in words:
        for v in words:
            gu, gv = gray.gray_map(u), gray.gray_map(v)
            if not W.in_span(basis, W.gray_inverse([a ^ b for a, b in zip(gu, gv)])):
                return [list(gu), list(gv)]
    raise AssertionError("no witness among the generator rows")


def _ref2_output():
    rows = [list(r) for r in code.generator_matrix(
        from_spec_dict(W.REF2_SPEC)).rows]
    return {"rc": 0, "size": 2 ** 24, "min_lee_distance": 12,
            "generator_matrix": rows,
            "lee_enumerator": {str(w): n for w, n in W.REF2_COUNTS.items()},
            "gray": {"n": 48, "M": 2 ** 24, "d": 12, "linear_image": False,
                     "witness": _image_witness(rows)}}


def test_ref2_checker_rejects_a_changed_count_or_witness():
    good = _ref2_output()
    assert W._ref2_check(None, good) is None
    bad = copy.deepcopy(good)
    bad["lee_enumerator"]["14"] += 1
    assert W._ref2_check(None, bad) is not None
    bad = copy.deepcopy(good)
    bad["gray"]["linear_image"] = None
    bad["gray"]["witness"] = None
    assert W._ref2_check(None, bad) is not None
    # 0 and the image of the all-2 word: both in the image, and so is their XOR
    bad = copy.deepcopy(good)
    bad["gray"]["witness"] = [[0] * 48, [1] * 48]
    assert "XOR" in W._ref2_check(None, bad)
    bad = copy.deepcopy(good)
    bad["gray"]["witness"][0][0] ^= 1
    assert W._ref2_check(None, bad) is not None


def test_echelon_span_matches_a_brute_force_span():
    rng = random.Random(3)
    for _ in range(30):
        rows = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(5)]
                for _ in range(rng.randint(1, 4))]
        span = {(0,) * 5}
        for row in rows:
            span = {tuple((x + a * y) % 4 for x, y in zip(w, row))
                    for w in span for a in range(4)}
        basis = W.z4_echelon(rows)
        assert W.span_size(basis) == len(span)
        assert W.span_lee_histogram(rows) == dict(Counter(
            sum(min(x, 4 - x) for x in w) for w in span))
        for word in product(range(4), repeat=5):
            assert W.in_span(basis, word) == (word in span)


def test_search_checker_rejects_a_missing_target():
    good = {"rc": 0, "results": [{"n": 32, "M": 1024, "d": 12},
                                 {"n": 32, "M": 4096, "d": 8}]}
    assert W._search_check(None, good) is None
    bad = copy.deepcopy(good)
    bad["results"][0]["d"] = 10
    assert W._search_check(None, bad) is not None


def _first_dual_output():
    wl = W.WORKLOADS["dual-population"]
    for spec in W.dual_population(606):
        data = wl.extract(spec, wl.op(spec))
        if not data["rejected"] and data["G"] and data["H"]:
            return spec, data
    raise AssertionError("no code with a nonzero dual in the population")


def test_dual_checker_rejects_a_tampered_dual():
    check = W.WORKLOADS["dual-population"].check
    spec, data = _first_dual_output()
    assert check(spec, data) is None
    bad = copy.deepcopy(data)
    bad["dual_size"] *= 4
    assert check(spec, bad) is not None
    bad = copy.deepcopy(data)
    col = next(j for row in bad["G"] for j, x in enumerate(row) if x % 2)
    bad["H"][0][col] = (bad["H"][0][col] + 1) % 4
    assert check(spec, bad) is not None


def test_dual_rejections_come_only_from_validation(monkeypatch):
    wl = W.WORKLOADS["dual-population"]
    pop = W.dual_population(606)
    rejected = next(s for s in pop if W.expected_rejection(s))
    valid = next(s for s in pop if not W.expected_rejection(s) and s["l"])
    out = worker._run(wl, [rejected, valid], traced=False)
    assert out["failed"] == 0 and out["kept"] == [False, True]
    assert out["rejected"] == {W.expected_rejection(rejected): 1}

    def not_free(*args, **kwargs):
        raise NotFree("refused")

    monkeypatch.setattr(dual, "dual_report", not_free)
    out = worker._run(wl, [rejected, valid], traced=False)
    assert out["failed"] == 1 and out["rejected"] == {W.expected_rejection(rejected): 1}


def test_dual_checker_rejects_an_accepted_invalid_spec():
    check = W.WORKLOADS["dual-population"].check
    spec, data = _first_dual_output()
    invalid = next(s for s in W.dual_population(606) if W.expected_rejection(s))
    assert check(invalid, data) is not None
    assert check(spec, {"rejected": "MixingConstraintViolation"}) is not None


def test_wide_checker_rejects_a_changed_count_or_witness():
    wl = W.WORKLOADS["analyze-wide"]
    spec, k = next((s, k) for s, k in W.wide_population(1, W.WideFactors())
                   if k == 17)
    inp = {"spec": spec, "bits": k}
    data = wl.extract(inp, wl.op(inp))
    assert wl.check(inp, data) is None
    w = next(w for w in data["lee_enumerator"] if w != "0")
    moved = copy.deepcopy(data)
    moved["lee_enumerator"][w] -= 1
    moved["lee_enumerator"]["1000"] = 1  # keeps the total at |C|
    assert wl.check(inp, moved) is not None
    bogus = copy.deepcopy(data)
    bogus["gray"]["linear_image"] = False
    bogus["gray"]["witness"] = [[0] * 132, [0] * 132]
    assert wl.check(inp, bogus) is not None


def test_span_histogram_counts_the_kerdock_code():
    c = from_spec_dict({"r": 1, "s": 7, "l": "1", "f2": "x^3+2x^2+x+3",
                        "g2": "x^3+2x^2+x+3"})
    rows = [list(r) for r in code.generator_matrix(c).rows]
    assert W.span_lee_histogram(rows) == {0: 1, 6: 112, 8: 30, 10: 112, 16: 1}


# -- reporting ----------------------------------------------------------------


@pytest.mark.parametrize("n, q, label", [
    (8112, 0.99, "p99 of 8112 ops"),
    (205, 0.99, "p95 of 205 ops"),
    (205, 0.50, "p50 of 205 ops"),
    (2, 0.99, "median of 2 ops"),
])
def test_percentile_keeps_ten_samples_beyond(n, q, label):
    values = [float(i) for i in range(n)]
    value, what = run.percentile(values, q)
    assert what.startswith(label)
    if not what.startswith("median"):
        assert sum(v > value for v in values) >= run.MIN_BEYOND


def test_scale_uses_the_mean_of_the_probes_around_each_chunk():
    ref = speed.PROBE_REF_S
    times = [1.0, 2.0, 3.0]
    probes = [(0, ref), (2, 3 * ref), (3, 2 * ref)]
    # ops 0-1 between probes of ref and 3 ref (mean 2 ref): halved;
    # op 2 between 3 ref and 2 ref (mean 2.5 ref): times 0.4
    assert speed.scale(times, probes) == pytest.approx([0.5, 1.0, 1.2])
    assert speed.scale(times, [(0, ref), (3, ref)]) == pytest.approx(times)
    with pytest.raises(ValueError):
        speed.scale(times, [(0, ref), (2, ref)])


def test_scaled_run_brackets_every_op_with_probes(monkeypatch):
    wl = W.WORKLOADS["dual-population"]
    assert wl.scaled and not any(
        w.scaled for w in W.WORKLOADS.values() if w is not wl)
    taken = []

    def fake_probe():
        taken.append(2 * speed.PROBE_REF_S)
        return taken[-1]

    monkeypatch.setattr(speed, "probe", fake_probe)
    monkeypatch.setattr(speed, "CHUNK_S", 0.0)  # a probe after every op
    pop = W.dual_population(606)[:6]
    out = worker._run(wl, pop, traced=False)
    assert len(taken) == len(pop) + 1 and out["failed"] == 0
    assert out["wall_s"] == pytest.approx(out["wall_raw_s"] / 2)
    assert out["probe_ms"] == pytest.approx(2e3 * speed.PROBE_REF_S)


def test_probe_is_positive_and_short():
    assert 0.0 < speed.probe() < 0.05


def test_span_cost_is_small_and_positive():
    assert 0.0 <= tracing.span_cost(calls=2000) < 1e-4


def test_moves_map_names_only_benchmark_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for entry in run.MOVES.values():
        assert set(entry) <= workloads
        assert all(set(ms) <= e2e for ms in entry.values())
    layer_names = {m["name"] for m in spec["per_layer"]}
    produced = set(tracing.layer_metrics(tracing.Tracer(), 0, 0))
    assert produced | {"trace.overhead"} == layer_names
