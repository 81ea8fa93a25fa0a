import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipergm import (
    AttributeTable,
    Attributes,
    ModelSpec,
    ModelTerm,
    bind,
    from_edge_list,
    mdsp_spectrum,
    mesp_spectrum,
    recompose_from_spectrum,
)
from bipergm.graph import ColumnTypeError
from bipergm.oracle import ExactModel

import reference as ref
from conftest import (
    DESIGN_CASES,
    FIG2_EDGES,
    categories_dict,
    design_case,
    every_term_kind,
    make_attrs1,
    random_attrs,
    random_net,
)

SQRT2 = math.sqrt(2.0)


def term(kind, **kw):
    return ModelTerm(kind=kind, **kw)


def spec_of(*terms):
    return ModelSpec(tuple(terms))


# ---------------------------------------------------------------------------
# worked example values
# ---------------------------------------------------------------------------


class TestWorkedExample:
    @pytest.mark.parametrize(
        "alpha,value", [(1.0, 4.0), (0.0, 3.0), (0.5, 2.0 + SQRT2)]
    )
    def test_alpha_statistics(self, fig2_net, fig2_attrs, alpha, value):
        spec = spec_of(term("b1nodematch", attribute="group", alpha=alpha))
        got = bind(spec, fig2_net, fig2_attrs).stats(fig2_net)[0]
        assert got == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize(
        "beta,value", [(0.0, 2.5), (0.5, (2.0 + 3.0 * SQRT2) / 2.0), (1.0, 4.0)]
    )
    def test_beta_statistics(self, fig2_net, fig2_attrs, beta, value):
        spec = spec_of(term("b1nodematch", attribute="group", beta=beta))
        got = bind(spec, fig2_net, fig2_attrs).stats(fig2_net)[0]
        assert got == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_alpha_change_statistic(self, fig2_net, fig2_attrs, alpha):
        fig2_net.toggle(1, 4)  # remove the focal edge
        spec = spec_of(term("b1nodematch", attribute="group", alpha=alpha))
        delta = bind(spec, fig2_net, fig2_attrs).delta(fig2_net, 1, 4)
        assert delta[0] == pytest.approx(2.0**alpha, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_beta_change_statistic(self, fig2_net, fig2_attrs, beta):
        fig2_net.toggle(1, 4)
        spec = spec_of(term("b1nodematch", attribute="group", beta=beta))
        delta = bind(spec, fig2_net, fig2_attrs).delta(fig2_net, 1, 4)
        assert delta[0] == pytest.approx((3.0 * 2.0**beta - 2.0) / 2.0, abs=1e-12)

    def test_edges_change_is_one(self, fig2_net, fig2_attrs):
        spec = spec_of(term("edges"))
        for i in (1, 2, 3):
            for k in (4, 5):
                assert bind(spec, fig2_net, fig2_attrs).delta(fig2_net, i, k)[0] == 1.0

    def test_mdsp_and_mesp(self, fig2_net, fig2_attrs):
        assert mdsp_spectrum(fig2_net, fig2_attrs, "group").counts == {1: 2, 2: 1}
        assert mesp_spectrum(fig2_net, fig2_attrs, "group").counts == {1: 2, 2: 3}


# ---------------------------------------------------------------------------
# statistics against brute force
# ---------------------------------------------------------------------------


def _stat_case(seed, n1max=7, n2max=7):
    rng = np.random.default_rng(seed)
    n1 = int(rng.integers(2, n1max + 1))
    n2 = int(rng.integers(2, n2max + 1))
    net = random_net(rng, n1, n2, density=float(rng.uniform(0.15, 0.7)))
    attrs = random_attrs(rng, n1, n2, levels=("a", "b", "c"))
    return net, attrs


@pytest.mark.parametrize("seed", range(25))
def test_nodematch_matches_brute_force(seed):
    net, attrs = _stat_case(seed)
    edges = ref.edge_set(net)
    cats1 = categories_dict(attrs, 1, "group", net.n1)
    cats2 = categories_dict(attrs, 2, "kind", net.n1)
    rng = np.random.default_rng(seed + 10_000)
    for expo in rng.uniform(0.0, 1.0, size=2).tolist() + [0.0, 1.0]:
        a1 = bind(
            spec_of(term("b1nodematch", attribute="group", alpha=expo)), net, attrs
        ).stats(net)[0]
        assert a1 == pytest.approx(
            ref.nodematch_alpha(net.n1, net.n2, edges, cats1, expo), abs=1e-10
        )
        b1 = bind(
            spec_of(term("b1nodematch", attribute="group", beta=expo)), net, attrs
        ).stats(net)[0]
        assert b1 == pytest.approx(
            ref.nodematch_beta(net.n1, net.n2, edges, cats1, expo), abs=1e-10
        )
        a2 = bind(
            spec_of(term("b2nodematch", attribute="kind", alpha=expo)), net, attrs
        ).stats(net)[0]
        assert a2 == pytest.approx(
            ref.nodematch_alpha_mode2(net.n1, net.n2, edges, cats2, expo), abs=1e-10
        )
        b2 = bind(
            spec_of(term("b2nodematch", attribute="kind", beta=expo)), net, attrs
        ).stats(net)[0]
        assert b2 == pytest.approx(
            ref.nodematch_beta_mode2(net.n1, net.n2, edges, cats2, expo), abs=1e-10
        )
        # per-level (diff) components against the reference restricted to a level
        for mode, column, cats, refs in (
            (1, "group", cats1, (ref.nodematch_alpha, ref.nodematch_beta)),
            (2, "kind", cats2, (ref.nodematch_alpha_mode2, ref.nodematch_beta_mode2)),
        ):
            levels = attrs.table_for(mode).categorical(column).levels
            for which, reference in zip(("alpha", "beta"), refs):
                diff_term = term(f"b{mode}nodematch", attribute=column, diff=True, **{which: expo})
                per_level = bind(spec_of(diff_term), net, attrs).stats(net)
                expected = [
                    reference(net.n1, net.n2, edges, cats, expo, level=lev) for lev in levels
                ]
                assert per_level.tolist() == pytest.approx(expected, abs=1e-10)
        # keep_levels against the reference restricted to the kept levels
        keep = attrs.table_for(1).categorical("group").levels[:-1]
        for which, reference in (("alpha", ref.nodematch_alpha), ("beta", ref.nodematch_beta)):
            kept_term = term("b1nodematch", attribute="group", keep_levels=keep, **{which: expo})
            kept = bind(spec_of(kept_term), net, attrs).stats(net)[0]
            assert kept == pytest.approx(
                reference(net.n1, net.n2, edges, cats1, expo, keep=set(keep)), abs=1e-10
            )


@pytest.mark.parametrize("seed", range(10))
def test_auxiliary_terms_match_brute_force(seed):
    net, attrs = _stat_case(seed)
    edges = ref.edge_set(net)
    spec = spec_of(
        term("edges"),
        term("b1cov", attribute="x"),
        term("b2cov", attribute="z"),
        term("b2star2"),
        term("b2degree1"),
        term("b2sociality"),
    )
    model = bind(spec, net, attrs)
    values = model.stats(net)
    names = model.names
    x = attrs.mode1.numeric("x").values
    z = attrs.mode2.numeric("z").values
    assert values[0] == len(edges)
    assert values[1] == pytest.approx(sum(x[i - 1] for i, _ in edges), abs=1e-10)
    assert values[2] == pytest.approx(
        sum(z[k - net.n1 - 1] for _, k in edges), abs=1e-10
    )
    assert values[3] == ref.star2(net.n1, net.n2, edges)
    assert values[4] == ref.degree1(net.n1, net.n2, edges)
    for off in range(net.n2):
        node = net.n1 + 1 + off
        assert names[5 + off] == f"b2sociality.{node}"
        assert values[5 + off] == net.mask[node].bit_count()


def test_factor_drops_first_sorted_level():
    net = from_edge_list(3, 2, FIG2_EDGES)
    attrs = make_attrs1(["Male", "Female", "Male"], name="gender")
    spec = spec_of(term("b1factor", attribute="gender"))
    model = bind(spec, net, attrs)
    assert model.names == ["b1factor.gender.Male"]
    # edges with a Male endpoint: (1,4), (1,5), (3,4)
    assert model.stats(net)[0] == 3.0


def test_factor_needs_two_levels(fig2_net, fig2_attrs):
    spec = spec_of(term("b1factor", attribute="group"))
    with pytest.raises(ValueError, match="two levels"):
        bind(spec, fig2_net, fig2_attrs).stats(fig2_net)


def test_nodematch_diff_names_follow_convention():
    net = from_edge_list(2, 2, [(1, 3), (2, 4)])
    t2 = AttributeTable(2, 2)
    t2.add_categorical("gender", ["Female", "Male"])
    attrs = Attributes(mode2=t2)
    spec = spec_of(term("b2nodematch", attribute="gender", beta=0.1, diff=True))
    assert bind(spec, net, attrs).names == [
        "b2nodematch.gender.Female",
        "b2nodematch.gender.Male",
    ]


def test_duplicate_nodematch_terms_get_exponent_tags(fig2_net, fig2_attrs):
    spec = spec_of(
        term("b1nodematch", attribute="group", alpha=0.0),
        term("b1nodematch", attribute="group", alpha=0.5),
        term("b1nodematch", attribute="group", alpha=1.0),
    )
    model = bind(spec, fig2_net, fig2_attrs)
    assert model.names == [
        "b1nodematch.group.alpha0",
        "b1nodematch.group.alpha0.5",
        "b1nodematch.group.alpha1",
    ]
    values = model.stats(fig2_net)
    assert values.tolist() == pytest.approx([3.0, 2.0 + SQRT2, 4.0], abs=1e-12)


def test_exponent_tags_tell_close_exponents_apart(fig2_net, fig2_attrs):
    # `:g` writes both exponents as 0.123457; the tag is the formula's spelling
    spec = spec_of(
        term("b1nodematch", attribute="group", beta=0.1234567),
        term("b1nodematch", attribute="group", beta=0.1234568),
        term("b1nodematch", attribute="group", beta=0.25),
    )
    assert bind(spec, fig2_net, fig2_attrs).names == [
        "b1nodematch.group.beta0.1234567",
        "b1nodematch.group.beta0.1234568",
        "b1nodematch.group.beta0.25",
    ]


def test_a_name_that_still_repeats_gets_a_positional_suffix(fig2_net):
    attrs = make_attrs1(["a", "b", "c"])
    spec = spec_of(term("edges"), term("edges"), term("edges"))
    assert bind(spec, fig2_net, attrs).names == ["edges", "edges.2", "edges.3"]
    # the same exponent with other keep sets: the exponent tag alone repeats
    spec = spec_of(
        term("b1nodematch", attribute="group", alpha=0.5, keep_levels=("a", "b")),
        term("b1nodematch", attribute="group", alpha=0.5, keep_levels=("b", "c")),
    )
    assert bind(spec, fig2_net, attrs).names == [
        "b1nodematch.group.alpha0.5",
        "b1nodematch.group.alpha0.5.2",
    ]


def test_a_suffix_that_meets_another_name_is_refused(fig2_net):
    # the second term's "b" level becomes "b1factor.group.b.2", a name the
    # level "b.2" already holds
    attrs = make_attrs1(["a", "b", "b.2"])
    spec = spec_of(term("b1factor", attribute="group"), term("b1factor", attribute="group"))
    with pytest.raises(ValueError, match=r"duplicate statistic names in model: \['b1factor.group.b.2'\]"):
        bind(spec, fig2_net, attrs)


# ---------------------------------------------------------------------------
# exact change statistics
# ---------------------------------------------------------------------------


def _random_spec(rng, attrs) -> ModelSpec:
    levels1 = attrs.mode1.categorical("group").levels
    pool = [
        term("edges"),
        term("b1cov", attribute="x"),
        term("b2cov", attribute="z"),
        term("b1factor", attribute="group"),
        term("b2factor", attribute="kind"),
        term("b2star2"),
        term("b2degree1"),
        term("b2sociality"),
        term("b1nodematch", attribute="group", alpha=float(rng.uniform(0, 1))),
        term("b1nodematch", attribute="group", beta=float(rng.uniform(0, 1))),
        term("b2nodematch", attribute="kind", alpha=float(rng.uniform(0, 1))),
        term("b2nodematch", attribute="kind", beta=float(rng.uniform(0, 1))),
        term("b1nodematch", attribute="group", alpha=0.0, diff=True),
        term("b1nodematch", attribute="group", beta=0.0, diff=True),
        term("b2nodematch", attribute="kind", beta=float(rng.uniform(0, 1)), diff=True),
        term("b1nodematch", attribute="group", alpha=1.0, keep_levels=levels1[:2]),
        term(
            "b1nodematch",
            attribute="group",
            beta=0.5,
            diff=True,
            keep_levels=levels1[:1],
        ),
    ]
    picks = rng.choice(len(pool), size=int(rng.integers(1, 5)), replace=False)
    return ModelSpec(tuple(pool[p] for p in sorted(picks)))


@pytest.mark.parametrize("seed", range(40))
def test_change_stats_equal_full_difference(seed):
    rng = np.random.default_rng(seed)
    net, attrs = _stat_case(seed, n1max=8, n2max=8)
    spec = _random_spec(rng, attrs)
    model = bind(spec, net, attrs)
    for _ in range(6):
        i = int(rng.integers(1, net.n1 + 1))
        k = int(rng.integers(net.n1 + 1, net.n + 1))
        delta = model.delta(net, i, k)
        present = net.has_edge(i, k)
        plus = net.copy()
        if not present:
            plus.toggle(i, k)
        minus = net.copy()
        if present:
            minus.toggle(i, k)
        full_diff = model.stats(plus) - model.stats(minus)
        assert np.max(np.abs(delta - full_diff)) <= 1e-10


def test_beta_zero_change_values(fig2_net, fig2_attrs):
    """At beta = 0 the exact change statistic is 0 (no matching co-edge),
    1 (exactly one: both the toggled edge and its partner flip into a
    matching two-star), or 1/2 (two or more)."""
    spec = spec_of(term("b1nodematch", attribute="group", beta=0.0))
    model = bind(spec, fig2_net, fig2_attrs)
    for i in (1, 2, 3):
        for k in (4, 5):
            u = sum(1 for j in fig2_net.neighbors(k) if j != i)
            delta = float(model.delta(fig2_net, i, k)[0])
            expected = {0: 0.0, 1: 1.0}.get(u, 0.5)
            assert delta == expected


def test_alpha_zero_counts_connected_matching_pairs():
    for seed in range(8):
        net, attrs = _stat_case(seed)
        edges = ref.edge_set(net)
        cats = categories_dict(attrs, 1, "group", net.n1)
        spec = spec_of(term("b1nodematch", attribute="group", alpha=0.0))
        assert bind(spec, net, attrs).stats(net)[0] == ref.pairs_with_two_path(
            net.n1, net.n2, edges, cats
        )


def test_zero_power_zero_is_zero():
    # a matching pair with no shared partner contributes exactly 0 at alpha=0
    net = from_edge_list(2, 2, [(1, 3), (2, 4)])
    attrs = make_attrs1(["a", "a"])
    spec = spec_of(term("b1nodematch", attribute="group", alpha=0.0))
    assert bind(spec, net, attrs).stats(net)[0] == 0.0


@pytest.mark.parametrize("seed", range(8))
def test_linear_end_coincidence(seed):
    net, attrs = _stat_case(seed)
    edges = ref.edge_set(net)
    cats = categories_dict(attrs, 1, "group", net.n1)
    stars = ref.matching_two_stars(net.n1, net.n2, edges, cats)
    a = bind(spec_of(term("b1nodematch", attribute="group", alpha=1.0)), net, attrs).stats(net)[0]
    b = bind(spec_of(term("b1nodematch", attribute="group", beta=1.0)), net, attrs).stats(net)[0]
    assert a == float(stars)
    assert b == float(stars)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("which", ["alpha", "beta"])
def test_differential_decomposition(seed, which):
    net, attrs = _stat_case(seed)
    levels = attrs.mode1.categorical("group").levels
    uniform = bind(
        spec_of(term("b1nodematch", attribute="group", **{which: 0.3})), net, attrs
    ).stats(net)[0]
    diff = bind(
        spec_of(term("b1nodematch", attribute="group", **{which: 0.3}, diff=True)),
        net,
        attrs,
    ).stats(net)
    assert diff.size == len(levels)
    assert diff.sum() == pytest.approx(uniform, abs=1e-10)


def test_keep_levels_restrict_matching(fig2_net):
    attrs = make_attrs1(["a", "a", "b"])
    full = bind(
        spec_of(term("b1nodematch", attribute="group", alpha=1.0)), fig2_net, attrs
    ).stats(fig2_net)[0]
    kept = bind(
        spec_of(term("b1nodematch", attribute="group", alpha=1.0, keep_levels=("a",))),
        fig2_net,
        attrs,
    ).stats(fig2_net)[0]
    only_b = bind(
        spec_of(term("b1nodematch", attribute="group", alpha=1.0, keep_levels=("b",))),
        fig2_net,
        attrs,
    ).stats(fig2_net)[0]
    assert kept + only_b == pytest.approx(full, abs=1e-12)
    assert only_b == 0.0  # node 3 is the sole "b"


def _relabelled(attrs, n1, n2):
    """The same partition under level names whose sort order is reversed."""
    rename = {"a": "c", "b": "b", "c": "a"}
    tables = []
    for mode, column, size in ((1, "group", n1), (2, "kind", n2)):
        col = attrs.table_for(mode).categorical(column)
        table = AttributeTable(mode, size)
        table.add_categorical(column, [rename[col.level_of(off)] for off in range(size)])
        tables.append(table)
    return Attributes(mode1=tables[0], mode2=tables[1])


def test_nodematch_is_level_label_invariant():
    for seed in range(20):
        rng = np.random.default_rng([seed, 76])
        net = random_net(rng, 7, 6, density=float(rng.uniform(0.15, 0.7)))
        attrs = random_attrs(rng, 7, 6, levels=("a", "b", "c"))
        renamed = _relabelled(attrs, 7, 6)
        for which in ("alpha", "beta"):
            for exponent in (0.0, 0.5, 1.0):
                spec = spec_of(
                    term("b1nodematch", attribute="group", **{which: exponent}),
                    term("b2nodematch", attribute="kind", **{which: exponent}),
                )
                model, other = bind(spec, net, attrs), bind(spec, net, renamed)
                assert model.stats(net).tobytes() == other.stats(net).tobytes()
                ours, theirs = np.empty(2), np.empty(2)
                for i in range(1, net.n1 + 1):
                    for k in range(net.n1 + 1, net.n + 1):
                        model.delta_into(net, i, k, ours)
                        other.delta_into(net, i, k, theirs)
                        assert ours.tobytes() == theirs.tobytes(), (seed, which, exponent, i, k)


# ---------------------------------------------------------------------------
# spectra and recomposition
# ---------------------------------------------------------------------------


def test_spectra_empty_when_no_matches():
    net = from_edge_list(3, 2, FIG2_EDGES)
    attrs = make_attrs1(["a", "b", "c"])
    assert mdsp_spectrum(net, attrs, "group").counts == {}
    assert mesp_spectrum(net, attrs, "group").counts == {}


def test_recompose_examples(fig2_net, fig2_attrs):
    mdsp = mdsp_spectrum(fig2_net, fig2_attrs, "group")
    assert recompose_from_spectrum(mdsp, 0.5) == pytest.approx(2.0 + SQRT2, abs=1e-12)
    mesp = mesp_spectrum(fig2_net, fig2_attrs, "group")
    assert recompose_from_spectrum(mesp, 1.0) == pytest.approx(4.0, abs=1e-12)
    empty = mdsp_spectrum(from_edge_list(2, 2, []), make_attrs1(["a", "a"]), "group")
    assert recompose_from_spectrum(empty, 0.7) == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_recomposition_identity_on_grid(seed):
    net, attrs = _stat_case(seed)
    mdsp = mdsp_spectrum(net, attrs, "group")
    mesp = mesp_spectrum(net, attrs, "group")
    for g in range(11):
        expo = g / 10.0
        alpha_stat = bind(
            spec_of(term("b1nodematch", attribute="group", alpha=expo)), net, attrs
        ).stats(net)[0]
        beta_stat = bind(
            spec_of(term("b1nodematch", attribute="group", beta=expo)), net, attrs
        ).stats(net)[0]
        assert recompose_from_spectrum(mdsp, expo) == alpha_stat
        assert recompose_from_spectrum(mesp, expo) == beta_stat


# The statistics are read from `_Nodematch.spectrum`, so recomposition
# agrees with them by construction; the spectra themselves are checked
# against brute-force counts over edge sets and category dicts.


@pytest.mark.parametrize("seed", range(25))
def test_spectra_match_brute_force(seed):
    net, attrs = _stat_case(seed)
    edges = ref.edge_set(net)
    for mode, column in ((1, "group"), (2, "kind")):
        cats = categories_dict(attrs, mode, column, net.n1)
        levels = attrs.table_for(mode).categorical(column).levels
        keep = levels[:-1]
        for which, reference in (("alpha", ref.mdsp), ("beta", ref.mesp)):
            for options, expected in (
                ({}, [reference(net.n1, net.n2, edges, cats, mode)]),
                ({"diff": True},
                 [reference(net.n1, net.n2, edges, cats, mode, level=lev) for lev in levels]),
                ({"keep_levels": keep},
                 [reference(net.n1, net.n2, edges, cats, mode, keep=set(keep))]),
            ):
                nodematch = term(f"b{mode}nodematch", attribute=column, **options, **{which: 0.5})
                got = bind(spec_of(nodematch), net, attrs).evaluators[0].spectrum(net)
                assert [dict(slot) for slot in got] == expected, (mode, which, options)
    cats1 = categories_dict(attrs, 1, "group", net.n1)
    assert mdsp_spectrum(net, attrs, "group").counts == ref.mdsp(net.n1, net.n2, edges, cats1)
    assert mesp_spectrum(net, attrs, "group").counts == ref.mesp(net.n1, net.n2, edges, cats1)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_exponent_conflict(self):
        with pytest.raises(ValueError, match="conflict"):
            term("b1nodematch", attribute="g", alpha=0.5, beta=0.5)

    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_exponent_range(self, value):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            term("b1nodematch", attribute="g", alpha=value)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown term kind"):
            term("b3nodematch", attribute="g")

    def test_unknown_attribute(self, fig2_net, fig2_attrs):
        spec = spec_of(term("b1nodematch", attribute="nope", alpha=0.5))
        with pytest.raises(KeyError, match="nope"):
            bind(spec, fig2_net, fig2_attrs).stats(fig2_net)

    def test_type_mismatch(self, fig2_net):
        attrs = make_attrs1(["a", "a", "a"], numeric=("x", [1.0, 2.0, 3.0]))
        with pytest.raises(ColumnTypeError):
            spec = spec_of(term("b1nodematch", attribute="x", alpha=0.5))
            bind(spec, fig2_net, attrs).stats(fig2_net)
        with pytest.raises(ColumnTypeError):
            bind(spec_of(term("b1cov", attribute="group")), fig2_net, attrs).stats(fig2_net)

    def test_unbound_exponent_rejected_at_eval(self, fig2_net, fig2_attrs):
        spec = spec_of(term("b1nodematch", attribute="group"))
        with pytest.raises(ValueError, match="no exponent"):
            bind(spec, fig2_net, fig2_attrs).stats(fig2_net)

    def test_bind_exponent(self, fig2_net, fig2_attrs):
        spec = spec_of(term("edges"), term("b1nodematch", attribute="group"))
        assert spec.unbound_index() == 1
        bound = spec.bind_exponent("alpha", 0.5)
        assert bound.terms[1].alpha == 0.5
        assert bind(bound, fig2_net, fig2_attrs).stats(fig2_net)[1] == pytest.approx(2 + SQRT2)
        with pytest.raises(ValueError, match="exponent kind must be 'alpha' or 'beta'"):
            spec.bind_exponent("gamma", 0.5)
        with pytest.raises(ValueError, match="no nodematch term with an unbound exponent"):
            bound.bind_exponent("alpha", 0.5)
        twice = spec_of(term("b1nodematch", attribute="group"), term("b1nodematch", attribute="g"))
        with pytest.raises(ValueError, match="more than one nodematch term without an exponent"):
            twice.bind_exponent("beta", 0.5)

    def test_missing_attribute_table(self, fig2_net):
        spec = spec_of(term("b2cov", attribute="z"))
        with pytest.raises(KeyError, match="mode 2"):
            bind(spec, fig2_net, Attributes()).stats(fig2_net)

    def test_unknown_keep_level(self, fig2_net, fig2_attrs):
        spec = spec_of(
            term("b1nodematch", attribute="group", alpha=0.5, keep_levels=("zzz",))
        )
        with pytest.raises(KeyError, match="zzz"):
            bind(spec, fig2_net, fig2_attrs).stats(fig2_net)

    @pytest.mark.parametrize("diff", [False, True])
    def test_empty_keep_levels(self, diff):
        # an empty keep set leaves the term no statistic (with diff) or a
        # constant 0.0, and format_spec cannot write it in a form parse reads
        with pytest.raises(ValueError, match="keep_levels is empty"):
            term("b1nodematch", attribute="g", alpha=0.5, diff=diff, keep_levels=())

    @pytest.mark.parametrize(
        "kw",
        [
            {"kind": "b1cov", "attribute": "a\"b'c"},
            {"kind": "b2nodematch", "attribute": "g", "beta": 0.5, "keep_levels": ("y", "x\"y'z")},
        ],
        ids=["attribute", "keep-level"],
    )
    def test_a_name_holding_both_quotes_is_refused(self, kw):
        # a formula string has no escapes, so format_spec could not write it
        with pytest.raises(ValueError, match="cannot be written in a formula"):
            ModelTerm(**kw)

    @pytest.mark.parametrize("levels", [("a", "a"), ("a", "a", "b", "b")], ids=["short", "long"])
    def test_an_attribute_table_of_the_wrong_size(self, levels):
        # a table one row short or long was read unchecked: b1nodematch gave
        # 0.0 and the MDSP came out empty for both of these, and b1cov raised
        # a bare IndexError for the short one
        net = from_edge_list(3, 2, [(1, 4), (2, 4), (3, 5)])
        good = make_attrs1(["a", "a", "b"], name="g", numeric=("x", [1.0, 2.0, 3.0]))
        nodematch = spec_of(term("b1nodematch", attribute="g", alpha=1.0))
        assert bind(nodematch, net, good).stats(net)[0] == 1.0
        assert mdsp_spectrum(net, good, "g").counts == {1: 1}
        rows = len(levels)
        bad = make_attrs1(list(levels), name="g", numeric=("x", [1.0] * rows))
        message = f"the mode-1 attribute table has {rows} rows for 3 mode-1 nodes"
        for spec in (nodematch, spec_of(term("b1cov", attribute="x")), spec_of(term("b1factor", attribute="g"))):
            with pytest.raises(ValueError, match=message):
                bind(spec, net, bad)
            with pytest.raises(ValueError, match=message):
                ExactModel(spec, bad, 3, 2)
        for spectrum in (mdsp_spectrum, mesp_spectrum):
            with pytest.raises(ValueError, match=message):
                spectrum(net, bad, "g")
        mode2 = AttributeTable(2, rows - 1)
        mode2.add_numeric("z", [1.0] * (rows - 1))
        with pytest.raises(ValueError, match=f"mode-2 attribute table has {rows - 1} rows for 2 mode-2"):
            bind(spec_of(term("b2cov", attribute="z")), net, Attributes(mode2=mode2))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_change_stats_property(seed):
    rng = np.random.default_rng(seed)
    net, attrs = _stat_case(seed % 2**16, n1max=6, n2max=6)
    spec = _random_spec(rng, attrs)
    model = bind(spec, net, attrs)
    i = int(rng.integers(1, net.n1 + 1))
    k = int(rng.integers(net.n1 + 1, net.n + 1))
    delta = model.delta(net, i, k)
    plus = net.copy()
    if not plus.has_edge(i, k):
        plus.toggle(i, k)
    minus = plus.copy()
    minus.toggle(i, k)
    assert np.max(np.abs(delta - (model.stats(plus) - model.stats(minus)))) <= 1e-10


# ---------------------------------------------------------------------------
# term-layer fingerprints
# ---------------------------------------------------------------------------
#
# sha256 over the statistic names, `stats` and `delta_into` at every dyad,
# for every term kind (nodematch in both modes, plain, per level and with
# kept levels) on each design network.  Recorded before the standard terms
# were folded into three evaluator families, so any change to a statistic's
# bits changes them; re-recorded when `stats` began to add each node's
# pairs times its degree, which moved the b1cov and b2cov sums by at most
# 4.2e-16 relative.  `columns` is left out: BLAS does not fix its
# summation order, and test_dyad_design_equals_per_dyad_change_statistics
# checks it against `delta_into`.


def _term_layer_digest(which, exponent):
    h = hashlib.sha256()
    for shape, fill in DESIGN_CASES:
        net, attrs = design_case(shape, fill)
        model = bind(every_term_kind(attrs, which, exponent), net, attrs)
        h.update(repr(model.names).encode())
        h.update(model.stats(net).tobytes())
        out = np.empty(model.p)
        for i in range(1, net.n1 + 1):
            for k in range(net.n1 + 1, net.n + 1):
                model.delta_into(net, i, k, out)
                h.update(out.tobytes())
    return h.hexdigest()


TERM_LAYER_DIGESTS = {
    ("alpha", 0.0): "8cf38a9a93ccb6814b30351d21f3742f12e9e50fa3db301925be8fdbfa2cdb8a",
    ("alpha", 0.5): "f5a5560e889d18d37b3be2715870277dbbd0cc76b20e8687a70e0c556327f291",
    ("alpha", 1.0): "bf72ec706cebe9482c5dd6d800510b83a4cfb05a7c09334347a2e4535db940bd",
    ("beta", 0.0): "f236a67aa0446ffc92824165b97142d1838c6557d18ab179900bf72a7d822af2",
    ("beta", 0.5): "3735b36e14add11c792fa73b86d94ad0b7062ef29f635c9304f63afa46ef998d",
    ("beta", 1.0): "0981415b99f61034702ad6c2ed278ca9bce597c453100eb77c736383e824fb51",
}


@pytest.mark.parametrize("which,exponent", sorted(TERM_LAYER_DIGESTS))
def test_term_layer_keeps_its_bits(which, exponent):
    assert _term_layer_digest(which, exponent) == TERM_LAYER_DIGESTS[which, exponent]


# Equal networks give equal statistics: `stats` must not read the order in
# which the edges were added, which an edge-list file's line order sets.


@pytest.mark.parametrize("shape,fill", DESIGN_CASES)
def test_stats_do_not_depend_on_edge_order(shape, fill):
    net, attrs = design_case(shape, fill)
    edges = list(net.edges())
    rng = np.random.default_rng([net.n1, net.n2, len(fill)])
    shuffled = [from_edge_list(net.n1, net.n2, [edges[t] for t in rng.permutation(len(edges))])
                for _ in range(10)]
    assert all(other == net for other in shuffled)
    for which, exponent in sorted(TERM_LAYER_DIGESTS):
        model = bind(every_term_kind(attrs, which, exponent), net, attrs)
        expected = model.stats(net).tobytes()
        for other in shuffled:
            assert model.stats(other).tobytes() == expected, (which, exponent)


# Each nodematch term has one change-statistic kernel, which counts with
# the network's neighbour masks; the reference counts the same neighbours
# with set intersections and loops, and takes each node's level and slot
# from the attribute column.  The node-level terms have no kernel:
# `BoundModel.node` holds their pairs, and the reference reads the
# attribute columns.  b2star2 and b2degree1 are the brute-force difference
# of their whole-network counts.  All must give the same bits at every
# dyad after any run of toggles, and the masks must still agree with the
# neighbour sets.  So must what the chain reads: `node[i]`, `node[k]` and
# the pairs of the composed `dependent_change` kernel, for a model with
# ten dyad-dependent terms and for one with none.

BRUTE_FORCE = {"b2star2": ref.star2, "b2degree1": ref.degree1}


def _node_values(attrs, term, n1):
    """Node id -> attribute value of a term's column."""
    mode = 2 if term.kind.startswith("b2") else 1
    if term.kind.endswith(("factor", "nodematch")):
        return categories_dict(attrs, mode, term.attribute, n1)
    first = 1 if mode == 1 else n1 + 1
    values = attrs.table_for(mode).numeric(term.attribute).values
    return {first + off: value for off, value in enumerate(values.tolist())}


def _set_reference(model, attrs, net, i, k, out):
    out[:] = 0.0
    edges = ref.edge_set(net)
    for term, ev in zip(model.spec.terms, model.evaluators):
        if term.kind in ("b1nodematch", "b2nodematch"):
            cats = _node_values(attrs, term, net.n1)
            for slot, value in ref.nodematch_change(term, cats, net, i, k).items():
                out[ev.offset + slot] = value
        elif term.kind in BRUTE_FORCE:
            out[ev.offset] = ref.toggle_change(BRUTE_FORCE[term.kind], net.n1, net.n2, edges, i, k)
        else:
            values = _node_values(attrs, term, net.n1) if term.attribute else None
            for slot, value in ref.node_level_change(term.kind, net.n1, i, k, values).items():
                out[ev.offset + slot] = value


@pytest.mark.parametrize("shape,fill", DESIGN_CASES)
@pytest.mark.parametrize("which,exponent", sorted(TERM_LAYER_DIGESTS))
def test_chain_kernels_equal_the_stateless_delta(shape, fill, which, exponent):
    net, attrs = design_case(shape, fill)
    model = bind(every_term_kind(attrs, which, exponent), net, attrs)
    # nodematch in both modes, plain, diff, kept, diff kept; b2star2 and b2degree1
    assert sum(ev.names[0].startswith(("b1nodematch", "b2nodematch"))
               for ev in model.evaluators) == 8
    assert len(model.dependent) == 10
    models = [model, bind(ModelSpec((term("edges"),)), net, attrs)]
    rng = np.random.default_rng([net.n1, net.n2, len(fill), int(10 * exponent)])
    for toggles in (0, 1, 5, 40, 40):
        for _ in range(toggles):
            net.toggle(int(rng.integers(1, net.n1 + 1)), int(rng.integers(net.n1 + 1, net.n + 1)))
        net.check_consistency()
        for model in models:
            change = model.dependent_change()
            expected, got, chain = np.empty(model.p), np.empty(model.p), np.empty(model.p)
            for i in range(1, net.n1 + 1):
                for k in range(net.n1 + 1, net.n + 1):
                    _set_reference(model, attrs, net, i, k, expected)
                    model.delta_into(net, i, k, got)
                    assert got.tobytes() == expected.tobytes(), (i, k)
                    chain[:] = 0.0
                    for j, value in model.node[i] + model.node[k] + change(net.mask, i, k):
                        chain[j] = value
                    assert chain.tobytes() == expected.tobytes(), (model.names, i, k)


# The chain adds each pair that the node table or a kernel gives to the
# statistic it names.  So every pair must name a slot of its own term (a
# node-level term of the node's mode, for the node table), at most one per
# term and in model order, and carry the bits of the reference; each slot
# of the term that no pair names must have change 0.0.  The composed vector
# of the test above misses a pair that names another term's slot when that
# term's pair overwrites it later.


def _check_pairs(pairs, owners, expected, where):
    named = [j for j, _ in pairs]
    assert named == sorted(named), where
    for j, value in pairs:
        assert np.array([value]).tobytes() == expected[j : j + 1].tobytes(), (where, j)
    for ev in owners:
        mine = [j for j in named if ev.offset <= j < ev.offset + ev.width]
        assert len(mine) <= 1, (ev.names, where)
        for j in range(ev.offset, ev.offset + ev.width):
            if j not in mine:
                assert expected[j] == 0.0, (ev.names, where)
    assert sum(ev.offset <= j < ev.offset + ev.width for j in named for ev in owners) == len(named), where


@pytest.mark.parametrize("shape,fill", DESIGN_CASES)
@pytest.mark.parametrize("which,exponent", sorted(TERM_LAYER_DIGESTS))
def test_chain_kernels_own_their_slots(shape, fill, which, exponent):
    net, attrs = design_case(shape, fill)
    model = bind(every_term_kind(attrs, which, exponent), net, attrs)
    node_level = {mode: [ev for ev in model.evaluators if ev.dyad_independent and ev.mode == mode]
                  for mode in (1, 2)}
    rng = np.random.default_rng([net.n1, net.n2, len(fill), int(10 * exponent), 1])
    expected = np.empty(model.p)
    for toggles in (0, 7):
        for _ in range(toggles):
            net.toggle(int(rng.integers(1, net.n1 + 1)), int(rng.integers(net.n1 + 1, net.n + 1)))
        for i in range(1, net.n1 + 1):
            for k in range(net.n1 + 1, net.n + 1):
                _set_reference(model, attrs, net, i, k, expected)
                # the node table leaves 0.0 values out
                assert 0.0 not in [value for _, value in model.node[i] + model.node[k]], (i, k)
                _check_pairs(model.node[i], node_level[1], expected, (i, k))
                _check_pairs(model.node[k], node_level[2], expected, (i, k))
                for ev in model.dependent:
                    _check_pairs(ev.change(net.mask, i, k), [ev], expected, (ev.names, i, k))
