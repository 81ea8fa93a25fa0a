import bipergm

# wrappers and settings with no caller that were removed; each capability
# keeps one way in (`FitControl(sampler=s)` is now `s`, see docs/decisions.md)
RETIRED = {
    "mh_step",
    "toggle_edge",
    "exact_kappa",
    "two_paths_between",
    "matching_edges_at",
    "FitControl",
}


def test_public_surface():
    names = bipergm.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(bipergm, name), name
    assert not RETIRED & set(names)
    assert not [name for name in RETIRED if hasattr(bipergm, name)]
