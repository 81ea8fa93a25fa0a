import argparse
import dataclasses
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bipergm import SamplerControl, estimate, oracle
from bipergm.cli import _add_sampler_args, _sampler_control, main

from conftest import FIG2_EDGES

NET = "n1 3 n2 2\n" + "".join(f"{i}\t{k}\n" for i, k in FIG2_EDGES)
ATTRS1 = "id\tgroup\ttenure\ntype\tcat\tnum\n1\tx\t1.5\n2\tx\t0.5\n3\tx\t2.0\n"


@pytest.fixture
def inputs(tmp_path):
    net = tmp_path / "net.edges"
    net.write_text(NET)
    attrs = tmp_path / "attrs1.tsv"
    attrs.write_text(ATTRS1)
    return net, attrs, tmp_path


def _strip_meta(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("# timestamp:")
    )


def test_stats_alpha_grid_values(inputs, capsys):
    net, attrs, _ = inputs
    model = (
        'b1nodematch("group", alpha = 0) + b1nodematch("group", alpha = 0.5)'
        ' + b1nodematch("group", alpha = 1)'
    )
    code = main(["stats", "--network", str(net), "--attrs1", str(attrs), "--model", model])
    assert code == 0
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]
    values = [float(v) for _, v in rows]
    assert values == pytest.approx([3.0, 2.0 + math.sqrt(2.0), 4.0])
    assert "# config:" in out


def test_stats_empty_network(tmp_path, capsys):
    net = tmp_path / "net.edges"
    net.write_text("n1 3 n2 2\n")
    attrs = tmp_path / "a.tsv"
    attrs.write_text(ATTRS1)
    code = main(
        ["stats", "--network", str(net), "--attrs1", str(attrs),
         "--model", 'edges + b1cov("tenure")']
    )
    assert code == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert rows[1:] == ["edges,0.0", "b1cov.tenure,0.0"]


def test_stats_missing_column_names_it(inputs, capsys):
    net, attrs, _ = inputs
    code = main(
        ["stats", "--network", str(net), "--attrs1", str(attrs), "--model", 'b1cov("age")']
    )
    assert code == 3
    assert "age" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model,message",
    [
        ('b2cov("z")', "no attribute table supplied for mode 2"),
        ('b1nodematch("group", alpha = 0.5, keep = "zzz")',
         "b1nodematch('group'): keep levels ['zzz'] not among ['x']"),
    ],
)
def test_attribute_lookup_exit_code(inputs, capsys, model, message):
    net, attrs, _ = inputs
    code = main(["stats", "--network", str(net), "--attrs1", str(attrs), "--model", model])
    assert code == 3
    assert capsys.readouterr().err == f"error: input: {message}\n"


def test_an_internal_key_error_propagates(inputs, monkeypatch):
    def lookup_fault(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(estimate, "mple", lookup_fault)
    net, attrs, _ = inputs
    with pytest.raises(KeyError, match="internal"):
        main(["fit", "--network", str(net), "--attrs1", str(attrs),
              "--model", "edges", "--method", "mple"])


def test_malformed_formula_exit_code(inputs, capsys):
    net, attrs, _ = inputs
    code = main(["stats", "--network", str(net), "--model", "edges + + edges"])
    assert code == 2
    assert "formula" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    code = main(["stats", "--network", str(tmp_path / "nope.edges"), "--model", "edges"])
    assert code == 3


def test_model_from_file(inputs, capsys):
    net, attrs, tmp = inputs
    model_file = tmp / "model.txt"
    model_file.write_text("edges\n")
    assert main(["stats", "--network", str(net), "--model", f"@{model_file}"]) == 0
    assert "edges,5.0" in capsys.readouterr().out


def test_project_modes(inputs, capsys):
    net, _, _ = inputs
    assert main(["project", "--network", str(net), "--mode", "1"]) == 0
    out1 = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert out1 == ["1 2 2", "1 3 1", "2 3 1"]
    assert main(["project", "--network", str(net), "--mode", "2"]) == 0
    out2 = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert out2 == ["4 5 2"]


def test_fit_mple_edges_only(inputs, capsys):
    net, attrs, _ = inputs
    code = main(
        ["fit", "--network", str(net), "--attrs1", str(attrs),
         "--model", "edges", "--method", "mple"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"{math.log(5.0):.4f}" in out
    assert "significance:" in out
    record = json.loads(out[out.rindex("\n{") :])
    assert record["theta"][0] == pytest.approx(math.log(5.0), abs=1e-6)


def test_fit_writes_report_and_record(tmp_path):
    # denser dyad mix so the covariate model is estimable
    net = tmp_path / "net.edges"
    net.write_text("n1 3 n2 2\n1\t4\n2\t4\n3\t4\n1\t5\n")
    attrs = tmp_path / "attrs1.tsv"
    attrs.write_text(ATTRS1)
    out_dir = tmp_path / "fit_out"
    code = main(
        ["fit", "--network", str(net), "--attrs1", str(attrs),
         "--model", 'edges + b1cov("tenure")', "--method", "mple",
         "--out", str(out_dir)]
    )
    assert code == 0
    report = (out_dir / "fit.txt").read_text()
    assert "b1cov.tenure" in report
    record = json.loads((out_dir / "fit.json").read_text())
    assert record["names"] == ["edges", "b1cov.tenure"]
    assert record["config"]["model"] == 'edges + b1cov("tenure")'


def test_fit_record_on_stdout_equals_the_saved_record(inputs, capsys):
    net, attrs, tmp_path = inputs
    argv = ["fit", "--network", str(net), "--attrs1", str(attrs),
            "--model", "edges", "--method", "mple"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    printed = json.loads(out[out.rindex("\n{") :])
    assert main(argv + ["--out", str(tmp_path / "fit_out")]) == 0
    saved = json.loads((tmp_path / "fit_out" / "fit.json").read_text())
    assert "timestamp" not in printed
    del saved["timestamp"]
    assert printed == saved


def test_fit_separation_exit_code(tmp_path, capsys):
    net = tmp_path / "net.edges"
    net.write_text("n1 3 n2 2\n")
    code = main(["fit", "--network", str(net), "--model", "edges", "--method", "mple"])
    assert code == 4
    assert "estimation" in capsys.readouterr().err


def test_fit_hull_lp_failure_exit_code(inputs, capsys, monkeypatch):
    def failed_lp(*args, **kwargs):
        return SimpleNamespace(status=4, message="numerical difficulties", fun=0.0, x=None)

    # hull_direction imports linprog when it is called, so patch it at its source
    monkeypatch.setattr("scipy.optimize.linprog", failed_lp)
    net, attrs, _ = inputs
    code = main(
        ["fit", "--network", str(net), "--attrs1", str(attrs),
         "--model", "edges", "--method", "mple"]
    )
    assert code == 4
    assert capsys.readouterr().err.startswith("error: estimation:")


def test_oracle_exact_mle_failure_exit_code(tmp_path, capsys, monkeypatch):
    def wrong_moments(self, theta):
        return np.full(self.p, 1e6), np.eye(self.p)

    monkeypatch.setattr(oracle.ExactModel, "moments", wrong_moments)
    net = tmp_path / "net.edges"
    net.write_text("n1 2 n2 2\n1\t3\n")
    code = main(["oracle", "--network", str(net), "--model", "edges", "--what", "mle"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: estimation:")


def test_oracle_boundary_mle_exit_code(tmp_path, capsys):
    # the empty network's edge count sits on the hull boundary: no finite MLE
    net = tmp_path / "net.edges"
    net.write_text("n1 2 n2 2\n")
    code = main(["oracle", "--network", str(net), "--model", "edges", "--what", "mle"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: estimation:")


def test_simulate_deterministic_and_reruns_identical(inputs):
    net, attrs, tmp = inputs
    args = [
        "simulate", "--network", str(net), "--attrs1", str(attrs),
        "--model", 'edges + b1nodematch("group", beta = 0.5)',
        "--theta", "0.2,0.3", "--seed", "42", "--burnin", "200",
        "--interval", "2", "--samplesize", "50",
    ]
    out_a = tmp / "sim_a"
    out_b = tmp / "sim_b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    a = _strip_meta((out_a / "sample.csv").read_text())
    b = _strip_meta((out_b / "sample.csv").read_text())
    assert a == b
    header = a.splitlines()[1]
    assert header == "edges,b1nodematch.group"
    assert len(a.splitlines()) == 2 + 50


def test_simulate_saves_final_network(inputs):
    net, attrs, tmp = inputs
    final = tmp / "final.edges"
    code = main(
        ["simulate", "--network", str(net), "--attrs1", str(attrs),
         "--model", "edges", "--theta", "0.0", "--seed", "1",
         "--burnin", "100", "--interval", "1", "--samplesize", "10",
         "--save-final-network", str(final)]
    )
    assert code == 0
    from bipergm.io import load_network

    loaded = load_network(final)
    assert loaded.n1 == 3 and loaded.n2 == 2


def test_simulate_refuses_a_negative_seed(inputs, capsys):
    net, attrs, _ = inputs
    code = main(
        ["simulate", "--network", str(net), "--attrs1", str(attrs), "--model", "edges",
         "--theta", "0.0", "--seed", "-1", "--burnin", "10", "--samplesize", "2"]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: model: seed must be at least 0, got -1\n"


def test_each_control_field_has_one_sampler_flag():
    parser = argparse.ArgumentParser()
    _add_sampler_args(parser)
    flags = [a.option_strings for a in parser._actions if a.dest != "help"]
    names = [f.name for f in dataclasses.fields(SamplerControl)]
    assert sorted(flags) == sorted([f"--{name.replace('_', '')}"] for name in names)
    args = parser.parse_args(["--burnin", "5", "--interval", "6", "--samplesize", "7", "--seed", "8"])
    assert _sampler_control(args) == SamplerControl(burn_in=5, interval=6, sample_size=7, seed=8)


def test_there_is_no_proposal_flag(inputs, capsys):
    net, _, _ = inputs
    with pytest.raises(SystemExit) as exit_:
        main(["fit", "--network", str(net), "--model", "edges", "--proposal", "tnt"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --proposal tnt" in capsys.readouterr().err


@pytest.mark.parametrize("header,mode", [("n1 0 n2 3", 1), ("n1 3 n2 0", 2)])
def test_simulate_without_dyads_exit_code(tmp_path, capsys, header, mode):
    net = tmp_path / "net.edges"
    net.write_text(header + "\n")
    code = main(
        ["simulate", "--network", str(net), "--model", "edges", "--theta", "0.0",
         "--burnin", "10", "--interval", "1", "--samplesize", "2"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model:") and f"mode {mode} has no nodes" in err


@pytest.mark.parametrize("method", ["mple", "mcmcmle"])
@pytest.mark.parametrize("header,mode", [("n1 0 n2 3", 1), ("n1 3 n2 0", 2)])
def test_fit_without_dyads_exit_code(tmp_path, capsys, method, header, mode):
    net = tmp_path / "net.edges"
    net.write_text(header + "\n")
    code = main(["fit", "--network", str(net), "--model", "edges", "--method", method])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: model:") and f"mode {mode} has no nodes" in err


def test_profile_mple_grid(inputs):
    net, attrs, tmp = inputs
    out_dir = tmp / "prof"
    code = main(
        ["profile", "--network", str(net), "--attrs1", str(attrs),
         "--model", 'edges + b1nodematch("group")', "--method", "mple",
         "--alpha-grid", "default", "--beta-grid", "default",
         "--out", str(out_dir)]
    )
    assert code == 0
    rows = [
        l for l in (out_dir / "profile.csv").read_text().splitlines()
        if not l.startswith("#")
    ]
    assert rows[0] == (
        "kind,exponent,stat,coef,coef_se,coef_mc_sd,p_value,loglik,loglik_sd,status"
    )
    alpha_rows = [r for r in rows[1:] if r.startswith("alpha,")]
    beta_rows = [r for r in rows[1:] if r.startswith("beta,")]
    assert len(alpha_rows) == 11 and len(beta_rows) == 11


@pytest.fixture
def alpha_zero_inputs(tmp_path):
    # at alpha=0 every b1nodematch change statistic on this 3x3 network is 0
    net = tmp_path / "net.edges"
    net.write_text("n1 3 n2 3\n1\t4\n1\t5\n1\t6\n2\t5\n2\t6\n3\t4\n")
    attrs = tmp_path / "attrs1.tsv"
    attrs.write_text("id\tgroup\ntype\tcat\n1\ta\n2\ta\n3\tb\n")
    return net, attrs


def test_profile_prints_each_warning_as_fit_does(alpha_zero_inputs, tmp_path, capsys):
    net, attrs = alpha_zero_inputs
    code = main(
        ["profile", "--network", str(net), "--attrs1", str(attrs),
         "--model", 'edges + b1nodematch("group")', "--method", "mple",
         "--alpha-grid", "0,0.5", "--out", str(tmp_path / "prof")]
    )
    assert code == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: the pseudo-likelihood does not identify ")


def test_profile_warning_names_its_grid_point(alpha_zero_inputs, tmp_path, capsys):
    # only the alpha=0 point warns
    net, attrs = alpha_zero_inputs
    code = main(
        ["profile", "--network", str(net), "--attrs1", str(attrs),
         "--model", 'edges + b1nodematch("group")', "--method", "mple",
         "--alpha-grid", "0,0.5", "--out", str(tmp_path / "prof")]
    )
    assert code == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].endswith(" (alpha=0)")


FROZEN_30X15 = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def test_mcmcmle_profile_warns_only_about_its_final_sample(tmp_path, capsys):
    # at seed 88 the first ramp anchor's nodematch column is constant, but
    # the fit moves past it and its final sample identifies the coefficient
    out_dir = tmp_path / "prof"
    code = main(
        ["profile", "--network", str(FROZEN_30X15 / "profile_30x15.edges"),
         "--attrs1", str(FROZEN_30X15 / "profile_30x15_attrs1.tsv"),
         "--model", 'edges + b1nodematch("group")', "--method", "mcmcmle",
         "--alpha-grid", "0", "--seed", "88", "--burnin", "8192", "--interval", "48",
         "--samplesize", "3000", "--out", str(out_dir)]
    )
    assert code == 0
    rows = [
        l for l in (out_dir / "profile.csv").read_text().splitlines()
        if l and not l.startswith("#")
    ]
    assert len(rows) == 2 and rows[1].startswith("alpha,0,") and rows[1].endswith(",ok")
    assert "near-constant" not in capsys.readouterr().err


@pytest.mark.parametrize("flags,exit_code", [([], 0), (["--degeneracy-error"], 5)])
def test_fit_degeneracy_warning_exit_code(alpha_zero_inputs, tmp_path, capsys, flags, exit_code):
    net, attrs = alpha_zero_inputs
    code = main(
        ["fit", "--network", str(net), "--attrs1", str(attrs), "--method", "mple",
         "--model", 'edges + b1nodematch("group", alpha = 0)', "--out", str(tmp_path / "fit")]
        + flags
    )
    assert code == exit_code
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("warning: the pseudo-likelihood does not identify ")
    assert lines[1:] == (["degeneracy warning escalated to error"] if flags else [])


@pytest.mark.parametrize("what", ["simulate", "kappa"])
def test_non_finite_theta_exit_code(tmp_path, capsys, what):
    net = tmp_path / "net.edges"
    net.write_text("n1 2 n2 2\n1\t3\n")
    args = ["--network", str(net), "--model", "edges", "--theta", "nan"]
    if what == "simulate":
        args = ["simulate"] + args + ["--burnin", "10", "--interval", "1", "--samplesize", "5"]
    else:
        args = ["oracle"] + args + ["--what", "kappa"]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: model: theta must be finite")


def test_oracle_kappa_and_distribution(tmp_path, capsys):
    net = tmp_path / "net.edges"
    net.write_text("n1 2 n2 2\n1\t3\n")
    code = main(
        ["oracle", "--network", str(net), "--model", "edges", "--what", "kappa",
         "--theta", "0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    value = float(out.splitlines()[-1].split(",")[1])
    assert value == pytest.approx(math.log(16.0))

    code = main(
        ["oracle", "--network", str(net), "--model", "edges", "--what", "mle"]
    )
    assert code == 0
    out = capsys.readouterr().out
    est = float([l for l in out.splitlines() if l.startswith("edges,")][0].split(",")[1])
    assert est == pytest.approx(math.log((1 / 4) / (3 / 4)), abs=1e-8)

    code = main(
        ["oracle", "--network", str(net), "--model", "edges", "--what", "distribution",
         "--theta", "0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    probs = [
        float(l.split(",")[1])
        for l in out.splitlines()
        if l and l[0].isdigit() and l.count(",") == 1
    ]
    assert np.allclose(probs, 1 / 16)


def test_oracle_size_cap_exit_code(tmp_path, capsys):
    net = tmp_path / "net.edges"
    net.write_text("n1 5 n2 5\n")
    code = main(
        ["oracle", "--network", str(net), "--model", "edges", "--what", "kappa",
         "--theta", "0"]
    )
    assert code == 4


ATTRS2 = "id\thardskill\ntype\tcat\n4\tyes\n5\tno\n"


def test_fit_report_table_style(tmp_path):
    # a fit invocation shaped like a published model listing: density,
    # covariate, factor, and an exponent-0 homophily term
    net = tmp_path / "net.edges"
    net.write_text(
        "n1 6 n2 4\n"
        + "".join(
            f"{i}\t{k}\n"
            for i, k in [(1, 7), (2, 7), (2, 9), (3, 7), (4, 8), (4, 10), (5, 7), (6, 7)]
        )
    )
    attrs1 = tmp_path / "attrs1.tsv"
    attrs1.write_text(
        "id\tgender\ttenure\ntype\tcat\tnum\n"
        "1\tMale\t4.93\n2\tFemale\t6.04\n3\tFemale\t2.73\n"
        "4\tFemale\t5.47\n5\tFemale\t6.55\n6\tFemale\t2.22\n"
    )
    attrs2 = tmp_path / "attrs2.tsv"
    attrs2.write_text(
        "id\thardskill\ntype\tcat\n7\tyes\n8\tno\n9\tno\n10\tno\n"
    )
    out_dir = tmp_path / "out"
    code = main(
        ["fit", "--network", str(net), "--attrs1", str(attrs1), "--attrs2", str(attrs2),
         "--model",
         'edges + b1cov("tenure") + b1factor("gender") + b2nodematch("hardskill", alpha = 0)',
         "--method", "mple", "--out", str(out_dir)]
    )
    assert code == 0
    report = (out_dir / "fit.txt").read_text()
    for name in ("edges", "b1cov.tenure", "b1factor.gender.Male", "b2nodematch.hardskill"):
        assert name in report
    assert "* p<0.05, ** p<0.001, *** p<0.0001" in report
    assert 'model: edges + b1cov("tenure")' in report


def test_profile_rerun_byte_identical(inputs):
    net, attrs, tmp = inputs
    args = [
        "profile", "--network", str(net), "--attrs1", str(attrs),
        "--model", 'edges + b1nodematch("group")', "--method", "mple",
        "--alpha-grid", "0,0.5,1", "--seed", "3",
    ]
    out_a, out_b = tmp / "pa", tmp / "pb"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert _strip_meta((out_a / "profile.csv").read_text()) == _strip_meta(
        (out_b / "profile.csv").read_text()
    )


def test_stats_rerun_byte_identical(inputs):
    net, attrs, tmp = inputs
    out_a, out_b = tmp / "a", tmp / "b"
    args = ["stats", "--network", str(net), "--attrs1", str(attrs), "--model", "edges"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert _strip_meta((out_a / "stats.csv").read_text()) == _strip_meta(
        (out_b / "stats.csv").read_text()
    )
