"""Command-line entry point.

Subcommands: stats, fit, profile, project, simulate, oracle.  Every
output embeds the resolved configuration (including the seed and RNG
algorithm) as comment or JSON metadata; re-running a command with the
same inputs and seed reproduces the output byte for byte apart from the
timestamp line.

Exit codes: 0 success, 2 formula/model errors, 3 input file errors,
4 estimation failures, 5 degeneracy warning escalated by
--degeneracy-error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import re
import sys
import warnings
from datetime import datetime, timezone
from io import StringIO
from pathlib import Path

from . import estimate, formula, io, oracle, sampler, terms
from .graph import AttributeLookupError, Attributes, ColumnTypeError, project

EXIT_OK = 0
EXIT_MODEL = 2
EXIT_INPUT = 3
EXIT_ESTIMATION = 4
EXIT_DEGENERACY = 5

DEFAULT_GRID = [round(0.1 * g, 10) for g in range(11)]


def _num(value) -> str:
    """Full-precision decimal text for a scalar."""
    return repr(float(value))


def _csv(rows) -> str:
    """CSV text with `\n` line ends; a field that holds a comma, a quote or
    a line break is quoted, and any other field is written as it is."""
    buffer = StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _emit(args, filename: str, text: str, config: str) -> None:
    stamp = datetime.now(timezone.utc).isoformat()
    body = f"# config: {config}\n# timestamp: {stamp}\n{text}"
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(body, encoding="utf-8")
    else:
        sys.stdout.write(body)


def _inputs(args) -> tuple:
    """Every command's inputs, read in this order: the network, the mode-1
    and mode-2 attribute files, then the model (`@file` reads it from a
    file).  Returns (net, attrs, spec, config): spec is None for `project`,
    which has no --model, and config is the resolved configuration as one
    JSON line, its model in canonical form."""
    net = io.load_network(args.network)
    attrs1 = (
        io.load_attributes(args.attrs1, 1, net.n1, net.n2) if getattr(args, "attrs1", None) else None
    )
    attrs2 = (
        io.load_attributes(args.attrs2, 2, net.n1, net.n2) if getattr(args, "attrs2", None) else None
    )
    resolved = {k: v for k, v in vars(args).items() if k not in ("func", "out") and v is not None}
    spec = None
    if "model" in resolved:
        text = args.model
        if text.startswith("@"):
            text = io.read_text(text[1:]).strip()
        spec = formula.parse(text)
        resolved["model"] = formula.format_spec(spec)
    resolved["rng"] = sampler.RNG_ALGORITHM
    config = json.dumps(resolved, sort_keys=True, default=str)
    return net, Attributes(mode1=attrs1, mode2=attrs2), spec, config


def _sampler_control(args) -> sampler.SamplerControl:
    return sampler.SamplerControl(
        burn_in=args.burnin,
        interval=args.interval,
        sample_size=args.samplesize,
        seed=args.seed,
    )


@contextlib.contextmanager
def _warnings_to_stderr():
    """Record every warning raised inside, each time it is raised, and
    print each as `warning: <message>` once the block ends."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield caught
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(f) for f in text.split(",") if f.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{flag} {text!r}: {exc}") from None


def _fit_record(fit: estimate.FitResult, config: str) -> dict:
    return {
        "config": json.loads(config),
        "method": fit.method,
        "names": fit.names,
        "theta": [float(t) for t in fit.theta],
        "std_errors": [float(s) for s in fit.std_errors],
        "p_values": [float(p) for p in fit.p_values],
        "covariance": [[float(v) for v in row] for row in fit.covariance],
        "loglik": fit.loglik,
        "loglik_sd": fit.loglik_sd,
        "diagnostics": fit.diagnostics,
        "formula": fit.formula,
    }


# ---------------------------------------------------------------------------
# subcommands, each called with (args, net, attrs, spec, config) from `_inputs`
# ---------------------------------------------------------------------------


def cmd_stats(args, net, attrs, spec, config) -> int:
    model = terms.bind(spec, net, attrs)
    values = model.stats(net)
    rows = [["statistic", "value"]] + [[name, _num(value)] for name, value in zip(model.names, values)]
    _emit(args, "stats.csv", _csv(rows), config)
    return EXIT_OK


def cmd_project(args, net, attrs, spec, config) -> int:
    proj = project(net, args.mode)
    lines = [f"{a} {b} {w}" for (a, b), w in sorted(proj.weights.items())]
    _emit(args, f"projection_mode{args.mode}.txt", "\n".join(lines) + ("\n" if lines else ""), config)
    return EXIT_OK


def cmd_fit(args, net, attrs, spec, config) -> int:
    with _warnings_to_stderr() as caught:
        if args.method == "mple":
            fit = estimate.mple(spec, net, attrs)
        else:
            fit = estimate.mcmcmle(spec, net, attrs, control=_sampler_control(args))
    _emit(args, "fit.txt", fit.summary() + "\n", config)
    record = _fit_record(fit, config)
    if args.out:
        record["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(record, indent=2, sort_keys=True, default=str) + "\n"
    if args.out:
        (Path(args.out) / "fit.json").write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.degeneracy_error and any(
        isinstance(w.message, estimate.DegeneracyWarning) for w in caught
    ):
        print("degeneracy warning escalated to error", file=sys.stderr)
        return EXIT_DEGENERACY
    return EXIT_OK


def _profile_rows(points: list[estimate.ProfilePoint]) -> list[list[str]]:
    """The rows of the homophily statistics, whose names start with a nodematch kind."""
    rows = []
    for point in points:
        value = formula.format_exponent(point.value)
        if point.fit is None:
            rows.append([point.kind, value] + [""] * 7 + [f"failed: {point.error}"])
            continue
        fit = point.fit
        mc_sd = fit.diagnostics.get("mc_sd", [0.0] * len(fit.names))
        for j, (name, est, se, p) in enumerate(
            zip(fit.names, fit.theta, fit.std_errors, fit.p_values)
        ):
            if not name.startswith(terms.NODEMATCH_KINDS):
                continue
            rows.append([
                point.kind, value, name, _num(est), _num(se),
                _num(mc_sd[j]), _num(p), _num(fit.loglik), _num(fit.loglik_sd), "ok",
            ])
    return rows


def cmd_profile(args, net, attrs, spec, config) -> int:
    control = _sampler_control(args)
    grids: list[tuple[str, list[float]]] = []
    for which, text in (("alpha", args.alpha_grid), ("beta", args.beta_grid)):
        if text is not None:
            grid = DEFAULT_GRID if text == "default" else _parse_floats(text, f"--{which}-grid")
            if not grid:
                raise ValueError(f"--{which}-grid {text!r} has no values")
            grids.append((which, grid))
    if not grids:
        grids = [("alpha", DEFAULT_GRID), ("beta", DEFAULT_GRID)]
    # a value outside [0, 1] in either grid is refused before the first fit
    for which, grid in grids:
        estimate.bind_grid(spec, which, grid)
    rows = [["kind", "exponent", "stat", "coef", "coef_se", "coef_mc_sd", "p_value",
             "loglik", "loglik_sd", "status"]]
    with _warnings_to_stderr():
        for which, grid in grids:
            points = estimate.profile(
                spec, which, grid, net, attrs, control=control, method=args.method
            )
            rows += _profile_rows(points)
    _emit(args, "profile.csv", _csv(rows), config)
    return EXIT_OK


def cmd_simulate(args, net, attrs, spec, config) -> int:
    model = terms.bind(spec, net, attrs)
    sample = sampler.simulate(model, _parse_floats(args.theta, "--theta"), net, _sampler_control(args))
    rows = [model.names] + [[_num(v) for v in row] for row in sample.stats]
    _emit(args, "sample.csv", _csv(rows), config)
    if args.save_final_network:
        io.save_network(
            args.save_final_network,
            sample.final_network,
            comments=[f"config: {config}"],
        )
    return EXIT_OK


def cmd_oracle(args, net, attrs, spec, config) -> int:
    model = oracle.ExactModel(spec, attrs, net.n1, net.n2)
    if args.what == "kappa":
        value = model.log_kappa(_parse_floats(args.theta, "--theta"))
        filename, text = "kappa.txt", f"log_kappa,{_num(value)}\n"
    elif args.what == "mle":
        theta_hat = oracle.exact_mle(model, net)
        loglik = oracle.exact_loglik(model, theta_hat, net)
        rows = [["statistic", "estimate"]] + [[n, _num(v)] for n, v in zip(model.names, theta_hat)]
        rows.append(["loglik", _num(loglik)])
        filename, text = "exact_mle.csv", _csv(rows)
    else:
        dist = oracle.exact_dyad_distribution(model, _parse_floats(args.theta, "--theta"))
        rows = [["state", "probability"]] + [[code, _num(p)] for code, p in enumerate(dist.probabilities)]
        rows.append(["dyad_i", "dyad_k", "marginal"])
        rows += [[i, k, _num(m)] for (i, k), m in zip(dist.dyads, dist.marginals)]
        filename, text = "distribution.csv", _csv(rows)
    _emit(args, filename, text, config)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser construction and dispatch
# ---------------------------------------------------------------------------


def _add_io_args(p: argparse.ArgumentParser, attrs: bool = True) -> None:
    p.add_argument("--network", required=True, help="edge-list file")
    if attrs:
        p.add_argument("--attrs1", help="mode-1 attribute file")
        p.add_argument("--attrs2", help="mode-2 attribute file")
    p.add_argument("--out", help="output directory (default: stdout)")


def _add_sampler_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burnin", type=int, default=None)
    p.add_argument("--interval", type=int, default=1024)
    p.add_argument("--samplesize", type=int, default=1000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipergm",
        description="bipartite exponential-family random graph models",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("stats", help="evaluate model statistics on a network")
    _add_io_args(p)
    p.add_argument("--model", required=True, help='formula, e.g. \'edges + b1cov("x")\', or @file')
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("fit", help="fit model coefficients")
    _add_io_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--method", choices=["mple", "mcmcmle"], default="mcmcmle")
    p.add_argument("--degeneracy-error", action="store_true")
    _add_sampler_args(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("profile", help="profile likelihood over the homophily exponent")
    _add_io_args(p)
    p.add_argument("--model", required=True, help="formula with one exponent-free nodematch term")
    p.add_argument("--method", choices=["mple", "mcmcmle"], default="mcmcmle")
    p.add_argument("--alpha-grid", help="comma-separated values or 'default'")
    p.add_argument("--beta-grid", help="comma-separated values or 'default'")
    _add_sampler_args(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("project", help="one-mode weighted projection")
    _add_io_args(p, attrs=False)
    p.add_argument("--mode", type=int, choices=[1, 2], required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("simulate", help="draw networks and emit statistic samples")
    _add_io_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--theta", required=True, help="comma-separated coefficients")
    p.add_argument("--save-final-network", help="write the final network as an edge list")
    _add_sampler_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="exact enumeration on tiny networks")
    _add_io_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--what", choices=["kappa", "mle", "distribution"], required=True)
    p.add_argument("--theta", default="", help="comma-separated coefficients (kappa/distribution)")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse takes a value that starts with '-' for an option unless it is
    # a lone number, so `--theta -0.5,0.3` is read as `--theta=-0.5,0.3`
    argv = sys.argv[1:] if argv is None else list(argv)
    for t in range(len(argv) - 1, 0, -1):
        if argv[t - 1] == "--theta" and re.match(r"-\.?\d", argv[t]):
            argv[t - 1 : t + 1] = [f"--theta={argv[t]}"]
    args = parser.parse_args(argv)
    try:
        return args.func(args, *_inputs(args))
    except formula.FormulaSyntaxError as exc:
        print(f"error: formula: {exc}", file=sys.stderr)
        return EXIT_MODEL
    # FileFormatError and SizeCapError are ValueErrors: these two branches
    # must come before the one for ValueError
    except (io.FileFormatError, OSError, AttributeLookupError, ColumnTypeError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (oracle.SizeCapError, estimate.EstimationError) as exc:
        print(f"error: estimation: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except ValueError as exc:
        print(f"error: model: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
