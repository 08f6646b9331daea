"""Command line interface.

Subcommands: divergence, bound, solve, certify, sweep, volume. Inputs are
JSON, inline or by file path. Exit status: 0 on success, 1 when a checked
bound is violated, 2 on usage or input errors (single-line diagnostic on
stderr naming the failing field).

Output is deterministic for a fixed seed: JSON uses sorted keys and
17-significant-digit floats, and nothing depends on FANO_THREADS (a reserved
parallelism knob; it is validated if set and otherwise ignored).
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile

from . import bounds as _bounds
from . import jsonio
from .distributions import distribution_from_json
from .divergences import renyi_divergence
from .errors import FanoError
from .relations import domain_from_json, resolve_volume_method, sup_ball_volume
from .bounds import BoundInputs

REPORT_TABLE = ("mode", "bound_value", "observed", "slack", "feasible_sup",
                "solver_tolerance", "holds")


def _thread_cap() -> int:
    raw = os.environ.get("FANO_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise FanoError(f"FANO_THREADS: must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise FanoError(f"FANO_THREADS: must be a positive integer, got {raw!r}")
    return value


def _load_json(argument: str):
    text = argument
    if not argument.lstrip().startswith(("{", "[")):
        try:
            with open(argument, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise FanoError(f"input: cannot read {argument!r} ({exc})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FanoError(f"input: invalid JSON ({exc})") from None


def _parse_base(text: str) -> float:
    if text.strip().lower() == "e":
        return math.e
    try:
        value = float(text)
    except ValueError:
        raise FanoError(f"base: expected a number or 'e', got {text!r}") from None
    return value


def _parse_alpha(text: str):
    s = text.strip().lower()
    if s == "kl":
        return "kl"
    if s in ("inf", "infinity"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise FanoError(f"alpha: expected a number, 'inf' or 'kl', got {text!r}") from None


def _write_output(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_path, out_path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _emit(args, result) -> None:
    """Writes a command's result in args.format, building that format's text
    only: a list of bound reports, a sweep summary, or a flat dict of
    scalars. Table names are padded to 17 columns for reports and 14
    otherwise; None prints as None in a table and as an empty CSV cell."""
    if args.format == "json":
        text = jsonio.dumps(
            {"reports": {r.instance_id or "report": r.to_json_obj() for r in result}}
            if isinstance(result, list) else result if isinstance(result, dict)
            else result.to_json_obj(include_timing=args.timing))
    elif isinstance(result, list):
        text = _bounds.reports_to_csv(result) if args.format == "csv" else _table(
            [(r.instance_id, [(name, getattr(r, name)) for name in REPORT_TABLE]
              + [("notes", r.notes or "-")]) for r in result], 17)
    else:
        if isinstance(result, dict):
            rows = table = sorted(result.items())
        else:
            # a sweep summary, fixed order; the table calls the worst "worst", "-" if none
            worst = result.worst_instance["id"] if result.worst_instance else None
            rows = [("instances", result.instances), ("violations", result.violations),
                    ("max_violation", result.max_violation), ("worst_id", worst),
                    ("elapsed_ms", result.elapsed_ms)][:5 if args.timing else 4]
            table = rows[:3] + [("worst", worst or "-")] + rows[4:]
        text = (jsonio.format_csv([[name for name, _ in rows], [value for _, value in rows]])
                if args.format == "csv" else _table([("", table)], 14))
    _write_output(text, args.out)


def _table(records, width: int) -> str:
    """Blocks of "name: value" lines, names padded to width, titled if titled."""
    return "\n\n".join(("[%s]\n" % title if title else "") + "\n".join(
        "%-*s %s" % (width, name + ":", jsonio.format_cell(value))
        for name, value in fields) for title, fields in records)


def _tolerance(text: str) -> float:
    """--tolerance: any float but NaN, which every check would compare false
    with, passing or failing all of them."""
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"tolerance: must be a number, got {text!r}")
    return value


# Flags several subcommands share, in help order. Each subcommand declares
# --format, --out and those of the rest that it reads.
SHARED_FLAGS = {
    "base": dict(default="e", help="logarithm base (number or 'e')"),
    "format": dict(choices=("table", "json", "csv"), default="table",
                   help="output format"),
    "out": dict(default=None, help="write output to this file"),
    "tolerance": dict(type=_tolerance, default=1e-9, help="slack tolerance for pass/fail"),
    "seed": dict(type=int, default=0, help="stream seed"),
}


def _add_shared(parser: argparse.ArgumentParser, *names: str) -> None:
    for name, spec in SHARED_FLAGS.items():
        if name in ("format", "out") + names:
            parser.add_argument("--" + name, **spec)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fano",
        description="Diffusion-style reconstruction bounds over finite and "
                    "continuous alphabets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divergence", help="order-alpha or KL divergence of two "
                                          "distributions")
    p.add_argument("P", help="first distribution (JSON or path)")
    p.add_argument("Q", help="second distribution (JSON or path)")
    p.add_argument("--alpha", default="kl", help="order, 'inf', or 'kl'")
    _add_shared(p, "base")
    p.set_defaults(run=_cmd_divergence)

    for name, help_text, shared in (
            ("bound", "check one bound from scalar inputs", ("base", "tolerance", "seed")),
            ("solve", "solve the self-consistent bound for its extreme probability",
             ("base", "seed"))):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="bound description (JSON or path)")
        p.add_argument("--alpha", default=None, help="override the order")
        p.add_argument("--pmin", type=float, default=None, help="override p_min")
        p.add_argument("--pmax", type=float, default=None, help="override p_max")
        _add_shared(p, *shared)
        p.set_defaults(run=_cmd_bound)

    p = sub.add_parser("certify", help="run every applicable bound on a chain")
    p.add_argument("experiment", help="experiment description (JSON or path)")
    p.add_argument("--trials", type=int, default=None,
                   help="force the Monte Carlo chain with this many trials")
    p.add_argument("--n", type=int, default=None, help="override sample count")
    _add_shared(p, "base", "tolerance", "seed")
    p.set_defaults(run=_cmd_certify)

    p = sub.add_parser("sweep", help="exhaustive grid verification of the "
                                     "diffusion bounds")
    p.add_argument("--k", default="2,3,4", help="comma-separated outcome counts")
    p.add_argument("--denominator", type=int, default=8, help="weight grid denominator")
    p.add_argument("--alphas", default="0.25,0.5,2,4",
                   help="comma-separated orders (KL is always included)")
    p.add_argument("--timing", action="store_true",
                   help="include elapsed time in the output")
    _add_shared(p, "tolerance")
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("volume", help="supremal ball volume of a continuous domain")
    p.add_argument("domain", help="domain description (JSON or path)")
    p.add_argument("--method", choices=("auto", "exact", "monte-carlo", "grid"),
                   default="auto")
    p.add_argument("--samples", type=int, default=65536, help="Monte Carlo draws")
    p.add_argument("--resolution", type=int, default=64, help="grid cells per axis")
    _add_shared(p, "seed")
    p.set_defaults(run=_cmd_volume)
    return parser


# the tree main parses with, built on its first call: a parse keeps no state
# in it (each gets a fresh namespace, and no type function or action keeps any)
_parser = functools.cache(build_parser)


def _cmd_divergence(args) -> int:
    base = _parse_base(args.base)
    P = distribution_from_json(_load_json(args.P))
    Q = distribution_from_json(_load_json(args.Q))
    alpha = _parse_alpha(args.alpha)
    value = renyi_divergence(P, Q, 1.0 if alpha == "kl" else alpha, base)
    _emit(args, {"alpha": alpha, "base": base, "value": value})
    return 0


def _bound_inputs_from_json(obj: dict, args, base: float) -> BoundInputs:
    if obj.get("kind") == "renyi" and "alpha" not in obj and args.alpha is None:
        raise FanoError("alpha: the renyi bound needs an order (in the input "
                        "object or via --alpha)")
    alpha = obj.get("alpha", "kl")
    if args.alpha is not None:
        alpha = _parse_alpha(args.alpha)
    elif isinstance(alpha, str):
        alpha = _parse_alpha(alpha)
    p_min = args.pmin if args.pmin is not None else _number(obj, "p_min")
    p_max = args.pmax if args.pmax is not None else _number(obj, "p_max")
    if p_min is None or p_max is None:
        raise FanoError("p_min, p_max: required (in the input object or via flags)")
    divergence = _number(obj, "divergence")
    if divergence is None:
        raise FanoError("divergence: required in the input object")
    return BoundInputs(divergence=divergence, alpha=alpha, p_min=p_min, p_max=p_max,
                       base=base)


def _number(obj: dict, name: str):
    """obj[name] read by jsonio.parse_extended, None where absent or null."""
    value = obj.get(name)
    return None if value is None else jsonio.parse_extended(value, name)


def _cmd_bound(args) -> int:
    """bound and solve; solve reads no --tolerance (its reports carry the
    solver's own)."""
    solve = args.command == "solve"
    base = _parse_base(args.base)
    obj = _load_json(args.input)
    if not isinstance(obj, dict):
        raise FanoError("input: expected a JSON object")
    kind = obj.get("kind", "kl")
    mode = "solve" if solve else "check"
    # the exceedance bounds' check-mode inputs
    checked = {} if solve else {"p_t": _number(obj, "p_t"), "tolerance": args.tolerance}
    if kind in ("kl", "renyi"):
        inputs = _bound_inputs_from_json(obj, args, base)
        if solve:
            report = _bounds.solve_diffusion(inputs)
        else:
            p_obs = _number(obj, "p" if "p" in obj else "observed")
            if p_obs is None:
                raise FanoError("p: the observed probability is required for check mode")
            if isinstance(inputs.alpha, str) and inputs.alpha == "kl":
                report = _bounds.check_kl_diffusion(p_obs, inputs, args.tolerance)
            else:
                report = _bounds.check_renyi_diffusion(p_obs, inputs, args.tolerance)
    elif kind == "mi-distance":
        for key in ("mi", "size", "ball_max"):
            if key not in obj:
                raise FanoError(f"{key}: required for the mi-distance bound")
        report = _bounds.mi_distance_bound(
            jsonio.parse_extended(obj["mi"], "mi"), obj["size"], obj["ball_max"],
            mode=mode, base=base, **checked)
    elif kind == "continuous":
        if "mi" not in obj or "domain" not in obj:
            raise FanoError("mi, domain: required for the continuous bound")
        report = _bounds.continuous_fano_bound(
            jsonio.parse_extended(obj["mi"], "mi"), domain_from_json(obj["domain"]),
            variant=obj.get("variant", "log2"), mode=mode,
            volume_method=obj.get("method", "auto"),
            samples=obj.get("samples", 65536),
            seed=args.seed,
            resolution=obj.get("resolution", 64),
            base=base, **checked)
    else:
        raise FanoError(f"kind: unknown bound kind {kind!r}")
    _emit(args, [report])
    return 0 if (solve or report.holds) else 1


def _cmd_certify(args) -> int:
    from . import chains as _chains
    base = _parse_base(args.base)
    obj = _load_json(args.experiment)
    if isinstance(obj, dict) and "base" not in obj:
        obj = dict(obj, base=base)
    exp = _chains.experiment_from_json(obj)
    if args.n is not None:
        exp = dataclasses.replace(exp, n_samples=args.n)
    reports = _chains.certify(exp, trials=args.trials, seed=args.seed,
                              tolerance=args.tolerance)
    _emit(args, reports)
    return 0 if all(r.holds is not False for r in reports) else 1


def _cmd_sweep(args) -> int:
    from . import verify as _verify
    try:
        counts = tuple(int(v) for v in args.k.split(",") if v.strip())
        alphas = tuple(float(v) for v in args.alphas.split(",") if v.strip())
    except ValueError:
        raise FanoError("k, alphas: expected comma-separated numbers") from None
    spec = _verify.SweepSpec(outcome_counts=counts,
                             weight_grid_denominator=args.denominator,
                             alphas=alphas, tolerance=args.tolerance)
    summary = _verify.sweep_diffusion(spec)
    _emit(args, summary)
    return 1 if summary.violations else 0


def _cmd_volume(args) -> int:
    domain = domain_from_json(_load_json(args.domain))
    method = resolve_volume_method(domain, args.method)
    value, error = sup_ball_volume(domain, method=method, samples=args.samples,
                                   seed=args.seed, resolution=args.resolution)
    _emit(args, {"value": value, "error": error, "method": method})
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _thread_cap()
        return args.run(args)
    except FanoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
