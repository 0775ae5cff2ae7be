"""Command-line front end: validate, bounds, hitting, verify, gallery.

Inputs are JSON chain files or gallery model names (``mm1``, ``mm1(1, 4)``).
Exit codes: 0 success, 1 hypothesis-level warnings only, 2 validation or
parse error, 3 bound violation.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .catalog import bound_catalog
from .chainfile import _parse_vector, load_chain_file, save_chain_file
from .dtmc import birth_death_hitting_times, hitting_times
from .errors import InvalidParameters, McPerturbError, ParseError, ValidationError
from .gallery import GalleryModel, _band_weights, _takes_truncation, build_model, list_models
from .verify import fuzz_bounds, identity_residuals

EXIT_OK = 0
EXIT_WARNINGS = 1
EXIT_INVALID = 2
EXIT_VIOLATION = 3


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (set, tuple)):
        return list(obj)
    return str(obj)


def _emit_json(payload, out):
    print(json.dumps(payload, sort_keys=True, indent=2, default=_json_default), file=out)


def _fmt(x):
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _table(rows, headers, out):
    cols = [headers] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cols) for i in range(len(headers))]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line, file=out)
    print("  ".join("-" * w for w in widths), file=out)
    for row in cols[1:]:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)), file=out)


def _load_input(spec: str, truncation):
    """``(model, perturbed chain, weights)`` for a chain file or a gallery name.

    A path with a slash or .json suffix is a file, wrapped as a model named
    by its path with no extras, which takes no truncation; otherwise
    ``spec`` names a gallery model.
    """
    if spec.endswith(".json") or "/" in spec:
        if truncation is not None:
            raise InvalidParameters(f"--truncation applies to gallery models, not to the "
                                    f"chain file {spec}")
        cf = load_chain_file(spec)
        model = GalleryModel(name=spec, kind=cf.kind, chain=cf.chain)
        return model, cf.perturbed, cf.weight_function
    return build_model(spec, truncation=truncation), None, None


def cmd_validate(args, out) -> int:
    cf = load_chain_file(args.path)
    chain = cf.chain
    detail = {"kind": cf.kind, "states": chain.n, "irreducible": chain.irreducible}
    if cf.kind == "dtmc":
        detail.update(period=chain.period, aperiodic=chain.aperiodic)
        shape = "aperiodic" if chain.aperiodic else f"period {chain.period}"
    else:
        detail["uniformization_constant"] = chain.uniformization_constant
        shape = f"uniformization constant {chain.uniformization_constant:.6g}"
    if cf.perturbed is not None:
        detail["perturbed"] = True
    if args.format == "json":
        _emit_json(detail, out)
    else:
        print(f"{cf.kind}, {'irreducible' if chain.irreducible else 'reducible'}, {shape}, "
              f"n={chain.n}", file=out)
    return EXIT_OK


def _load_drift_file(path, n):
    """``(values, taboo_state)``: n numbers and a state of the n-state chain."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: cannot read drift file: {exc}") from exc
    if not isinstance(data, dict) or "values" not in data:
        raise ParseError(f"{path}: drift file needs a 'values' array")
    values = _parse_vector(data["values"], n, "values", path)
    taboo = data.get("taboo_state", 0)
    if not isinstance(taboo, int) or isinstance(taboo, bool) or not 0 <= taboo < n:
        raise ParseError(f"{path}: taboo_state must be an integer state in [0, {n}), "
                         f"got {taboo!r}")
    return values, taboo


def cmd_bounds(args, out) -> int:
    model, perturbed, weights = _load_input(args.path, args.truncation)
    chain = model.chain
    taboo = 0
    if args.drift_file:
        weights, taboo = _load_drift_file(args.drift_file, chain.n)
    elif not args.v_norm:
        weights = None
    elif weights is None:
        # band generator models carry their drift weights implicitly
        weights = _band_weights(model)
    reports = bound_catalog(
        chain, perturbed=perturbed, m_max=args.m_max,
        weights=weights, taboo_state=taboo,
    )
    if args.format == "json":
        _emit_json({"input": model.name, "reports": [r.to_dict() for r in reports]}, out)
    else:
        rows = []
        for r in reports:
            hyp = "ok" if r.hypotheses_hold else "FAILED: " + "; ".join(
                f"{h.name} ({h.detail})" for h in r.hypotheses if not h.holds)
            rows.append([r.bound_name, hyp, r.ell, r.bound_value, r.exact_gap, r.valid])
        _table(rows, ["bound", "hypotheses", "ell", "value", "gap", "valid"], out)
    if any(r.valid is False for r in reports):
        return EXIT_VIOLATION
    if any(not r.hypotheses_hold for r in reports):
        return EXIT_WARNINGS
    return EXIT_OK


def cmd_hitting(args, out) -> int:
    model = _load_input(args.path, args.truncation)[0]
    chain, extras = model.chain, model.extras
    if model.kind != "dtmc":
        raise ValidationError("hitting times are computed for transition matrices")
    m = hitting_times(chain, args.target)
    closed = None
    if {"a", "b", "c"} <= extras.keys():
        # only birth-death models carry their per-state move probabilities
        closed = birth_death_hitting_times(extras["a"], extras["b"], extras["c"], args.target)
    if args.format == "json":
        payload = {"input": model.name, "target": args.target, "hitting_times": m.tolist()}
        if closed is not None:
            payload["closed_form"] = closed.tolist()
        _emit_json(payload, out)
    else:
        headers = ["state", "mean_steps"] + (["closed_form"] if closed is not None else [])
        rows = []
        for i, v in enumerate(m):
            row = [i, float(v)] + ([float(closed[i])] if closed is not None else [])
            rows.append(row)
        _table(rows, headers, out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    if args.all and args.path != "gallery":
        raise InvalidParameters(f"--all verifies every gallery model: give 'gallery' as the "
                                f"path, not {args.path!r}")
    if args.path == "gallery":
        # a sweep's truncation goes only to the models that take one
        specs = [(name, args.truncation if _takes_truncation(name) else None)
                 for name in list_models()]
    else:
        specs = [(args.path, args.truncation)]
    worst = EXIT_OK
    summary_payload = []
    for spec, truncation in specs:
        model = _load_input(spec, truncation)[0]
        residuals = identity_residuals(model, magnitude=args.magnitude, seed=args.seed)
        entry = {"model": model.name, "identity_residuals": residuals}
        if any(not v <= model.chain.settings.identity for v in residuals.values()):
            worst = EXIT_VIOLATION
            entry["identity_failure"] = True
        if args.cases > 0:
            summary = fuzz_bounds(model, n_cases=args.cases, magnitude=args.magnitude,
                                  seed=args.seed, include_v_norm=args.v_norm)
            entry["cases"] = summary.n_cases
            entry["violations"] = summary.n_violations
            entry["violation_seeds"] = summary.violation_seeds
            entry["rejected_draws"] = summary.n_rejected
            entry["skipped_bounds"] = summary.skipped_bounds
            entry["tightness"] = summary.tightness()
            if summary.n_violations > 0:
                worst = EXIT_VIOLATION
            elif summary.skipped_bounds and worst < EXIT_WARNINGS:
                worst = EXIT_WARNINGS
        summary_payload.append(entry)
    if args.format == "json":
        _emit_json({"results": summary_payload}, out)
    else:
        for entry in summary_payload:
            print(f"model {entry['model']}:", file=out)
            for k, v in entry["identity_residuals"].items():
                print(f"  {k}: residual {v:.3e}", file=out)
            if "violations" in entry:
                print(f"  fuzz: {entry['cases']} cases, "
                      f"{entry['violations']} violations", file=out)
                if entry["violation_seeds"]:
                    print(f"    violation seeds: {', '.join(map(str, entry['violation_seeds']))}",
                          file=out)
                for bname, stats in entry["tightness"].items():
                    print(f"    {bname}: min ratio {stats['min']:.4g}, "
                          f"mean {stats['mean']:.4g}", file=out)
                for bname, why in entry["skipped_bounds"].items():
                    print(f"    skipped {bname}: {why}", file=out)
    return worst


def cmd_gallery(args, out) -> int:
    if args.action == "list":
        for name in list_models():
            print(name, file=out)
        return EXIT_OK
    model = build_model(args.name, truncation=args.truncation)
    save_chain_file(model, args.dest)
    print(f"wrote {model.name} (n={model.chain.n}) to {args.dest}", file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcperturb",
        description="Stationary-distribution perturbation bounds with exact certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    truncation = argparse.ArgumentParser(add_help=False)
    truncation.add_argument("--truncation", type=int, default=None)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "table"), default="table")

    p = sub.add_parser("validate", parents=[fmt], help="parse and validate a chain file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("bounds", parents=[truncation, fmt],
                       help="compute every applicable bound")
    p.add_argument("path", help="chain file or gallery model name")
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--v-norm", action="store_true",
                   help="include weighted-norm drift bounds (needs weights)")
    p.add_argument("--drift-file", default=None,
                   help="JSON file with a drift vector: {taboo_state, values}")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("hitting", parents=[truncation, fmt],
                       help="mean first hitting times onto a target state")
    p.add_argument("path", help="chain file or gallery model name")
    p.add_argument("--target", type=int, required=True)
    p.set_defaults(func=cmd_hitting)

    p = sub.add_parser("verify", parents=[truncation, fmt],
                       help="identity residuals and bound-validity fuzzing")
    p.add_argument("path", help="chain file, gallery model name, or 'gallery'")
    p.add_argument("--all", action="store_true",
                   help="verify every gallery model (the path must be 'gallery')")
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--magnitude", type=float, default=0.01)
    p.add_argument("--v-norm", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gallery", help="list or export gallery models")
    gsub = p.add_subparsers(dest="action", required=True)
    g = gsub.add_parser("list")
    g.set_defaults(func=cmd_gallery, action="list")
    g = gsub.add_parser("export", parents=[truncation])
    g.add_argument("name")
    g.add_argument("dest")
    g.set_defaults(func=cmd_gallery, action="export")

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, out)
    except McPerturbError as exc:      # parse, validation and parameter errors alike
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
