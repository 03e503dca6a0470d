"""Command-line front door.

Every artifact embeds the spec digest, scheme descriptor and seed, and the
numpy and scipy versions; a rerun of the same argv under the same versions
produces byte-identical output.  Exit codes: 0 on
success, 1 on usage or input errors, 2 when a certification property was
violated (claim-check found a bad matrix, or the trivial-lift demo failed
to find a refuting pair).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys

import numpy as np
import scipy

from . import __version__
from .certify import (
    PairConfig,
    TripleConfig,
    claim_check,
    composition_monotonicity_demo,
    quasisymmetry_profile,
    two_point_delta,
)
from .core import batch_map, parse_map_spec, power_radial_map
from .errors import InvalidParameterError, MonoliftError
from .extension import (
    ExtensionTable,
    extend_points,
    extension_jacobian,
    full_space_map,
    gaussian_extension,
    lattice_points,
    trivial_lift_map,
)
from .hyperbolic import bilipschitz_sample, sample_height_pairs, vertical_comparison
from .measure import (
    doubling_report,
    gaussian_moment_ratio,
    jacobian_norm_density,
    lebesgue_density,
)
from .quadrature import check_integer, default_scheme
from .tableio import csv_line, write_csv, write_json

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the artifact contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _floats(text):
    try:
        return np.array([float(p) for p in text.split(",") if p != ""])
    except ValueError as exc:
        raise MonoliftError(f"expected a comma-separated float list, got {text!r}") from exc


def _ints(text):
    values = _floats(text)
    if not all(float(v).is_integer() for v in values):
        raise InvalidParameterError(f"expected a comma-separated integer list, got {text!r}")
    return [int(v) for v in values]


def _load_spec(value):
    text = value
    if not value.lstrip().startswith("{"):
        if not os.path.exists(value):
            raise MonoliftError(f"spec file not found: {value}")
        with open(value, "r", encoding="utf-8") as handle:
            text = handle.read()
    return parse_map_spec(text)


def _scheme_for(args, dim):
    return default_scheme(dim, args.scheme_seed, args.method, args.resolution)


def _field(args):
    """The Gaussian lift of ``--spec`` on the rule the scheme flags pick."""
    spec = _load_spec(args.spec)
    return gaussian_extension(spec, _scheme_for(args, spec.dim))


def _density_for(args):
    """The ||Df|| density of ``--spec``, or Lebesgue measure in ``--dim``."""
    if args.spec:
        spec = _load_spec(args.spec)
        return spec, jacobian_norm_density(spec), spec.dim
    return None, lebesgue_density(), check_integer(args.dim, "dim", 1)


def _meta(args, spec=None, scheme=None, seed=None, **extra):
    # the library versions: rerun byte-identity holds only under the same ones
    meta = {"tool": f"monolift {__version__}", "numpy": np.__version__,
            "scipy": scipy.__version__, "subcommand": args.command}
    if spec is not None:
        meta["spec"] = spec.digest()
    if scheme is not None:
        # the descriptor names the rule; the node count is what it kept
        meta["scheme"], meta["nodes"] = scheme.descriptor(), scheme.size
    if seed is not None:
        meta["seed"] = seed
    meta.update(extra)
    return meta


def _lattice(args, dim):
    """The ``--grid-bounds`` x ``--grid-nx`` lattice crossed with ``--heights``."""
    return lattice_points(dim, tuple(args.grid_bounds), args.grid_nx, tuple(args.heights))


@contextlib.contextmanager
def _output(args):
    """The ``--out`` file opened for writing, or stdout."""
    if not args.out:
        yield sys.stdout
        return
    try:
        handle = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise MonoliftError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    with handle:
        yield handle


def _emit(args, meta, body, columns=None, rows=None):
    """``meta`` and the table as CSV when given one and ``--format`` is not
    json, else ``meta`` followed by ``body`` as JSON."""
    with _output(args) as handle:
        if columns is not None and args.format != "json":
            write_csv(handle, columns, rows, meta)
        else:
            write_json(handle, {"meta": meta, **body})


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_extend(args):
    field = _field(args)
    if args.x is not None:
        X, T = _floats(args.x)[None, :], np.array([args.t])
    else:
        X, T = _lattice(args, field.dim)
    table = ExtensionTable(np.column_stack([X, T]), extend_points(field, X, T))
    columns, rows = table.columns(), table.rows()
    bare = args.x is not None and args.format != "json"
    if args.out or not bare:
        _emit(args, _meta(args, field.spec, field.scheme, field.scheme.seed),
              {"columns": columns, "rows": rows.tolist()}, columns, rows)
    if bare:
        # a single point prints its bare row, after --out got the full table
        sys.stdout.write(csv_line(rows[0]) + "\n")
    return 0


def _cmd_jacobian(args):
    field = _field(args)
    x = _floats(args.x)
    DF = extension_jacobian(field, (x, args.t))
    meta = _meta(args, field.spec, field.scheme, field.scheme.seed)
    if args.format == "json":
        _emit(args, meta, {"x": x.tolist(), "t": args.t, "jacobian": DF.tolist()})
        return 0
    # headerless: a line naming the point and the rule, a '# key=value' line
    # for each meta key it does not carry, then the n+1 rows of DF
    first = ("spec", "scheme", "nodes", "numpy", "scipy")
    with _output(args) as handle:
        handle.write(f"# x={csv_line(x)} t={args.t} "
                     + " ".join(f"{key}={meta[key]}" for key in first) + "\n"
                     + "".join(f"# {key}={value}\n" for key, value in meta.items()
                               if key not in first)
                     + "".join(csv_line(row) + "\n" for row in DF))
    return 0


def _target_map(args):
    """The map certify-delta samples (base, Gaussian lift, or trivial lift),
    its spec, and the scheme of the Gaussian lift, else None."""
    if args.lift == "gaussian":
        field = _field(args)
        return full_space_map(field), field.spec, field.scheme
    spec = _load_spec(args.spec)
    return batch_map(spec) if args.lift == "none" else trivial_lift_map(spec), spec, None


def _cmd_certify_delta(args):
    F, spec, scheme = _target_map(args)
    cfg = PairConfig(
        # both lifts map the half space of R^{n+1}
        dim=spec.dim + (args.lift != "none"), pairs=args.pairs, seed=args.seed,
        log_radius_range=(args.log_radius[0], args.log_radius[1]),
        box=args.box, crossing_pairs=args.crossing,
        witness_radii=tuple(args.witness_radii or ()),
    )
    cert = two_point_delta(F, cfg)
    _emit(args, _meta(args, spec, scheme, args.seed, lift=args.lift), cert.json_dict())
    return 0


def _cmd_certify_qs(args):
    spec = _load_spec(args.spec)
    cfg = TripleConfig(dim=spec.dim, triples=args.triples, seed=args.seed,
                       box=args.box, buckets=args.buckets)
    profile = quasisymmetry_profile(spec, cfg)
    body = {
        "bucket_edges": profile.bucket_edges.tolist(),
        "envelope": [None if not np.isfinite(v) else v for v in profile.envelope],
        "skipped": profile.skipped,
    }
    _emit(args, _meta(args, spec, seed=args.seed, skipped=profile.skipped), body,
          ["s", "q"], profile.csv_rows())
    return 0


def _cmd_claim_check(args):
    report = claim_check(dims=tuple(_ints(args.dims)), count=args.matrices,
                         seed=args.seed, delta_floor=args.delta_floor)
    _emit(args, _meta(args, seed=args.seed), report.json_dict())
    return 2 if report.total_violations else 0


def _parse_centers(text, dim):
    rows = [_floats(part) for part in text.split(";") if part]
    if not rows:
        raise InvalidParameterError(f"no center was given in {text!r}")
    if any(row.size != dim for row in rows):
        raise MonoliftError(f"centers must each have {dim} coordinates")
    return np.array(rows)


def _cmd_doubling(args):
    spec, density, dim = _density_for(args)
    centers = _parse_centers(args.centers, dim)
    radii = _floats(args.radii)
    report = doubling_report(density, centers, radii)
    _emit(args, _meta(args, spec, constant_hat=report.constant_hat),
          {"constant_hat": report.constant_hat, "ratios": report.ratios.tolist()},
          report.columns(), report.rows())
    return 0


def _cmd_moments(args):
    spec, density, dim = _density_for(args)
    scheme = _scheme_for(args, dim)
    normal = _floats(args.halfspace) if args.halfspace else None
    ratio = gaussian_moment_ratio(density, args.p, dim, halfspace_normal=normal,
                                  scheme=scheme)
    body = {"p": ratio.p, "integral": ratio.integral, "ball_mass": ratio.ball_mass,
            "ratio": ratio.ratio}
    _emit(args, _meta(args, spec, scheme), body)
    return 0


def _cmd_hyperbolic(args):
    if args.pairs and args.format == "csv":
        raise InvalidParameterError("hyperbolic --pairs writes JSON only, not --format csv")
    field = _field(args)
    if args.pairs:
        P, Q = sample_height_pairs(field.dim, args.pairs, seed=args.seed)
        report = bilipschitz_sample(field, P, Q)
        _emit(args, _meta(args, field.spec, field.scheme, args.seed), report.json_dict())
        return 0
    X, T = _lattice(args, field.dim)
    report = vertical_comparison(field, X, T)
    meta = _meta(args, field.spec, field.scheme, field.scheme.seed, spread=report.spread)
    body = {
        "spread": report.spread,
        "ratio_min": float(report.ratios.min()),
        "ratio_max": float(report.ratios.max()),
    }
    _emit(args, meta, body, report.columns(), report.rows())
    return 0


def _cmd_demo_composition(args):
    report = composition_monotonicity_demo(args.theta1, args.theta2,
                                           pairs=args.pairs, seed=args.seed)
    _emit(args, _meta(args, seed=args.seed), report.json_dict())
    return 0


def _cmd_demo_trivial_failure(args):
    # naive lift of the radial stretch |x| x; the witness family drives the
    # two-point ratio to ~ 2/sqrt(R), far below the 0.1 bar
    if not np.isfinite(args.threshold):
        raise InvalidParameterError(f"threshold must be finite, got {args.threshold}")
    spec = power_radial_map(args.dim, 1.0)
    F = trivial_lift_map(spec)
    cfg = PairConfig(dim=spec.dim + 1, pairs=args.pairs, seed=args.seed,
                     witness_radii=tuple(args.witness_radii))
    cert = two_point_delta(F, cfg)
    found = cert.delta_hat <= args.threshold
    _emit(args, _meta(args, spec, seed=args.seed),
          {"threshold": args.threshold, "refuted": bool(found), **cert.json_dict()})
    return 0 if found else 2


# ---------------------------------------------------------------------------
# parser assembly

def _add_scheme_flags(p):
    p.add_argument("--method", choices=["tensor_hermite", "quasi_random"], default=None)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--scheme-seed", type=int, default=0)


def _add_grid_flags(p):
    p.add_argument("--grid-bounds", type=float, nargs=2, default=(-2.0, 2.0))
    p.add_argument("--grid-nx", type=int, default=9)
    p.add_argument("--heights", type=float, nargs="+", default=(0.25, 0.5, 1.0, 2.0))


def _add_output_flags(p, formats=("csv", "json"), pick_default=True):
    """``--out``, and ``--format`` among the ``formats`` the command
    writes: the first by default, or None unless ``pick_default``, for a
    command that picks its format from its other flags."""
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=formats, default=formats[0] if pick_default else None)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on the first call and shared by every later one."""
    parser = _Parser(prog="monolift", description=__doc__)
    parser.add_argument("--version", action="version", version=f"monolift {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extend", help="evaluate the Gaussian lift on a point or grid")
    p.add_argument("--spec", required=True)
    p.add_argument("--x", default=None, help="comma-separated base point")
    p.add_argument("--t", type=float, default=0.0)
    _add_grid_flags(p)
    _add_scheme_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("jacobian", help="lifted-map Jacobian at one point")
    p.add_argument("--spec", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--t", type=float, required=True)
    _add_scheme_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_jacobian)

    p = sub.add_parser("certify-delta", help="two-point monotonicity certificate")
    p.add_argument("--spec", required=True)
    p.add_argument("--lift", choices=["none", "gaussian", "trivial"], default="none")
    p.add_argument("--pairs", type=int, default=20000)
    p.add_argument("--crossing", type=int, default=0)
    p.add_argument("--witness-radii", type=float, nargs="*", default=None)
    p.add_argument("--log-radius", type=float, nargs=2, default=(-3.0, 3.0))
    p.add_argument("--box", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    _add_scheme_flags(p)
    _add_output_flags(p, ("json",))
    p.set_defaults(func=_cmd_certify_delta)

    p = sub.add_parser("certify-qs", help="quasisymmetry ratio profile")
    p.add_argument("--spec", required=True)
    p.add_argument("--triples", type=int, default=20000)
    p.add_argument("--buckets", type=int, default=40)
    p.add_argument("--box", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_certify_qs)

    p = sub.add_parser("claim-check", help="singular-value claim brute force")
    p.add_argument("--matrices", type=int, default=10000)
    p.add_argument("--dims", default="2,3")
    p.add_argument("--delta-floor", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=7)
    _add_output_flags(p, ("json",))
    p.set_defaults(func=_cmd_claim_check)

    p = sub.add_parser("doubling", help="mass(2B)/mass(B) over a center/radius grid")
    p.add_argument("--spec", default=None, help="use the ||Df|| density of this map")
    p.add_argument("--dim", type=int, default=2, help="dimension for --spec-less Lebesgue runs")
    p.add_argument("--centers", default="0,0", help="semicolon-separated center list")
    p.add_argument("--radii", default="0.5,1,2")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_doubling)

    p = sub.add_parser("moments", help="Gaussian moment / unit-ball mass ratio")
    p.add_argument("--spec", default=None)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--halfspace", default=None, help="restrict to <y, xi> >= 0")
    _add_scheme_flags(p)
    _add_output_flags(p, ("json",))
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("hyperbolic", help="vertical comparison / hyperbolic distortion")
    p.add_argument("--spec", required=True)
    _add_grid_flags(p)
    p.add_argument("--pairs", type=int, default=0,
                   help="sample this many point pairs instead of the ratio grid")
    p.add_argument("--seed", type=int, default=0)
    _add_scheme_flags(p)
    # no default format: the grid writes CSV unless told otherwise, --pairs only JSON
    _add_output_flags(p, pick_default=False)
    p.set_defaults(func=_cmd_hyperbolic)

    p = sub.add_parser("demo-composition", help="monotone rotations whose composite is not")
    p.add_argument("--theta1", type=float, required=True)
    p.add_argument("--theta2", type=float, required=True)
    p.add_argument("--pairs", type=int, default=4000)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p, ("json",))
    p.set_defaults(func=_cmd_demo_composition)

    p = sub.add_parser("demo-trivial-failure",
                       help="adversarial pairs breaking the naive lift of |x| x")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--witness-radii", type=float, nargs="+",
                   default=(25.0, 100.0, 400.0))
    p.add_argument("--threshold", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p, ("json",))
    p.set_defaults(func=_cmd_demo_trivial_failure)

    return parser


def main(argv=None) -> int:
    """Run one command line; returns its exit code.

    One parser serves every call in a process: it is built on the first call,
    not at import, so importing the module stays cheap, and parsing leaves it
    unchanged, since every default is immutable.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MonoliftError as exc:
        sys.stderr.write(f"monolift: error: {exc}\n")
        return 1
