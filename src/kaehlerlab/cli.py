"""Batch runner: sample catalog cases, run all checks, emit reports.

Subcommands: ``list`` prints the immersion catalog, ``run`` samples points
with a seeded low-discrepancy sequence, evaluates the identity suite and
the recurrence analysis at each point, and writes a JSON or text report.
Exit codes: 0 all checks passed and classifications matched, 1 at least
one check failed or a point hit an internal route disagreement, 2
classification mismatch (with 1 taking precedence), 64 configuration error.
Reports are byte-identical across runs with the same configuration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import identities, recurrence, submanifold

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CLASS_MISMATCH = 2
EXIT_CONFIG_ERROR = 64

DEFAULT_POINTS = 25
DEFAULT_SEED = 42

#: Catalog labels to classifier labels; a generic immersion is expected to
#: land in the non-recurrent class at sampled points.
EXPECTED_CLASS = {
    submanifold.TOTALLY_GEODESIC: recurrence.TOTALLY_GEODESIC,
    submanifold.PARALLEL: recurrence.PARALLEL,
    submanifold.GENERIC: recurrence.NON_RECURRENT,
}


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 64."""


@dataclass
class RunConfig:
    cases: list = field(default_factory=lambda: ["all"])
    points: int = DEFAULT_POINTS
    seed: int = DEFAULT_SEED
    tolerances: dict = field(default_factory=dict)
    out: str | None = None
    fmt: str = "json"

    def resolved_cases(self) -> list:
        names = submanifold.case_names()
        if self.cases == ["all"] or not self.cases:
            return names
        unknown = [c for c in self.cases if c not in names]
        if unknown:
            raise ConfigError(
                f"unknown case names: {', '.join(map(str, unknown))}"
            )
        return [c for c in names if c in self.cases]

    def validate(self):
        if self.points < 1:
            raise ConfigError(f"points must be >= 1, got {self.points}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")
        if self.fmt not in ("json", "text"):
            raise ConfigError(f"format must be json or text, got {self.fmt!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a file path, got {self.out!r}")
        for key, value in self.tolerances.items():
            if key not in identities.REGISTRY_BY_ID:
                raise ConfigError(f"unknown check id in tolerance override: {key}")
            # NaN would fail every point and cannot be written as JSON; an
            # infinite tolerance would switch the check off silently.
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(
                    f"tolerance for {key} must be finite and >= 0, got {value}"
                )
        self.resolved_cases()


def _primes(count: int) -> list:
    out = []
    k = 2
    while len(out) < count:
        if all(k % p for p in out):
            out.append(k)
        k += 1
    return out


def scrambled_halton(dim: int, n_points: int, seed: int) -> np.ndarray:
    """The first ``n_points`` of a scrambled Halton sequence in [0, 1)^dim.

    Coordinate q of point k is the radical inverse of k in the q-th prime
    base b, with digit j mapped through its own random permutation of
    0..b-1 (Owen 2017, "A randomized Halton algorithm in R"); enough digits
    are kept to fill a double.  The permutations are drawn base by base from
    ``np.random.default_rng(seed)``, which gives bit for bit the points of
    ``scipy.stats.qmc.Halton(dim, scramble=True, seed=seed)``.
    """
    rng = np.random.default_rng(seed)
    unit = np.empty((n_points, dim))
    k = np.arange(n_points)[:, None]
    for q, base in enumerate(_primes(dim)):
        n_digits = math.ceil(54 / math.log2(base)) - 1
        j = np.arange(n_digits)
        # Row j is digit j's permutation; the rows are shuffled one after
        # another, as ``rng.shuffle`` on each row in turn would.
        perms = rng.permuted(np.repeat(np.arange(base)[None], n_digits, axis=0),
                             axis=1)
        digits = k // base ** j % base  # [point, j]
        # Weights base^-(j+1) by repeated division and a running sum from the
        # first digit: the rounding of the digit-by-digit loop.
        weights = np.divide.accumulate(np.r_[1.0, np.full(n_digits, base)])[1:]
        unit[:, q] = np.add.accumulate(perms[j, digits] * weights, axis=1)[:, -1]
    return unit


def sample_points(case, n_points: int, seed: int, case_index: int) -> np.ndarray:
    """Low-discrepancy points inside the case domain, deterministic per seed."""
    unit = scrambled_halton(2 * case.m, n_points, seed + case_index)
    lo = np.array([b[0] for b in case.domain])
    hi = np.array([b[1] for b in case.domain])
    return lo + unit * (hi - lo)


def _point_seed(seed: int, case_index: int, point_index: int) -> int:
    return (seed * 1_000_003 + case_index * 1009 + point_index) % 2 ** 63


def run_case(case, config: RunConfig, case_index: int) -> dict:
    points = sample_points(case, config.points, config.seed, case_index)
    expected = EXPECTED_CLASS[case.expected_class]
    point_reports = []
    agg_residual = {chk.identity_id: 0.0 for chk in identities.REGISTRY}
    any_check_failed = False
    any_mismatch = False
    n_skipped = 0
    max_det = 0.0
    for pi, u in enumerate(points):
        entry = {"u": [float(x) for x in u]}
        try:
            data = submanifold.extrinsic_data(case, u)
        except (submanifold.DegeneratePointError,
                submanifold.FrameConstructionError,
                submanifold.PathDisagreementError) as exc:
            entry["skipped"] = str(exc)
            if isinstance(exc, submanifold.PathDisagreementError):
                # A route disagreement is a bug in the engine, not a property
                # of the point: report it and fail the run.
                entry["internal_error"] = {"route": exc.route,
                                           "two_path": exc.two_path}
                any_check_failed = True
            n_skipped += 1
            point_reports.append(entry)
            continue
        checks = identities.run_identity_suite(
            data,
            rng_seed=_point_seed(config.seed, case_index, pi),
            tolerances=config.tolerances,
        )
        entry["checks"] = checks
        entry["frame_residuals"] = dict(data.frame_residuals)
        for chk in checks:
            agg_residual[chk["id"]] = max(agg_residual[chk["id"]], chk["residual"])
            if not chk["passed"]:
                any_check_failed = True
        result = recurrence.classify(data)
        verdict = recurrence.verify_theorems(data, result)
        max_det = max(max_det, verdict["max_shape_determinant"])
        if result.classification != expected:
            any_mismatch = True
        if verdict["passed"] is False:
            any_check_failed = True
        entry["recurrence"] = {
            "classification": result.classification,
            "expected": expected,
            "matched": bool(result.classification == expected),
            "mu": [float(x) for x in result.mu],
            "mu_norm": result.mu_norm,
            "fit_residual": result.fit_residual,
            "b_norm": result.b_norm,
            "nabla_b_norm": result.nabla_b_norm,
            "theorem1_residual": result.theorem1_residual,
            "theorem2_residual": result.theorem2_residual,
            "theorems": {
                "applicable": verdict["applicable"],
                "passed": verdict["passed"],
                "failures": verdict["failures"],
            },
        }
        point_reports.append(entry)
    evaluated = n_skipped < len(points)  # else nothing matched or measured
    report = {
        "name": case.name,
        "ambient": {
            "kind": case.ambient.kind,
            "c": case.ambient.c,
            "m": case.m,
            "l": case.l,
        },
        "points": point_reports,
        "aggregates": {
            "max_residual_per_check":
                agg_residual if evaluated else dict.fromkeys(agg_residual),
            "max_residual": max(agg_residual.values()) if evaluated else None,
            "expected_class": expected,
            "all_classifications_matched":
                not any_mismatch if evaluated else None,
            "skipped_points": n_skipped,
            "max_shape_determinant": max_det if evaluated else None,
            "all_shape_operators_singular":
                bool(max_det <= 1e-12) if evaluated else None,
        },
    }
    return report, any_check_failed, any_mismatch


def run(config: RunConfig):
    """Execute a full run; returns (exit_code, report_dict)."""
    config.validate()
    case_names = config.resolved_cases()
    cases = [submanifold.get_case(n) for n in case_names]
    report = {"schema": 1, "seed": config.seed, "points_per_case": config.points,
              "cases": []}
    any_fail = False
    any_mismatch = False
    for case in cases:
        case_index = submanifold.case_names().index(case.name)
        case_report, failed, mismatched = run_case(case, config, case_index)
        report["cases"].append(case_report)
        any_fail = any_fail or failed
        any_mismatch = any_mismatch or mismatched
    if any_fail:
        code = EXIT_CHECK_FAILURE
    elif any_mismatch:
        code = EXIT_CLASS_MISMATCH
    else:
        code = EXIT_OK
    return code, report


def render_text(report: dict) -> str:
    """Fixed-width aggregate summary, one row per case."""
    lines = []
    header = (
        f"{'case':<16}{'ambient':<14}{'c':>6}{'max residual':>16}"
        f"{'class ok':>10}{'skipped':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for case in report["cases"]:
        agg = case["aggregates"]
        worst = agg["max_residual"]
        lines.append(
            f"{case['name']:<16}{case['ambient']['kind']:<14}"
            f"{case['ambient']['c']:>6.2f}"
            f"{'None' if worst is None else format(worst, '.3e'):>16}"
            f"{str(agg['all_classifications_matched']):>10}"
            f"{agg['skipped_points']:>9}"
        )
    return "\n".join(lines) + "\n"


def render_json(report: dict) -> str:
    """The report as compact JSON on one line (``python -m json.tool``
    pretty-prints it): the bytes of one ``json.dumps`` with sorted keys,
    encoded one point at a time.  The encoder holds every piece of what it
    encodes until it joins them, about 7 times the text: 2.7 MB at once
    for the whole default report, 0.7 MB in all when encoded by points."""
    return _compact(report, depth=4) + "\n"


def _compact(obj, depth: int) -> str:
    """``obj`` as compact JSON with sorted keys; the dicts and lists within
    ``depth`` levels are joined from their members' encodings."""
    if depth and isinstance(obj, dict):
        return "{" + ",".join(
            json.dumps(key) + ":" + _compact(obj[key], depth - 1)
            for key in sorted(obj)) + "}"
    if depth and isinstance(obj, list):
        return "[" + ",".join(_compact(x, depth - 1) for x in obj) + "]"
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def list_cases_text() -> str:
    lines = []
    for case in submanifold.CATALOG:
        lines.append(
            f"{case.name:<16} m={case.m} l={case.l} "
            f"ambient={case.ambient.kind} c={case.ambient.c:g} "
            f"expected={case.expected_class}"
        )
    return "\n".join(lines) + "\n"


def _parse_tol(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"tolerance override must be ID=VALUE, got {item!r}")
        key, _, val = item.partition("=")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"bad tolerance value in {item!r}") from exc
    return out


def _default_seed() -> int:
    env = os.environ.get("KAEHLERLAB_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError as exc:
        raise ConfigError(f"KAEHLERLAB_SEED must be an integer, got {env!r}") from exc


def _of_type(value, kinds, key: str):
    """A config-file value, refused unless it is one of ``kinds``: no
    coercion, and JSON ``true`` and ``false`` are not numbers."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(
            f"bad value for {key} in config file: {json.dumps(value)}")
    return value


def build_config(args) -> RunConfig:
    config = RunConfig()
    # KAEHLERLAB_SEED is read only when neither --seed nor the file sets it.
    seed = args.seed
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        config.points = _of_type(raw.get("points", config.points), int,
                                 "points")
        if "seed" in raw:
            file_seed = _of_type(raw["seed"], int, "seed")
            seed = file_seed if seed is None else seed
        config.cases = [_of_type(name, str, "cases") for name in
                        _of_type(raw.get("cases", config.cases), list, "cases")]
        tolerances = _of_type(raw.get("tolerances", {}), dict, "tolerances")
        try:
            config.tolerances = {key: float(_of_type(value, (int, float), key))
                                 for key, value in tolerances.items()}
        except OverflowError as exc:
            raise ConfigError(f"bad value in config file: {exc}") from exc
        config.out = raw.get("out", config.out)
        config.fmt = raw.get("format", config.fmt)
    if args.case:
        config.cases = list(args.case)
    if args.points is not None:
        config.points = args.points
    config.seed = _default_seed() if seed is None else seed
    if args.tol:
        config.tolerances.update(_parse_tol(args.tol))
    if args.out is not None:
        config.out = args.out
    if args.format is not None:
        config.fmt = args.format
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kaehlerlab",
        description="Verify extrinsic-geometry identities on catalog immersions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="print the immersion catalog")
    run_p = sub.add_parser("run", help="run the verification suite")
    run_p.add_argument("--config", help="JSON config file; flags override it")
    run_p.add_argument("--case", action="append",
                       help="case name (repeatable); default all")
    run_p.add_argument("--points", type=int, default=None,
                       help=f"points per case (default {DEFAULT_POINTS})")
    run_p.add_argument("--seed", type=int, default=None,
                       help="rng seed (default KAEHLERLAB_SEED or "
                            f"{DEFAULT_SEED})")
    run_p.add_argument("--tol", action="append", metavar="ID=VALUE",
                       help="tolerance override (repeatable)")
    run_p.add_argument("--out", help="output path (default stdout)")
    run_p.add_argument("--format", choices=["json", "text"], default=None,
                       help="report format (default json)")
    args = parser.parse_args(argv)

    if args.command == "list":
        sys.stdout.write(list_cases_text())
        return EXIT_OK

    try:
        config = build_config(args)
        code, report = run(config)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG_ERROR
    rendered = render_json(report) if config.fmt == "json" else render_text(report)
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write report: {exc}\n")
            return EXIT_CONFIG_ERROR
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
