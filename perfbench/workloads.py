"""The benchmark's workloads and the correctness gate applied to their output.

Each workload is one closed-loop caller that drives kaehlerlab through its
public entry points (``cli.run``, ``cli.run_case``, ``cli.render_json``) and
returns the rendered report plus the per-point verdicts read back from it.
Entry points are looked up on their module at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass

from kaehlerlab import ambient, cli, identities, submanifold


def _chart_segre(z):
    return [z[0], z[1], z[0] * z[1]]


#: The Segre quadric CP1 x CP1 in CP3: a parallel Kaehler surface (m = 2).
#: Defined here from the public ImmersionCase so the catalog is untouched.
SEGRE = submanifold.ImmersionCase(
    "segre_cp1xcp1", 2, ambient.fubini_study(4.0, 3), _chart_segre,
    ((-1.0, 1.0),) * 4, submanifold.PARALLEL,
)

#: Every case any workload runs; per-case metrics are reported for each.
ALL_CASES = tuple(submanifold.CATALOG) + (SEGRE,)

FLAT_C2 = ("linear_c2", "graph_z2_c2", "graph_z3_c2")


@dataclass
class Outcome:
    """One call of a workload: what a user would get back, and its verdict."""

    rendered: str | None
    exit_code: int | None
    attempted: int
    failed: int
    max_residual: float


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple
    points: int

    @property
    def rings(self) -> list:
        """Jet ring sizes the geometry uses: (parameters, parameters + ambient)."""
        return sorted({(2 * c.m, 2 * c.m + c.ambient.real_dim) for c in self.cases})

    def run(self, seed: int, points: int | None = None) -> Outcome:
        """Evaluate, render and gate one report; never raises on a route clash."""
        points = self.points if points is None else points
        attempted = points * len(self.cases)
        config = cli.RunConfig(cases=[c.name for c in self.cases],
                               points=points, seed=seed)
        try:
            if self.cases == (SEGRE,):
                case_report, any_fail, any_mismatch = cli.run_case(
                    SEGRE, config, len(submanifold.CATALOG))
                report = {"seed": seed, "cases": [case_report]}
                code = (cli.EXIT_CHECK_FAILURE if any_fail else
                        cli.EXIT_CLASS_MISMATCH if any_mismatch else cli.EXIT_OK)
            else:
                code, report = cli.run(config)
        except submanifold.PathDisagreementError:
            return Outcome(None, None, attempted, attempted, float("inf"))
        failed = sum(point_failed(entry)
                     for case in report["cases"] for entry in case["points"])
        seen = sum(len(case["points"]) for case in report["cases"])
        failed += attempted - seen
        max_residual = max(case["aggregates"]["max_residual"]
                           for case in report["cases"])
        return Outcome(cli.render_json(report), code, attempted, failed,
                       max_residual)


def point_failed(entry: dict) -> bool:
    """Skipped, any check over its registry tolerance, wrong class, or a
    failed theorem verdict."""
    if "skipped" in entry:
        return True
    for chk in entry["checks"]:
        tol = identities.REGISTRY_BY_ID[chk["id"]].tolerance
        if not chk["passed"] or not chk["residual"] <= tol:
            return True
    rec = entry["recurrence"]
    return not rec["matched"] or rec["theorems"]["passed"] is False


WORKLOADS = {
    # The default `kaehlerlab run`: all five catalog cases x 25 points.
    "catalog": Workload("catalog", tuple(submanifold.CATALOG),
                        cli.DEFAULT_POINTS),
    # Flat C2 curves only: cheap geometry, no curvature_operator calls, so the
    # identity suite, classifier, rendering and per-point overhead weigh most.
    "flat_c2": Workload("flat_c2",
                        tuple(submanifold.get_case(n) for n in FLAT_C2), 40),
    # The only m = 2 case: ring n = 10, curved ambient, intrinsic curvature
    # stage dominated by curvature_operator.
    "surface_m2": Workload("surface_m2", (SEGRE,), 3),
}
