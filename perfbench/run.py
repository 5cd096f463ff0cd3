"""kaehlerlab benchmark: verified points per reference second, set-up time, memory.

Drives the package in-process through ``cli.run``, ``cli.run_case`` and
``cli.render_json``, one closed-loop caller, and gates every result: exit
code, classifications, registry tolerances and byte-identical reports for
repeated seeds.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced calls of the workload and prints the
per-layer split, set-up decomposition and jet micro-benchmarks.  The last
stdout line is the result object; the line before it is the environment.
Results (and spans, when traced) are written to ``perfbench/out/``.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 36 --trace 0
"""

import os

# Pin BLAS pools before numpy loads: the benchmark is one single-threaded caller.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 3
#: Jet micro-benchmarks: ring sizes (those the workloads use), operations
#: timed back to back per sample, samples per figure (median reported).
MICRO_RINGS = (2, 6, 8, 10)
MICRO_OPS_PER_SAMPLE = 500
MICRO_SAMPLES = 9
#: Host-speed reference (see DESIGN.md): REF_PROBE_REPS rounds of a fixed
#: loop take about REF_PROBE_S on a quiet core of the reference host, which
#: scales points_per_ref_s to points per second at that host's speed.
REF_PROBE_REPS = 4000
REF_PROBE_S = 0.1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def probe_setup(rings, repeats: int) -> dict:
    """Median of fresh-interpreter set-ups, one child at a time."""
    cmd = [sys.executable, str(HERE / "setup_probe.py")]
    cmd += [f"{nu}:{total}" for nu, total in rings]
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        samples.append({**json.loads(line), "setup_s": ready})
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def gate(outcomes, exit_ok: int) -> dict:
    """Correctness over every call of one seed: no failed point, exit code
    OK and byte-identical rendered reports."""
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    first = outcomes[0].rendered
    identical = first is not None and all(o.rendered == first for o in outcomes)
    exits_ok = all(o.exit_code == exit_ok for o in outcomes)
    return {"correct": failed == 0 and identical and exits_ok,
            "attempted": attempted, "failed": failed,
            "byte_identical": identical, "exit_codes_ok": exits_ok}


def reference_probe() -> float:
    """Seconds for a fixed loop owned by the benchmark: small numpy gathers
    and a bincount, as in a jet product, plus Python integer work.  Nothing
    in it depends on the program, so only the host's speed moves it."""
    import numpy as np

    rng = np.random.default_rng(0)
    idx = rng.integers(0, 286, (3, 4000))
    a, b = rng.uniform(-1.0, 1.0, (2, 286))
    t0 = time.perf_counter()
    for _ in range(REF_PROBE_REPS):
        np.bincount(idx[2], weights=a[idx[0]] * b[idx[1]], minlength=286)
        acc = 0
        for i in range(200):
            acc += i * i
    return time.perf_counter() - t0


def measure(workload, seed: int, seconds: float):
    """Call the workload with one seed while the next call is expected to end
    within ``seconds`` (and at least twice, for the determinism gate).

    The reference probe runs before every call and after the last.  Returns
    the outcomes, call seconds, probe seconds, and verified points per wall
    second and per reference second: each call's time scaled by REF_PROBE_S
    over the mean of the probes on either side of it.  On a shared host the
    core's speed changes by up to 2x in phases of seconds to minutes; the
    reference rate takes most of that out and keeps the program's own speed.
    """
    outcomes, times, probes = [], [], [reference_probe()]
    while len(times) < 2 or (sum(times) + sum(probes)) * (
            1 + 1 / len(times)) <= seconds:
        t0 = time.perf_counter()
        outcomes.append(workload.run(seed))
        times.append(time.perf_counter() - t0)
        probes.append(reference_probe())
    verified = sum(o.attempted - o.failed for o in outcomes)
    ref_s = sum(ref_seconds(times, probes))
    return outcomes, times, probes, verified / sum(times), verified / ref_s


def ref_seconds(times, probes) -> list:
    """Each call's wall time scaled by REF_PROBE_S over the mean of the
    reference probes taken just before and just after it."""
    return [t * 2 * REF_PROBE_S / (before + after)
            for t, before, after in zip(times, probes, probes[1:])]


def measure_traced(workload, seed: int, seconds: float):
    """Alternate an untraced and a traced call of one seed while the next pair
    is expected to end within ``seconds`` (at least one pair), with a
    reference probe between calls.  Each traced call is one run id under its
    own root span.  Returns outcomes, the tracer, the root spans, and the
    untraced and traced call times in reference seconds."""
    from tracing import Tracer

    tracer = Tracer()
    outcomes, roots, times, probes = [], [], [], [reference_probe()]
    start = time.perf_counter()
    while not roots or ((time.perf_counter() - start) * (1 + 1 / len(roots))
                        <= seconds):
        t0 = time.perf_counter()
        outcomes.append(workload.run(seed))
        times.append(time.perf_counter() - t0)
        probes.append(reference_probe())
        with tracer:
            root = tracer.open("workload." + workload.name)
            try:
                outcomes.append(workload.run(seed))
            finally:
                tracer.close(root)
        times.append(root.end - root.start)
        probes.append(reference_probe())
        roots.append(root)
        tracer.run_id += 1
    ref = ref_seconds(times, probes)
    return outcomes, tracer, roots, times[0::2], ref[0::2], ref[1::2]


def jet_micro(seed: int) -> dict:
    """Median microseconds per jet operation on random full jets."""
    import numpy as np
    from kaehlerlab.jets import Jet, multi_indices

    rng = np.random.default_rng(seed)
    out = {}
    for n in MICRO_RINGS:
        size = len(multi_indices(n))
        a = Jet(n, rng.uniform(-1.0, 1.0, size))
        b = Jet(n, rng.uniform(-1.0, 1.0, size))
        a.c[0] = 2.0  # keep the reciprocal well away from its floor
        ops = {"mul": lambda: a * b,
               "derivative": lambda: a.derivative(n - 1),
               "reciprocal": a.reciprocal}
        for name, fn in ops.items():
            per_op = []
            for _ in range(MICRO_SAMPLES):
                t0 = time.perf_counter()
                for _ in range(MICRO_OPS_PER_SAMPLE):
                    fn()
                per_op.append((time.perf_counter() - t0) / MICRO_OPS_PER_SAMPLE)
            out[f"jets.{name}_us.n{n}"] = (statistics.median(per_op) * 1e6, "us")
    return out


def layer_metrics(workload, outcomes, tracer, roots, plain_s, plain_ref,
                  traced_ref) -> dict:
    """Per-layer figures over the traced calls, normalised per point;
    name -> (value, unit).  Outcomes alternate untraced and traced calls."""
    from tracing import OPS, STAGES, stage_label
    from workloads import ALL_CASES

    summary = tracer.summary(roots)
    traced = outcomes[1::2]
    pts = sum(o.attempted for o in traced)

    def agg(name):
        return summary.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                  "ops": [0] * len(OPS)})

    def ms_per_point(name, key="incl_s"):
        return agg(name)[key] * 1e3 / pts, "ms"

    def per_point(count):
        return count / pts, "count"

    m = {"submanifold.extrinsic_data.ms_per_point":
         ms_per_point("submanifold.extrinsic_data")}
    for stage in STAGES:
        name = "submanifold." + stage_label(stage)
        m[name + ".ms_per_point"] = ms_per_point(name)
        m[name + ".self_ms_per_point"] = ms_per_point(name, "self_s")
        m[name + ".jet_mul_per_point"] = per_point(agg(name)["ops"][0])
    m["ambient.curvature_operator.calls_per_point"] = per_point(
        agg("ambient.curvature_operator")["calls"])
    for name in ("ambient.curvature_operator", "ambient.metric",
                 "ambient.christoffel_from_metric",
                 "identities.run_identity_suite", "recurrence.classify",
                 "recurrence.verify_theorems"):
        m[name + ".ms_per_point"] = ms_per_point(name)
    for op, count in zip(OPS, agg(roots[0].name)["ops"]):
        m[f"jets.{op}.per_point"] = per_point(count)
    m["jets.matrix_inverse.calls_per_point"] = per_point(
        agg("jets.matrix_inverse")["calls"])
    m["identities.max_residual"] = (max(o.max_residual for o in traced), "ratio")
    m["cli.sample_points.ms"] = (agg("cli.sample_points")["incl_s"] * 1e3, "ms")
    m["cli.render_json.ms"] = (agg("cli.render_json")["incl_s"] * 1e3, "ms")
    m["cli.report_bytes"] = (len(traced[0].rendered.encode()), "bytes")
    m["cli.run_case.self_ms_per_point"] = ms_per_point("cli.run_case", "self_s")
    case_s = {}
    for case, spans in case_spans(workload, tracer).items():
        case_s[case.name] = len(spans) * workload.points / sum(
            s.end - s.start for s in spans)
    for case in ALL_CASES:
        m[f"cli.run_case.points_per_s.{case.name}"] = (
            case_s.get(case.name, 0.0), "points/s")
    untraced = outcomes[0::2]
    m["workload.wall_points_per_s"] = (
        sum(o.attempted - o.failed for o in untraced) / sum(plain_s), "points/s")
    extra = sum(traced_ref) - sum(plain_ref)
    m["trace.overhead_s"] = (extra / len(roots), "ref_s")
    m["trace.overhead_frac"] = (extra / sum(plain_ref), "ratio")
    return m


def case_spans(workload, tracer) -> dict:
    """The run_case spans of each case.  Every traced call visits the cases
    in catalog order, which is the order every workload lists them in."""
    spans = [s for s in tracer.spans if s.name == "cli.run_case"]
    n = len(workload.cases)
    return {case: spans[k::n] for k, case in enumerate(workload.cases)}


def stage_split(workload, tracer) -> dict:
    """Per case: inclusive and self ms per point of each geometry stage."""
    from tracing import STAGES, stage_label

    out = {}
    for case, spans in case_spans(workload, tracer).items():
        summary = tracer.summary(spans)
        pts = len(spans) * workload.points
        out[case.name] = {
            stage_label(st): {
                key: summary.get("submanifold." + stage_label(st),
                                 {key: 0.0})[key] * 1e3 / pts
                for key in ("incl_s", "self_s")}
            for st in STAGES}
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "seed": seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kaehlerlab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no kaehlerlab package under {SRC}; run from "
                         "the root of a repository checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import kaehlerlab
    from kaehlerlab import cli
    from workloads import WORKLOADS

    if Path(kaehlerlab.__file__).resolve().parent != SRC / "kaehlerlab":
        sys.stderr.write(f"error: imported kaehlerlab from {kaehlerlab.__file__}, "
                         f"not {SRC}\n")
        return 2
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose "
                         f"from {', '.join(WORKLOADS)}\n")
        return 2
    workload = WORKLOADS[args.workload]

    setup = probe_setup(workload.rings, SETUP_REPEATS)
    workload.run(args.seed, points=1)  # warm-up: lazy tables and imports
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "setup": setup}
    if args.trace == 0:
        outcomes, times, probes, wall_rate, ref_rate = measure(
            workload, args.seed, args.seconds)
        verdict = gate(outcomes, cli.EXIT_OK)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "points_per_ref_s": (ref_rate, "points/ref_s"),
            "setup_s": (setup["setup_s"], "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "verified_frac": (1.0 - verdict["failed"] / verdict["attempted"],
                              "ratio"),
        }
        record["call_seconds"] = times
        record["probe_seconds"] = probes
        record["wall_points_per_s"] = wall_rate
    else:
        outcomes, tracer, roots, plain_s, plain_ref, traced_ref = (
            measure_traced(workload, args.seed, args.seconds))
        verdict = gate(outcomes, cli.EXIT_OK)
        metrics = {f"setup.{k}": (v, "s") for k, v in setup.items()
                   if k != "setup_s"}
        if verdict["correct"]:
            metrics.update(layer_metrics(workload, outcomes, tracer, roots,
                                         plain_s, plain_ref, traced_ref))
        metrics.update(jet_micro(args.seed))
        record["stage_ms_per_point_by_case"] = stage_split(workload, tracer)
        record["spans"] = tracer.export()

    record["environment"] = environment(args.seed)
    record["verdict"] = verdict
    result = {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    record["result"] = result
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n")
    print(json.dumps({"environment": record["environment"],
                      "verdict": verdict, "record": str(out_file.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
