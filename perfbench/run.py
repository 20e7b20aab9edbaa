"""netcap benchmark: seeded workloads timed through the public library calls.

Run from the root of a netcap checkout:

    python3 perfbench/run.py --workload corollary --seed 1 --seconds 36 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones
(spans are also written to .perfbench/).  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 only when every case's output is correct; it is 2 when the
checkout holds no netcap sources.  `--record` rewrites the reference outputs
for the given seed instead of comparing against them.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import workloads
from tracing import TIME_UNITS, Tracer, layer_metrics

DEFAULT_SEED = 1
SETUP_REPEATS = 7
MIN_PASSES = 2  # untraced passes per run; a traced run makes this many of each kind
TAIL_BEYOND = 10  # the tail percentile has at least this many cases beyond it
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MODULES = ("core", "cuts", "errors", "formulate", "projlab", "randgen", "solver", "transform")

# End-to-end times are scaled by REFERENCE_KERNEL_S / (the kernel's time in
# this run), so they read in seconds of a machine on which the kernel takes
# 14 ms, its time here in a calm stretch.  Contention from other tenants drifts over minutes and slows the
# kernel and netcap alike; see NOTES.md for the measurements.
REFERENCE_KERNEL_S = 0.014
KERNEL_N = 16
KERNEL_MATRIX = [
    [Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) + (7 if i == j else 0) for j in range(KERNEL_N + 1)]
    for i in range(KERNEL_N)
]


def kernel_seconds() -> float:
    """Wall time of a fixed exact-arithmetic kernel: Gauss-Jordan elimination
    of a 16x17 Fraction matrix, the row operations of a simplex pivot."""
    a = [row[:] for row in KERNEL_MATRIX]
    t = time.perf_counter()
    for c in range(KERNEL_N):
        pivot = a[c][c]
        for r in range(KERNEL_N):
            if r != c and a[r][c]:
                f = a[r][c] / pivot
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return time.perf_counter() - t


@dataclass
class Pass:
    traced: bool
    kernel_s: list[float] = field(default_factory=list)
    unit_s: list[float | None] = field(default_factory=list)
    case_s: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)


def set_up(src: Path, workload: str, seed: int):
    """Import netcap afresh, generate and render the cases, load references."""
    for name in [m for m in sys.modules if m == "netcap" or m.startswith("netcap.")]:
        del sys.modules[name]
    netcap = importlib.import_module("netcap")
    if src not in Path(netcap.__file__).resolve().parents:
        raise SystemExit(f"netcap imported from {netcap.__file__}, not from {src}")
    lib = SimpleNamespace(**{m: importlib.import_module(f"netcap.{m}") for m in MODULES})
    units = workloads.generate(lib, workload, seed)
    ref_path = REFERENCE_DIR / f"{workload}-seed{seed}.json"
    reference = json.loads(ref_path.read_text()) if ref_path.is_file() else None
    return lib, units, reference


def run_pass(lib, workload: str, units, reference, tracer: Tracer | None, index: int) -> Pass:
    run = workloads.RUNNERS[workload]
    per_unit = workloads.CASES_PER_UNIT[workload]
    out = Pass(traced=tracer is not None)
    for i, unit in enumerate(units):
        cases: list[float] = []
        out.kernel_s.append(kernel_seconds())
        if tracer:
            tracer.start_unit(index, i)
        t = time.perf_counter()
        try:
            result = run(lib, unit, cases)
            elapsed = time.perf_counter() - t
            verdicts = workloads.self_check(lib, workload, result)
            got = workloads.outputs(workload, result)
            if reference is not None:
                verdicts = [
                    v or (None if g == e else f"output {g!r} differs from reference {e!r}")
                    for v, g, e in zip(verdicts, got, reference[i], strict=True)
                ]
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out.unit_s.append(None)
            out.case_s.append(cases)
            out.outputs.append(None)
            out.attempted += per_unit
            out.failed += per_unit
            continue
        out.unit_s.append(elapsed)
        out.case_s.append(cases)
        out.outputs.append(got)
        for j, verdict in enumerate(verdicts):
            if verdict:
                print(f"unit {i} case {j}: {verdict}", file=sys.stderr)
        out.attempted += per_unit
        out.failed += sum(1 for v in verdicts if v)
    return out


def per_case_min(passes: list[Pass]) -> tuple[list[float], list[float]]:
    """Each unit's and each case's minimum over the passes that timed it."""
    units = [
        min(ts) for ts in zip(*(p.unit_s for p in passes)) if all(t is not None for t in ts)
    ]
    cases = []
    for unit_cases in zip(*(p.case_s for p in passes)):
        for ts in zip(*unit_cases):
            cases.append(min(ts))
    return units, cases


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND cases beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return 100.0 * (k + 1) / n, ordered[k]


def measure(args, lib, units, reference) -> tuple[list[Pass], list]:
    """Passes over the whole case list until the next would overrun --seconds."""
    tracer = Tracer() if args.trace else None
    kinds = [False, True] if args.trace else [False]
    deadline = time.perf_counter() + args.seconds
    passes: list[Pass] = []
    while True:
        cycle = time.perf_counter()
        for traced in kinds:
            if traced:
                tracer.install(lib)
            try:
                passes.append(
                    run_pass(lib, args.workload, units, reference, tracer if traced else None, len(passes))
                )
            finally:
                if traced:
                    tracer.uninstall()
        took = time.perf_counter() - cycle
        if len(passes) >= MIN_PASSES * len(kinds) and time.perf_counter() + took > deadline:
            break
    if tracer:
        out_dir = Path.cwd() / ".perfbench"
        tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return passes, tracer.spans if tracer else []


def end_to_end(passes: list[Pass], setup_s: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    untraced = [p for p in passes if not p.traced]
    unit_min, case_min = per_case_min(untraced)
    pct, tail_value = tail(case_min)
    attempted = sum(p.attempted for p in untraced)
    failed = sum(p.failed for p in untraced)
    # The kernel runs before every unit and is scored like the units: its
    # minimum over the passes at each position, then the median position.
    kernel = statistics.median(min(ts) for ts in zip(*(p.kernel_s for p in untraced)))
    scale = REFERENCE_KERNEL_S / kernel
    raw = {
        "wall_s": sum(unit_min),
        "case_p50_s": statistics.median(case_min),
        "case_tail_s": tail_value,
    }
    metrics = {
        **{name: (value * scale, "s") for name, value in raw.items()},
        "setup_s": (statistics.median(t * REFERENCE_KERNEL_S / k for t, k in setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    notes = [
        f"cases {len(case_min)} per pass, {len(untraced)} passes; each case's minimum over the passes",
        f"case_tail_s is p{pct:.1f} of {len(case_min)} cases ({TAIL_BEYOND} beyond it)",
        f"failed_frac {failed / attempted:.6f} ({failed} of {attempted} cases attempted)",
        f"kernel {kernel * 1000:.3f} ms here, so times above are scaled by {scale:.4f}; unscaled: "
        + ", ".join(f"{name} {value:.6g} s" for name, value in raw.items())
        + f", setup_s {statistics.median(t for t, _ in setup_s):.6g} s",
    ]
    return metrics, notes


def per_layer(passes: list[Pass], spans) -> tuple[dict, list[str], bool]:
    """Per-layer metrics, notes, and whether the exact counters repeated."""
    traced = [i for i, p in enumerate(passes) if p.traced]
    each = [layer_metrics([s for s in spans if s.pass_index == i]) for i in traced]
    notes = []
    exact = [{k: v for k, v in m.items() if v[1] not in TIME_UNITS} for m in each]
    repeated = all(e == exact[0] for e in exact[1:])
    if not repeated:
        notes.append("exact counters differ between traced passes")
    metrics = {
        name: (min(m[name][0] for m in each), unit) if unit in TIME_UNITS else (value, unit)
        for name, (value, unit) in each[0].items()
    }
    plain = sum(per_case_min([p for p in passes if not p.traced])[0])
    with_spans = sum(per_case_min([p for p in passes if p.traced])[0])
    metrics["trace.overhead_pct"] = (100.0 * (with_spans / plain - 1.0), "%")
    notes.append(f"tracing overhead {metrics['trace.overhead_pct'][0]:+.2f}% "
                 f"(traced {with_spans:.4f} s vs untraced {plain:.4f} s, per-unit minima)")
    notes.append(f"{len(spans)} spans over {len(traced)} traced passes")
    return metrics, notes, repeated


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if not (src / "netcap" / "__init__.py").is_file():
        print(f"no netcap sources under {src}; run from the root of a netcap checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    # Each set-up is paired with a kernel run just before it and scaled by
    # it, like the passes; both take well under a second, so the pair sees
    # the same contention.
    setup_s = []
    for _ in range(SETUP_REPEATS):
        kernel = kernel_seconds()
        t = time.perf_counter()
        lib, units, reference = set_up(src, args.workload, args.seed)
        setup_s.append((time.perf_counter() - t, kernel))
    if args.record:
        reference = None

    passes, spans = measure(args, lib, units, reference)
    counted = [p for p in passes if p.traced == bool(args.trace)]
    attempted = sum(p.attempted for p in counted)
    failed = sum(p.failed for p in counted)
    repeated = True
    if args.trace:
        metrics, notes, repeated = per_layer(passes, spans)
    else:
        metrics, notes = end_to_end(passes, setup_s)
    correct = failed == 0 and repeated

    if args.record and correct:
        REFERENCE_DIR.mkdir(exist_ok=True)
        path = REFERENCE_DIR / f"{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(passes[0].outputs, separators=(",", ":")) + "\n")
        notes.append(f"reference outputs written to {path.name}")
    elif reference is None:
        notes.append(f"no reference outputs for seed {args.seed}; self-checks only")

    print(f"workload {args.workload}, seed {args.seed}, {len(units)} units")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
