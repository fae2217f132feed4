#!/usr/bin/env python3
"""Benchmark of the loopselect CLI pipeline ``generate -> plan -> sweep [-> certify]``.

Run from the root of a loopselect checkout::

    python3 bench/run.py --workload modular-certified --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1        # every workload, each in its own process

Workloads are defined in ``bench/workloads.json``. A run generates the
workload's instances from ``--seed`` (the program only ever sees the files
that ``loopselect generate`` writes), then repeats rounds, each running every
step once on every instance through ``loopselect.cli.main`` in this process:
a closed loop with one client, and BLAS pinned to one thread. Rounds continue
while another one fits in ``--seconds``, at least three of them. Every output
of a step's first run is checked (see ``checks.py``); later runs must
reproduce it byte for byte. After the rounds, ``setup_s`` is measured in
fresh processes (``setup_probe.py``).

Times are calibrated against the host's speed: the host's throughput drifts
by tens of percent within minutes (other tenants share its cores), and that
moves every timing by the same factor. Each timed step is paired with a
fixed reference kernel timed just before it, and reported as
``seconds * REF_NOMINAL_S / reference seconds``, that is, in seconds at the
speed where the kernel takes ``REF_NOMINAL_S``. The results file keeps the
raw seconds and the reference times next to the calibrated metrics.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics derived from
the spans (``spans.py``) plus the tracing overhead. A time is the sum, over
the steps and instances it covers, of each step's median over the rounds;
per-layer metrics and counts cover one round; ``setup_s`` is per instance.
The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a results file with the host
details goes to ``.bench_results/`` (or ``--results``).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
WORK = ROOT / ".bench_work"

MIN_ROUNDS = 3
REF_NOMINAL_S = 0.0135  # reference kernel time on this host when idle (Xeon, 2 vCPUs)
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 600

END_TO_END = {
    "setup_s": "s",
    "generate_s": "s",
    "plan_s": "s",
    "sweep_cells_per_s": "1/s",
    "total_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {"io.bytes": "bytes", "generate.peak_mb": "MiB",
                   "planners.useful_eval_ratio": "ratio", "trace_overhead_pct": "%"}

_OUTPUT_FLAGS = ("--output", "--pose-output", "--truth-output")


def _fail_setup(message):
    print(f"bench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    if not (SRC / "loopselect" / "__init__.py").is_file():
        _fail_setup(f"no loopselect sources under {SRC}; run from a loopselect checkout")
    sys.path.insert(0, str(SRC))
    import loopselect

    if SRC.resolve() not in Path(loopselect.__file__).resolve().parents:
        _fail_setup(f"imported loopselect from {loopselect.__file__}, not from {SRC}")


def _workloads():
    with open(BENCH / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def instance_seed(workload, seed, index) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def code_digest() -> str:
    """Hash of the program sources and of the benchmark itself."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py"), BENCH / "workloads.json"]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed, workload) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    git_sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = "not installed"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha,
        "code_sha256": code_digest(),
        "seed": seed,
        "held_out_seed": workload["held_out_seed"],
    }


class Instance:
    """Files and checked outputs of one generated instance."""

    def __init__(self, workdir, seed, steps):
        from checks import InstanceState

        workdir.mkdir(parents=True)
        self.seed = seed
        self.files = {"exg": workdir / "instance.exg", "pose": workdir / "instance.pose",
                      "truth": workdir / "truth.csv"}
        self.out = {s["id"]: str(workdir / f"{s['id']}.out") for s in steps}
        self.state = InstanceState(self.files)
        self.checked: dict[str, tuple[str, list[str]]] = {}  # step id -> (digest, problems)

    def argv(self, step):
        return [a.format(seed=self.seed, out=self.out, **self.files) for a in step["argv"]]


def reference_seconds() -> float:
    """Median of three timings of a fixed kernel of interpreter and numpy work."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        table = {i: (i * 7919) % 10007 for i in range(15000)}
        sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
        rows = np.ones((100, 600))
        for r in range(100):
            rows[r] -= 0.5 * rows[(r + 1) % 100]
        np.linalg.cholesky(np.eye(120) * 4.0 + 1.0)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _call_cli(argv, main):
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:  # an uncaught program error fails this operation only
            rc, error = None, traceback.format_exc()
        dt = time.perf_counter() - t0
    return rc, dt, out.getvalue(), error or err.getvalue()


def _digest(argv, stdout) -> str:
    h = hashlib.sha256(stdout.encode())
    for i, token in enumerate(argv[:-1]):
        if token in _OUTPUT_FLAGS:
            h.update(Path(argv[i + 1]).read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, spec, workload, instances):
        self.spec = spec
        self.workload = workload
        self.instances = instances
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.raw_rounds: list[dict] = []
        self.raw_setups: list[dict] = []

    def _fail(self, inst, step_id, problems):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append({"instance_seed": inst.seed, "step": step_id, "problems": problems})

    def _check(self, inst, step, argv, stdout) -> list[str]:
        import checks

        cmd = argv[0]
        if cmd == "generate":
            return checks.check_generate(inst.state, argv)
        if cmd == "plan":
            return checks.check_plan(inst.state, step["id"], inst.out[step["id"]], stdout)
        if cmd == "sweep":
            return checks.check_sweep(inst.state, step, inst.out[step["id"]], self.spec["sweep_header"])
        return checks.check_certify(inst.state, step, stdout, self.spec["certificate_header"])

    def _step(self, inst, step, main) -> float:
        """Run one step once, check its output, and return its seconds."""
        argv = inst.argv(step)
        rc, dt, stdout, stderr = _call_cli(argv, main)
        self.attempted += 1
        if rc != 0:
            self._fail(inst, step["id"], [f"exit code {rc}", stderr[-2000:]])
            return dt
        try:
            digest = _digest(argv, stdout)
            if step["id"] not in inst.checked:
                inst.checked[step["id"]] = (digest, self._check(inst, step, argv, stdout))
            first, problems = inst.checked[step["id"]]
            if digest != first:
                problems = ["output differs from the first run of this step"]
        except Exception:  # a crash in a check is a failed check
            problems = [traceback.format_exc()]
        if problems:
            self._fail(inst, step["id"], problems)
        return dt

    def round(self, main) -> dict[str, float]:
        """Every step on every instance; calibrated seconds per ``<instance>/<step id>``.

        A step with ``repeat`` runs that many times in a row and reports the
        median, which steadies steps that take only milliseconds.
        """
        raw, refs = {}, {}
        for i, inst in enumerate(self.instances):
            for step in self.workload["steps"]:
                key = f"{i}/{step['id']}"
                refs[key] = reference_seconds()
                raw[key] = statistics.median(
                    self._step(inst, step, main) for _ in range(step.get("repeat", 1)))
        self.raw_rounds.append({"seconds": raw, "reference_s": refs})
        return {key: raw[key] * REF_NOMINAL_S / refs[key] for key in raw}

    def setup_probe(self, inst) -> float | None:
        """Calibrated seconds from process start to an imported, parsed, constructed instance."""
        objective = self.workload["objective"]
        argv = [sys.executable, str(BENCH / "setup_probe.py"), objective, str(inst.files["exg"])]
        if objective != "modular":
            argv.append(str(inst.files["pose"]))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted += 1
        ref = reference_seconds()
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                _, stderr = proc.communicate()
        if line != "ready\n" or proc.returncode != 0:
            self._fail(inst, "setup", [f"probe exit code {proc.returncode}", stderr[-2000:]])
            return None
        self.raw_setups.append({"seconds": elapsed, "reference_s": ref})
        return elapsed * REF_NOMINAL_S / ref


def _median(values):
    return statistics.median(values) if values else 0.0


def _step_medians(rounds) -> dict[str, float]:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}


def sweep_cells(workload) -> int:
    """(b, k) grid cells that one round's sweeps complete."""
    return sum(s.get("cells", 0) for s in workload["steps"]) * workload["instances"]


def end_to_end(workload, rounds, setups) -> dict[str, float]:
    command = {s["id"]: s["argv"][0] for s in workload["steps"]}
    seconds = defaultdict(float)
    for key, t in _step_medians(rounds).items():
        seconds[command[key.split("/", 1)[1]]] += t
    return {
        "setup_s": _median(setups),
        "generate_s": seconds["generate"],
        "plan_s": seconds["plan"],
        "sweep_cells_per_s": sweep_cells(workload) / seconds["sweep"],
        "total_s": sum(seconds.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _count_check(name, seed, counts) -> list[str]:
    """Compare the count metrics with an earlier traced run of the same code and seed."""
    path = RESULTS / "counts" / f"{name}-seed{seed}-{code_digest()[:16]}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        return [f"{k}: {earlier.get(k)} earlier, {v} now" for k, v in counts.items() if earlier.get(k) != v]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return []


def per_layer(workload, seed, tracer, traced_rounds, metrics, inst) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced rounds, and any count that failed to repeat."""
    import spans as tr
    from loopselect import cli

    name = workload["name"]
    layers = [r["layers"] for r in traced_rounds]
    report = {k: _median([m[k] for m in layers]) for k in layers[0]}
    counts = {k: layers[0][k] for k in tr.COUNT_METRICS}
    problems = [f"{k} differs between rounds" for k in counts if any(m[k] != counts[k] for m in layers)]
    problems += _count_check(name, seed, counts)
    report.update(counts)

    peak = {}
    gen = next(s for s in workload["steps"] if s["argv"][0] == "generate")
    with tr.generate_peak(peak):
        rc = _call_cli(inst.argv(gen), cli.main)[0]
    if rc != 0:
        problems.append(f"generate for the memory peak exited with {rc}")
    report["generate.peak_mb"] = peak.get("peak_mib", 0.0)

    traced_total = sum(_step_medians([r["steps"] for r in traced_rounds]).values())
    report["trace_overhead_pct"] = 100.0 * (traced_total / metrics["total_s"] - 1.0)
    RESULTS.mkdir(exist_ok=True)
    tracer.dump(RESULTS / f"{name}-seed{seed}.spans.json.gz")
    return report, problems


def run_workload(name, seed, seconds, traced, results_path) -> dict:
    import spans as tr
    from loopselect import cli

    spec = _workloads()
    workload = next(w for w in spec["workloads"] if w["name"] == name)
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        instances = [
            Instance(workdir / str(i), instance_seed(name, seed, i), workload["steps"])
            for i in range(workload["instances"])
        ]
        runner = Runner(spec, workload, instances)
        tracer = tr.Tracer() if traced else None
        untraced_rounds, traced_rounds = [], []
        start = time.perf_counter()
        while True:
            untraced_rounds.append(runner.round(cli.main))
            if tracer is not None:
                tracer.new_round()
                with tr.installed(tracer):
                    steps = runner.round(tracer.wrap("cli.main", cli.main))
                speed = REF_NOMINAL_S / statistics.median(runner.raw_rounds[-1]["reference_s"].values())
                layers = tr.layer_metrics(tracer, tracer.spans, tracer.counters)
                layers.update({k: v * speed for k, v in layers.items() if k.endswith("_s")})
                traced_rounds.append({"steps": steps, "layers": layers})
            elapsed = time.perf_counter() - start
            done = len(untraced_rounds)
            if done >= MIN_ROUNDS and elapsed * (done + 1) / done > seconds:
                break
        setups = [
            t for j in range(SETUP_PROBES)
            if (t := runner.setup_probe(instances[j % len(instances)])) is not None
        ]
        metrics = end_to_end(workload, untraced_rounds, setups)
        problems = []
        if tracer is None:
            report, units = metrics, END_TO_END
        else:
            report, problems = per_layer(workload, seed, tracer, traced_rounds, metrics, instances[0])
            units = {k: PER_LAYER_UNITS.get(k, "s" if k.endswith("_s") else "count") for k in report}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(report.items())},
    }
    record = {
        "workload": name,
        "why": workload["why"],
        "instances": [i.seed for i in instances],
        "sweep_cells_per_round": sweep_cells(workload),
        "trace": int(traced),
        "seconds": seconds,
        "host": provenance(seed, workload),
        "end_to_end": metrics,
        "reference_nominal_s": REF_NOMINAL_S,
        "raw_rounds": runner.raw_rounds,
        "raw_setups": runner.raw_setups,
        "error_rate": runner.failed / runner.attempted,
        "rounds": untraced_rounds,
        "traced_rounds": traced_rounds,
        "setup_samples": setups,
        "failures": runner.failures,
        "determinism_problems": problems,
        **result,
    }
    RESULTS.mkdir(exist_ok=True)
    path = results_path or RESULTS / f"{name}-seed{seed}-trace{int(traced)}.json"
    Path(path).write_text(json.dumps(record, indent=1) + "\n")
    for k, m in result["metrics"].items():
        print(f"{name}: {k} = {m['value']:.6g} {m['unit']}")
    print(f"{name}: error_rate = {record['error_rate']:.6g} ({runner.failed}/{runner.attempted})"
          f" over {len(untraced_rounds)} rounds of {sweep_cells(workload)} sweep cells; results in {path}")
    for p in problems:
        print(f"{name}: determinism check failed: {p}", file=sys.stderr)
    return result


def run_all(names, args) -> dict:
    """Every workload in its own process, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            _fail_setup(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, m in result["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = m
    if args.results:
        Path(args.results).write_text(json.dumps(combined, indent=1) + "\n")
    return combined


def main():
    names = [w["name"] for w in _workloads()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=None, help="results file (default: .bench_results/)")
    args = parser.parse_args()
    _load_program()
    if args.workload == "all":
        result = run_all(names, args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.results)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
