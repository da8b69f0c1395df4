#!/usr/bin/env python3
"""Repository benchmark: build, run the workloads, check correctness, report.

  python3 bench/run.py                  every workload R=3 times, interleaved
                                        round-robin; writes bench/results/<tag>.json
  python3 bench/run.py --trace          ... plus one traced run per workload, with
                                        Chrome traces in bench/results/<tag>.trace/
  python3 bench/run.py --workload W --seed S --seconds T --trace 0|1
                                        one run of one workload; the last line of
                                        stdout is its JSON result
  python3 bench/run.py --compare A B    one row per (metric, workload) with a verdict
  python3 bench/run.py --smoke          toy sizes, one repeat; checks that every
                                        metric of BENCHMARK.json is printed

The programs are built from source into build-bench/ (bench/CMakeLists.txt).
Workloads, metrics, units and bounds come from BENCHMARK.json; see
bench/README.md for what each one measures.
"""

import argparse
import json
import math
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 170
TRACE_MIN_COVERED = 0.9


class BenchError(Exception):
    pass


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---- build and run -----------------------------------------------------------


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources next to {BENCH}: nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "bonsai_bench"])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise BenchError("build failed: " + " ".join(cmd))


def run_program(cmd, timeout=RUN_TIMEOUT_S):
    """Run cmd in its own process group; on timeout kill the whole group (the
    spawned socket workers included) and wait for it."""
    proc = subprocess.Popen([str(c) for c in cmd], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[0]} timed out after {timeout} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise BenchError(f"{pathlib.Path(str(cmd[0])).name} exited with {proc.returncode}")
    return out


def run_bench(build_dir, workload, seed, seconds, smoke=False, trace=None):
    cmd = [build_dir / "bonsai_bench", "--workload", workload, "--seed", seed,
           "--seconds", seconds, "--sim", build_dir / "bonsai" / "bonsai_sim",
           "--tmp", build_dir / "tmp"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--trace", trace]
    return json.loads(run_program(cmd).strip().splitlines()[-1])


KERNEL_RE = re.compile(r"^(p-p|p-c)\s+simd: ([0-9.eE+-]+) Gflop/s useful", re.M)


def kernel_gflops(build_dir):
    """Useful Gflop/s of the default (simd) backend's p-p and p-c drains."""
    out = run_program([build_dir / "bonsai" / "bench_kernels", "4096", "4"])
    rates = {kind: float(v) for kind, v in KERNEL_RE.findall(out)}
    if set(rates) != {"p-p", "p-c"}:
        raise BenchError("cannot parse bench_kernels output")
    return rates


# ---- metrics -------------------------------------------------------------------


def pct(values, q):
    """Linear-interpolated percentile, as util/stats.hpp percentile()."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] * (1 - (pos - lo)) + v[hi] * (pos - lo)


def step_samples(rec):
    """Seconds per step: every timed step, or for jobs_mixed every round's
    wall time over the job-steps it completed."""
    if "round_s" in rec:
        return [s * rec["n"] / w for s, w in zip(rec["round_s"], rec["round_work"])]
    return rec["step_s"]


def e2e_metrics(recs):
    """Gated end-to-end metrics pooled over runs: {name: (value, samples)}."""
    steps = [s for r in recs for s in step_samples(r)]
    setup = [s for r in recs for s in r["setup_s"]]
    fe_n = sum(r["force_err_samples"] for r in recs)
    return {
        "step_s_p50": (pct(steps, 0.5), len(steps)),
        "step_s_p75": (pct(steps, 0.75), len(steps)),
        "particle_steps_per_s": (recs[0]["n"] * len(steps) / sum(steps), len(steps)),
        "setup_s": (pct(setup, 0.5), len(setup)),
        "rss_peak_mib": (max(r["rss_peak_mib"] for r in recs), len(recs)),
        "force_err_p50": (pct([r["force_err_p50"] for r in recs], 0.5), fe_n),
        "force_err_p95": (pct([r["force_err_p95"] for r in recs], 0.5), fe_n),
    }


# jobs_mixed only, so not in BENCHMARK.json, whose metrics every workload
# reports. --compare reads them against this bound.
REPORT = [{"name": "job_s_p50", "unit": "s", "better": "lower"},
          {"name": "job_s_p75", "unit": "s", "better": "lower"},
          {"name": "jobs_per_s", "unit": "1/s", "better": "higher"}]
REPORT_BOUND = 0.1


def report_metrics(recs):
    if "job_s" not in recs[0]:
        return {}
    lat = [s for r in recs for s in r["job_s"]]
    secs = sum(s for r in recs for s in r["round_s"])
    return {"job_s_p50": (pct(lat, 0.5), len(lat)), "job_s_p75": (pct(lat, 0.75), len(lat)),
            "jobs_per_s": (len(lat) / secs, len(lat))}


def layer_metrics(rec, kernels):
    layers = dict(rec["layers"])
    layers["tree.kernel_pp_gflops"] = kernels["p-p"]
    layers["tree.kernel_pc_gflops"] = kernels["p-c"]
    layers["trace.replay_ratio"] = (layers["trace.replay_step_s_p50"]
                                    / pct(rec["e2e_step_s"], 0.5))
    return {k: (v, rec["replay_steps"]) for k, v in layers.items()}


def print_metrics(workload, metrics, spec_metrics):
    for m in spec_metrics:
        value, n = metrics[m["name"]]
        print(f"  {workload:14s} {m['name']:30s} {value:12.6g} {m['unit']:8s} n={n}")


def print_report_metrics(workload, metrics):
    for m in REPORT:
        if m["name"] in metrics:
            value, n = metrics[m["name"]]
            print(f"  {workload:14s} {m['name']:30s} {value:12.6g} {m['unit']:8s} n={n} (ungated)")


# ---- one run (the benchmark contract) ----------------------------------------


def single_run(args, spec):
    build_dir = pathlib.Path(args.build_dir)
    build(build_dir)
    traced = args.trace == "1"
    if traced:
        trace_path = build_dir / "traces" / f"{args.workload}-s{args.seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        rec = run_bench(build_dir, args.workload, args.seed, args.seconds, args.smoke,
                         trace_path)
        metrics = layer_metrics(rec, kernel_gflops(build_dir))
        wanted = spec["per_layer"]
    else:
        rec = run_bench(build_dir, args.workload, args.seed, args.seconds, args.smoke)
        metrics = e2e_metrics([rec])
        wanted = spec["end_to_end"]
        print_report_metrics(args.workload, report_metrics([rec]))
    print_metrics(args.workload, metrics, wanted)
    for failure in rec["failures"]:
        print(f"  FAILED: {failure}")
    result = {
        "correct": rec["failed"] == 0,
        "attempted": int(rec["attempted"]),
        "failed": int(rec["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---- repeated runs, results files ----------------------------------------------


def summarize(name_to_runs, pooled, spec_metrics):
    """Per metric: the value over all runs' samples pooled, and the median and
    quartiles of the per-run values (the run-to-run spread)."""
    out = {}
    for m in spec_metrics:
        runs = name_to_runs[m["name"]]
        value, n = pooled[m["name"]]
        out[m["name"]] = {"unit": m["unit"], "better": m["better"], "pooled": value,
                          "median": pct(runs, 0.5), "q1": pct(runs, 0.25),
                          "q3": pct(runs, 0.75), "runs": runs, "samples": n}
    return out


def cpu_info():
    text = pathlib.Path("/proc/cpuinfo").read_text() if os.path.exists("/proc/cpuinfo") else ""
    model = re.search(r"^model name\s*:\s*(.*)$", text, re.M)
    flag_line = re.search(r"^flags\s*:\s*(.*)$", text, re.M)
    flags = set(flag_line.group(1).split()) if flag_line else set()
    return (model.group(1) if model else "unknown",
            {f: f in flags for f in ("avx2", "avx512f", "fma")})


def cmake_cache(build_dir, key):
    cache = (build_dir / "CMakeCache.txt").read_text()
    m = re.search(rf"^{key}:\w+=(.*)$", cache, re.M)
    return m.group(1) if m else ""


def git(*args):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def fingerprint(build_dir):
    model, flags = cpu_info()
    compiler = cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True, text=True)
    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain")
    return {"cpu": model, "nproc": os.cpu_count(), **flags,
            "compiler": version.stdout.splitlines()[0] if version.stdout else compiler,
            "build_type": cmake_cache(build_dir, "CMAKE_BUILD_TYPE"),
            "git_sha": sha, "git_dirty": None if dirty is None else dirty != ""}


def design_info():
    """Ungated design-aim counters: src/ lines and bonsai_sim CLI flags."""
    lines = sum(len(p.read_text().splitlines())
                for p in (ROOT / "src").rglob("*") if p.suffix in (".cpp", ".hpp"))
    flags = len(re.findall(r"cli\.add_(?:option|switch)\(", (ROOT / "src/main.cpp").read_text()))
    return {"src_lines": lines, "cli_flags": flags}


def repeated(args, spec):
    build_dir = pathlib.Path(args.build_dir)
    start = time.monotonic()
    build(build_dir)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    repeats = args.repeats
    recs = {w: [] for w in workloads}
    # Round-robin: a slow phase of the host hits every workload alike.
    for r in range(repeats):
        for w in workloads:
            print(f"run {r + 1}/{repeats}: {w} seed={args.seed + r}", flush=True)
            recs[w].append(run_bench(build_dir, w, args.seed + r, seconds))

    results = {"schema": 1, "tag": args.tag, "repeats": repeats, "seconds": seconds,
               "seeds": [args.seed + r for r in range(repeats)],
               "host": fingerprint(build_dir), "info": design_info(), "workloads": {}}
    failed = 0
    for w in workloads:
        entry = {"attempted": sum(r["attempted"] for r in recs[w]),
                 "failed": sum(r["failed"] for r in recs[w]),
                 "failures": [f for r in recs[w] for f in r["failures"]]}
        entry["fail_frac"] = entry["failed"] / entry["attempted"]
        failed += entry["failed"]
        report = [m for m in REPORT if m["name"] in report_metrics(recs[w])]
        for group, fn, wanted in (("metrics", e2e_metrics, spec["end_to_end"]),
                                  ("report", report_metrics, report)):
            runs = {m["name"]: [fn([rec])[m["name"]][0] for rec in recs[w]] for m in wanted}
            entry[group] = summarize(runs, fn(recs[w]), wanted)
        results["workloads"][w] = entry

    if args.trace:
        trace_dir = BENCH / "results" / f"{args.tag}.trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        kernels = kernel_gflops(build_dir)
        for w in workloads:
            print(f"traced run: {w}", flush=True)
            path = trace_dir / f"{w}.json"
            rec = run_bench(build_dir, w, args.seed, seconds, trace=path)
            metrics = layer_metrics(rec, kernels)
            runs = {k: [v] for k, (v, _) in metrics.items()}
            entry = results["workloads"][w]
            entry["layers"] = summarize(runs, metrics, spec["per_layer"])
            entry["trace"] = {"file": str(path.relative_to(ROOT)), "spans": rec["spans"]}
            entry["failures"] += rec["failures"]
            failed += rec["failed"]
            covered = rec["layers"]["trace.covered_frac"]
            if covered < TRACE_MIN_COVERED:
                failed += 1
                entry["failures"].append(f"trace.covered_frac {covered:.3f} is below "
                                         f"{TRACE_MIN_COVERED}")

    ws = results["workloads"]
    results["info"]["parallel_eff"] = (ws["plummer64k_r1"]["metrics"]["step_s_p50"]["pooled"]
                                       / ws["plummer64k_r4"]["metrics"]["step_s_p50"]["pooled"])
    results["wall_s"] = time.monotonic() - start

    print_report(results)
    path = BENCH / "results" / f"{args.tag}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 1 if failed else 0


def print_report(results):
    print(f"\n{'workload':14s} {'metric':30s} {'pooled':>11s} {'median':>11s} {'q1':>11s} "
          f"{'q3':>11s} {'unit':8s} samples   (median and quartiles over runs)")
    for w, entry in results["workloads"].items():
        for group in ("metrics", "report", "layers"):
            for name, m in entry.get(group, {}).items():
                print(f"{w:14s} {name:30s} {m['pooled']:11.5g} {m['median']:11.5g} "
                      f"{m['q1']:11.5g} {m['q3']:11.5g} {m['unit']:8s} {m['samples']}"
                      + (" (ungated)" if group == "report" else ""))
        print(f"{w:14s} {'fail_frac':30s} {entry['fail_frac']:11.5g} {'':11s} {'':11s} "
              f"{'':11s} {'ratio':8s} {entry['attempted']}")
        for f in entry["failures"]:
            print(f"{w:14s} FAILED: {f}")
    print("info: " + json.dumps(results["info"]))
    print("host: " + json.dumps(results["host"]))
    print(f"wall time: {results['wall_s']:.1f} s")


# ---- compare -------------------------------------------------------------------


def verdict(a, b, better, bound):
    """The choosing-metrics guide's reading of two sets of runs. B is better
    only over at least 10 same-seed pairs, B winning 9 in 10 of them, with
    medians that differ by more than A's own spread. A spread wider than the
    bound is unresolved unless every B run beats every A run; otherwise a
    median worse by more than the bound is a regression."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(x, y):
        return sign * (y - x) > 0

    change = sign * (b["median"] - a["median"]) / a["median"]  # > 0: B is worse
    spread_a, spread_b = ((m["q3"] - m["q1"]) / m["median"] for m in (a, b))
    pairs = list(zip(a["runs"], b["runs"]))
    wins = sum(beats(rb, ra) for ra, rb in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and change < -spread_a:
        return "better"
    b_all_better = all(beats(rb, ra) for ra in a["runs"] for rb in b["runs"])
    if max(spread_a, spread_b) > bound and not b_all_better:
        return "unresolved"
    if change > bound:
        return "worse beyond bound"
    return "within bound"


def compare(path_a, path_b, spec):
    """One row per (metric, workload): the gated metrics against their
    BENCHMARK.json bounds, the jobs_mixed report against REPORT_BOUND, and
    fail_frac, which may not rise at all."""
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    for path, res in ((path_a, a), (path_b, b)):
        missing = [w for w in workloads if w not in res["workloads"]]
        if missing:
            raise BenchError(f"{path} has no results for {', '.join(missing)}")
    rows = [(m["name"], "metrics", m["bound"]) for m in spec["end_to_end"]]
    rows += [(m["name"], "report", REPORT_BOUND) for m in REPORT]
    print(f"{'metric':22s} {'workload':14s} {'A median [q1, q3]':>36s} "
          f"{'B median [q1, q3]':>36s} {'delta':>8s}  verdict")
    side = "{median:.5g} [{q1:.5g}, {q3:.5g}]".format
    worse = 0
    for name, group, bound in rows:
        for w in workloads:
            ma = a["workloads"][w][group].get(name)
            mb = b["workloads"][w][group].get(name)
            if ma is None and mb is None and group == "report":
                continue
            if ma is None or mb is None:
                raise BenchError(f"{name} on {w} is missing from a results file")
            v = verdict(ma, mb, ma["better"], bound)
            worse += v == "worse beyond bound"
            delta = (mb["median"] - ma["median"]) / ma["median"]
            print(f"{name:22s} {w:14s} {side(**ma):>36s} {side(**mb):>36s} "
                  f"{100 * delta:+7.2f}%  {v}")
    for w in workloads:
        fa, fb = a["workloads"][w]["fail_frac"], b["workloads"][w]["fail_frac"]
        v = "worse beyond bound" if fb > fa else "within bound"
        worse += fb > fa
        print(f"{'fail_frac':22s} {w:14s} {fa:>36.5g} {fb:>36.5g} {'':>8s}  {v}")
    return 1 if worse else 0


# ---- smoke -----------------------------------------------------------------------


def smoke(args, spec):
    """Toy sizes, one run per workload untraced and traced; every metric of
    BENCHMARK.json must be printed with its unit and every gate must hold."""
    build_dir = pathlib.Path(args.build_dir)
    build(build_dir)
    missing, failed = [], 0
    kernels = kernel_gflops(build_dir)
    for w in spec["workloads"]:
        name = w["name"]
        rec = run_bench(build_dir, name, 1, 0, smoke=True)
        trace_path = build_dir / "traces" / f"{name}-smoke.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trec = run_bench(build_dir, name, 1, 0, smoke=True, trace=trace_path)
        print_report_metrics(name, report_metrics([rec]))
        for metrics, wanted in ((e2e_metrics([rec]), spec["end_to_end"]),
                                (layer_metrics(trec, kernels), spec["per_layer"])):
            print_metrics(name, metrics, wanted)
            missing += [f"{name}/{m['name']}" for m in wanted
                        if m["name"] not in metrics or not math.isfinite(metrics[m["name"]][0])]
        for r in (rec, trec):
            for f in r["failures"]:
                print(f"  FAILED: {f}")
            failed += r["failed"]
    if missing:
        print("missing metrics: " + ", ".join(missing))
    print("smoke: " + ("PASS" if not missing and not failed else "FAIL"))
    return 0 if not missing and not failed else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="one run of this workload (benchmark contract)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed window per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", nargs="?", const="1", default=None,
                   help="with --workload: 0 or 1; alone: add a traced run per workload")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--tag", default="local", help="results file name under bench/results/")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--build-dir", default=str(ROOT / "build-bench"))
    args = p.parse_args()
    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        if args.smoke:
            return smoke(args, spec)
        if args.workload:
            if args.workload not in [w["name"] for w in spec["workloads"]]:
                raise BenchError(f"unknown workload {args.workload}")
            if args.seconds is None:
                args.seconds = spec["run_seconds"]
            return single_run(args, spec)
        if args.trace not in (None, "1"):
            raise BenchError("--trace takes no value without --workload")
        return repeated(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
