"""graphtango benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload short-fresh --seed 42 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/`` next
to this directory.  The workload's stream is generated from --seed and fed
to ``graphtango.bench.harness.run_experiment``, the call the CLI makes, as
many times as fit in --seconds.  The loop is closed with one client: the
harness submits batch k+1 only after batch k's update and kernels have
returned.  Every experiment's outputs are checked outside the timed region:
the first against an independent reference (refcheck.py), later ones for
being identical to the first.

--trace 0 prints the end-to-end metrics: the fastest times the run saw,
stated at the unloaded host's speed (HostProbe, e2e_values).
--trace 1 alternates untraced and traced experiments and prints the
per-module metrics of the traced ones (tracing.py) plus the tracing
overhead.  Either way the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
where attempted counts batches and failed counts batches whose output
check failed.  A run record with the per-experiment values (and, traced,
the spans) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 15

E2E_METRICS = {
    "setup_s": "s",
    "stream_eps": "edges/s",
    "insert_eps": "edges/s",
    "delete_eps": "edges/s",
    "fresh_p50_ms": "ms",
    "fresh_p90_ms": "ms",
    "peak_bytes_per_edge": "B/edge",
    "peak_rss_mib": "MiB",
}

LAYER_METRICS = {
    "data.gen_s": "s",
    "data.shuffle_s": "s",
    "harness.route_s": "s",
    "harness.apply_s": "s",
    "harness.worker_apply_s.max": "s",
    "harness.worker_apply_s.min": "s",
    "harness.barrier_wait_s": "s",
    "harness.accounting_s": "s",
    "harness.half_ops": "count",
    "store.insert_half.calls": "count",
    "store.insert_half.us": "us",
    "store.insert_half.appended_frac": "ratio",
    "store.delete_half.calls": "count",
    "store.delete_half.us": "us",
    "store.delete_half.found_frac": "ratio",
    "store.neighbors.calls": "count",
    "store.neighbors_s": "s",
    "store.type1_frac": "ratio",
    "store.type2_frac": "ratio",
    "store.type3_frac": "ratio",
    "store.kind_changes": "count",
    "store.resize_copies": "count",
    "cfhash.find.calls": "count",
    "cfhash.find.us": "us",
    "cfhash.insert.calls": "count",
    "cfhash.insert.us": "us",
    "cfhash.remove.calls": "count",
    "cfhash.rebuild.calls": "count",
    "cfhash.probe_insert_mean": "probes",
    "cfhash.probe_find_mean": "probes",
    "cfhash.first_line_frac": "ratio",
    "mempool.alloc.calls": "count",
    "mempool.alloc.us": "us",
    "mempool.free.calls": "count",
    "mempool.free.us": "us",
    "mempool.blocks": "count",
    "mempool.bytes_in_use_peak": "B",
    "mempool.reserved_free_frac": "ratio",
    "baseline.insert_half.calls": "count",
    "baseline.insert_half.us": "us",
    "baseline.delete_half.calls": "count",
    "baseline.delete_half.us": "us",
    "baseline.memory_bytes_s": "s",
    "baseline.live_edges_s": "s",
    "analytics.snapshot_s": "s",
    "analytics.snapshot_edges": "count",
    "analytics.bfs_s": "s",
    "analytics.pr_s": "s",
    "analytics.sssp_s": "s",
    "analytics.cc_s": "s",
    "analytics.bfs_rounds": "count",
    "analytics.sssp_rounds": "count",
    "analytics.cc_rounds": "count",
    "analytics.pr_iters": "count",
    "analytics.bfs.incremental_frac": "ratio",
    "analytics.pr.incremental_frac": "ratio",
    "analytics.sssp.incremental_frac": "ratio",
    "analytics.cc.incremental_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def import_package():
    """Import graphtango from this checkout's src/, never from elsewhere."""
    pkg = SRC / "graphtango"
    if not (pkg / "__init__.py").is_file():
        raise SetupError(f"no graphtango sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphtango
    if Path(graphtango.__file__).resolve().parent != pkg:
        raise SetupError(f"graphtango imported from {graphtango.__file__}, not {pkg}")
    return graphtango


# -- one experiment -------------------------------------------------------------


def _experiment(w, el, tracer=None):
    """One timed run_experiment call; the wall clock spans the whole call."""
    from graphtango.bench.harness import run_experiment
    gc.collect()
    with tracer or nullcontext():
        t0 = perf_counter()
        reports, _, values = run_experiment(
            el, w.fmt, algorithms=w.kernels, batch_size=w.batch,
            num_threads=w.threads, collect_values=True)
        wall = perf_counter() - t0
    return reports, values, wall, t0


class HostProbe:
    """A fixed interpreter-plus-memory task timed between experiments.

    The benchmark shares its host, whose speed drifts by up to 2x over
    tens of seconds and can stay slow for a whole run; CPU time drifts with
    wall time.  The probe is independent of graphtango, so its time tracks
    only the host: host() is its time over NOMINAL_S, the probe's time on
    this machine when unloaded.
    """

    NOMINAL_S = 0.1

    def __init__(self):
        rng = np.random.default_rng(0)
        self._data = rng.permutation(1 << 19)           # 4 MiB, past L2
        self._idx = rng.integers(0, 1 << 19, 1 << 19)

    def host(self) -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(750_000):
            acc += i * i
        for _ in range(22):
            self._data[self._idx].sum()
        return (perf_counter() - t0) / self.NOMINAL_S


def batch_times(reports, wall, host) -> dict:
    """What one untraced experiment contributes to the end-to-end metrics."""
    return {
        "wall_s": wall,
        "host": host,
        "update_s": [r.seconds for r in reports],
        "fresh_ms": [1e3 * (r.seconds + r.analytics_seconds) for r in reports],
    }


def e2e_values(el, reports, experiments) -> dict:
    """End-to-end figures from the untraced experiments of one run.

    Every experiment replays the same stream, so each batch does the same
    work each time and the host can only add to it: each batch's time is
    the fastest the run saw.  The whole call's time is those batch times
    plus the fastest rest of a call (accounting between batches, store and
    worker set-up).  Dividing by the fastest host factor the run saw
    (HostProbe) states the times at the unloaded host's speed, so a run
    spent wholly in a slow spell is not read as a slower program.
    """
    host = min(e["host"] for e in experiments)
    update = [min(xs) / host for xs in zip(*(e["update_s"] for e in experiments))]
    fresh = [min(xs) / host for xs in zip(*(e["fresh_ms"] for e in experiments))]
    rest = min(e["wall_s"] - sum(e["fresh_ms"]) / 1e3 for e in experiments) / host
    ins = [r.phase == "insert" for r in reports]
    last_insert = [r for r in reports if r.phase == "insert"][-1]
    return {
        "stream_eps": 2 * el.num_edges / (sum(fresh) / 1e3 + rest),
        "insert_eps": el.num_edges / sum(t for t, i in zip(update, ins) if i),
        "delete_eps": el.num_edges / sum(t for t, i in zip(update, ins) if not i),
        "fresh_p50_ms": statistics.median(fresh),
        "fresh_p90_ms": statistics.quantiles(fresh, n=10, method="inclusive")[-1],
        "peak_bytes_per_edge": last_insert.bytes_per_edge,
    }


def fingerprint(reports, values) -> list:
    """Per-batch deterministic output of an untraced experiment."""
    return [((r.phase, r.edges, r.live_edges, r.memory_bytes, r.probe_insert, r.probe_find),
             {k: v.tobytes() for k, v in vals.items()})
            for r, vals in zip(reports, values)]


# -- per-module metrics of a traced experiment ------------------------------------


def layer_values(w, tracer, reports, wall) -> dict:
    from tracing import ACCOUNTING
    ops: dict = {}
    for b in tracer.batches:
        for key, rec in b["ops"].items():
            tot = ops.setdefault(key, [0, 0.0, 0])
            for i in range(3):
                tot[i] += rec[i]

    def calls(*keys):
        return sum(ops.get(k, (0, 0.0, 0))[0] for k in keys)

    def self_s(*keys):
        return sum(ops.get(k, (0, 0.0, 0))[1] for k in keys)

    def us(key):
        return 1e6 * self_s(key) / calls(key) if calls(key) else 0.0

    def true_frac(key):
        return ops[key][2] / calls(key) if calls(key) else 0.0

    span_s: dict = {}
    route = [0.0] * len(reports)
    workers = [[] for _ in reports]
    extras: dict = {}
    for key, w0, w1, b, _, extra in tracer.raw:
        span_s[key] = span_s.get(key, 0.0) + (w1 - w0)
        if extra is not None:
            extras.setdefault(key, []).append(extra)
        if key == "harness.route_batch":
            route[b] += w1 - w0
        elif key == "harness.apply_ops":
            workers[b].append(w1 - w0)
    apply = [r.seconds - route[i] for i, r in enumerate(reports)]
    slowest = [max(ws, default=0.0) for ws in workers]
    fastest = [min(ws) if len(ws) == w.threads else 0.0 for ws in workers]

    out = {
        "harness.route_s": sum(route),
        "harness.apply_s": sum(apply),
        "harness.worker_apply_s.max": sum(slowest),
        "harness.worker_apply_s.min": sum(fastest),
        "harness.barrier_wait_s": sum(a - s for a, s in zip(apply, slowest)),
        "harness.accounting_s": sum(span_s.get(k, 0.0) for k in ACCOUNTING),
        "harness.half_ops": sum(extras.get("harness.route_batch", [])),
    }
    for mod in ("store", "baseline"):
        out[f"{mod}.insert_half.calls"] = calls(f"{mod}.insert_half")
        out[f"{mod}.insert_half.us"] = us(f"{mod}.insert_half")
        out[f"{mod}.delete_half.calls"] = calls(f"{mod}.delete_half")
        out[f"{mod}.delete_half.us"] = us(f"{mod}.delete_half")
    out["store.insert_half.appended_frac"] = true_frac("store.insert_half")
    out["store.delete_half.found_frac"] = true_frac("store.delete_half")
    out["store.neighbors.calls"] = calls("store.neighbors", "store.neighbor_props")
    out["store.neighbors_s"] = self_s("store.neighbors", "store.neighbor_props")
    out["baseline.memory_bytes_s"] = span_s.get("baseline.memory_bytes", 0.0)
    out["baseline.live_edges_s"] = span_s.get("baseline.live_edges", 0.0)

    # Layout, pool and probe state: recorded after every batch of a tango run.
    layout = [b for b in tracer.batches if "types" in b]
    peak = sum(r.phase == "insert" for r in reports) - 1  # after the last insert
    types = layout[peak]["types"] if layout else [0, 0, 0]
    for t in range(3):
        out[f"store.type{t + 1}_frac"] = types[t] / sum(types) if layout else 0.0
    out["store.kind_changes"] = sum(b["kind_changes"] for b in layout)
    out["store.resize_copies"] = sum(b["resize_copies"] for b in layout)

    for name, key in (("find", "cfhash.find"), ("insert", "cfhash.insert")):
        out[f"cfhash.{name}.calls"] = calls(key)
        out[f"cfhash.{name}.us"] = us(key)
    out["cfhash.remove.calls"] = calls("cfhash.remove")
    out["cfhash.rebuild.calls"] = calls("cfhash.rebuild")
    hists = {"insert": {}, "find": {}}
    for b in layout:
        for kind in hists:
            for d, c in b[f"probe_{kind}"].items():
                hists[kind][d] = hists[kind].get(d, 0) + c

    def mean(h):
        n = sum(h.values())
        return sum(d * c for d, c in h.items()) / n if n else 0.0

    out["cfhash.probe_insert_mean"] = mean(hists["insert"])
    out["cfhash.probe_find_mean"] = mean(hists["find"])
    line = tracer.store.config.cache_line_bytes // 8
    probes = sum(sum(h.values()) for h in hists.values())
    near = sum(c for h in hists.values() for d, c in h.items() if d <= line)
    out["cfhash.first_line_frac"] = near / probes if probes else 0.0

    out["mempool.alloc.calls"] = calls("mempool.allocate")
    out["mempool.alloc.us"] = us("mempool.allocate")
    out["mempool.free.calls"] = calls("mempool.deallocate")
    out["mempool.free.us"] = us("mempool.deallocate")
    in_use = [sum(p["bytes_in_use"] for p in b["pools"]) for b in layout]
    top = max(range(len(in_use)), key=in_use.__getitem__) if layout else None
    reserved = sum(p["bytes_reserved"] for p in layout[top]["pools"]) if layout else 0
    out["mempool.blocks"] = sum(p["num_blocks"] for p in layout[-1]["pools"]) if layout else 0
    out["mempool.bytes_in_use_peak"] = in_use[top] if layout else 0
    out["mempool.reserved_free_frac"] = 1 - in_use[top] / reserved if reserved else 0.0

    out["analytics.snapshot_s"] = span_s.get("analytics.build_snapshot", 0.0)
    out["analytics.snapshot_edges"] = sum(extras.get("analytics.build_snapshot", []))
    for k in ("bfs", "pr", "sssp", "cc"):
        runs = extras.get(f"analytics.run_{k}", [])
        out[f"analytics.{k}_s"] = span_s.get(f"analytics.run_{k}", 0.0)
        rounds = sum(r for r, _ in runs)
        out["analytics.pr_iters" if k == "pr" else f"analytics.{k}_rounds"] = rounds
        out[f"analytics.{k}.incremental_frac"] = (
            sum(m == "incremental" for _, m in runs) / len(runs) if runs else 0.0)

    out["module_self_s"] = {}
    for key, rec in ops.items():
        mod = key.split(".")[0]
        out["module_self_s"][mod] = out["module_self_s"].get(mod, 0.0) + rec[1]
    out["traced_wall_s"] = wall
    return out


def trace_fingerprint(tracer) -> list:
    """Per-batch deterministic content of a traced experiment: counts, not times."""
    fp = []
    for b in tracer.batches:
        ops = {k: (c, t) for k, (c, _, t) in b["ops"].items()}
        fp.append((ops, {k: v for k, v in b.items() if k != "ops"}))
    kernels = [(k, b, e) for k, _, _, b, _, e in tracer.raw if k.startswith("analytics.")]
    return fp + kernels


# -- one benchmark run --------------------------------------------------------------


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run experiments for `seconds`, check them; return the run's result."""
    from graphtango.bench.data import gen_synthetic, shuffle
    from refcheck import check_experiment
    from tracing import Tracer

    probe = HostProbe()
    hosts = [probe.host()]        # one before and one after every timed stretch
    gen_t, shuffle_t = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        raw = gen_synthetic(w.kind, w.vertices, w.edges, seed,
                            weighted=w.weighted, directed=w.directed)
        t1 = perf_counter()
        el = shuffle(raw, seed)
        t2 = perf_counter()
        gen_t.append(t1 - t0)
        shuffle_t.append(t2 - t1)
    del raw
    hosts.append(probe.host())

    plain, traced = [], []        # per-experiment figures
    failed_batches = []           # (experiment, batch, reason)
    attempted = 0
    first = first_reports = None  # experiment 0: fingerprint and reports
    first_failures: dict = {}
    first_trace = None
    spans = None
    measured = 0.0
    turns = (False, True) if trace else (False,)
    while not plain or (trace and not traced) or measured < seconds:
        for traced_turn in turns:
            n = len(plain) + len(traced)
            tracer = Tracer() if traced_turn else None
            reports, values, wall, t0 = _experiment(w, el, tracer)
            hosts.append(probe.host())
            host = (hosts[-2] + hosts[-1]) / 2
            measured += wall
            attempted += len(reports)
            fp = fingerprint(reports, values)
            if first is None:
                first, first_reports = fp, reports
                first_failures = dict(check_experiment(el, w.batch, w.kernels, reports, values))
            bad = dict(first_failures)
            for i, (a, b) in enumerate(zip(fp, first)):
                if a != b:
                    bad[i] = "output differs from the first experiment of this run"
            if len(fp) != len(first):
                bad[-1] = "batch count differs from the first experiment of this run"
            failed_batches += [(n, i, why) for i, why in sorted(bad.items())]
            if traced_turn:
                tfp = trace_fingerprint(tracer)
                if first_trace is None:
                    first_trace = tfp
                elif tfp != first_trace:
                    failed_batches.append((n, -1, "traced counts differ from the first traced experiment"))
                traced.append(dict(layer_values(w, tracer, reports, wall), host=host))
                spans = {"batches": tracer.batches, "spans": tracer.spans(t0)}
            else:
                plain.append(batch_times(reports, wall, host))
            del reports, values, tracer

    e2e = e2e_values(el, first_reports, plain)
    setup_host = (hosts[0] + hosts[1]) / 2
    e2e["setup_s"] = statistics.median(a + b for a, b in zip(gen_t, shuffle_t)) / setup_host
    e2e["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "e2e": e2e,
        "plain": plain,
        "host_factors": hosts,
        "attempted": attempted,
        "failed": len({(n, i) for n, i, _ in failed_batches}),
        "failures": failed_batches,
        "batches_per_experiment": len(first),
    }
    if trace:
        layers = {k: statistics.median_low(t[k] for t in traced)
                  for k in traced[0] if k not in ("module_self_s", "traced_wall_s", "host")}
        # Self times and the wall time they must fit in, from one experiment.
        typical = sorted(traced, key=lambda t: t["traced_wall_s"])[(len(traced) - 1) // 2]
        layers["module_self_s"] = typical["module_self_s"]
        layers["traced_wall_s"] = typical["traced_wall_s"]
        layers["data.gen_s"] = statistics.median(gen_t)
        layers["data.shuffle_s"] = statistics.median(shuffle_t)
        layers["trace.overhead_frac"] = (
            min(t["traced_wall_s"] / t["host"] for t in traced)
            / min(p["wall_s"] / p["host"] for p in plain) - 1)
        result.update(layers=layers, traced=traced, spans=spans)
    return result


# -- run record ----------------------------------------------------------------


def run_record(w, seed: int, trace: bool) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "worker_threads": w.threads,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "spec": vars(w),
    }


def result_line(res: dict, trace: bool) -> dict:
    """The run's last stdout line: the metrics of the chosen mode, by name."""
    names, values = (LAYER_METRICS, res["layers"]) if trace else (E2E_METRICS, res["e2e"])
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": values[k], "unit": unit} for k, unit in names.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure for at least this long (whole experiments)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        import_package()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    trace = bool(args.trace)
    res = run_workload(w, args.seed, args.seconds, trace)
    line = result_line(res, trace)
    failed_frac = res["failed"] / res["attempted"]

    record = run_record(w, args.seed, trace)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": line,
                   "failed_frac": failed_frac,
                   **{k: v for k, v in res.items() if k not in ("e2e", "layers")}},
                  fh, indent=1, default=str)

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  threads {w.threads}  "
          f"experiments {len(res['plain']) + len(res.get('traced', []))}  "
          f"batches/experiment {res['batches_per_experiment']}")
    print(f"nproc {record['nproc']}  python {record['python']}  numpy {record['numpy']}  "
          f"commit {record['git_commit']}  src sha256 {record['src_sha256'][:16]}")
    for k, m in line["metrics"].items():
        note = f"  (of {res['batches_per_experiment']} batches)" if k == "fresh_p90_ms" else ""
        print(f"{k:32s} {m['value']!r} {m['unit']}{note}")
    print(f"{'failed_frac':32s} {failed_frac!r} ratio  "
          f"({res['failed']} of {res['attempted']} batches)")
    for n, i, why in res["failures"][:10]:
        print(f"  experiment {n} batch {i}: {why}")
    print(f"run record: {out_path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
