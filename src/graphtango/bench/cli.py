"""Command-line benchmark driver (installed as graphtango-bench)."""

from __future__ import annotations

import argparse
import os
import sys

from ..core import CACHE_LINE_BYTES, DEFAULT_TH1, Config, ConfigError, ParseError
from .data import check_synthetic, gen_synthetic, load_snap, shuffle
from .harness import (
    DEFAULT_BATCH_SIZE,
    FORMATS,
    MAX_THREADS,
    emit_report,
    emit_sweep_report,
    run_experiment,
    run_th1_sweep,
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="graphtango-bench",
        description="Batched streaming-graph benchmark: insert a shuffled "
                    "edge list batch by batch with analytics after every "
                    "batch, then delete it the same way.",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="PATH",
                     help="edge list file: 'src dst [weight]' per line, # comments")
    src.add_argument("--synthetic", choices=("short", "heavy"),
                     help="generate a synthetic dataset instead of loading one")
    p.add_argument("--vertices", type=int, metavar="N",
                   help="vertex count for --synthetic")
    p.add_argument("--edges", type=int, metavar="M",
                   help="edge count for --synthetic")
    p.add_argument("--format", choices=FORMATS, default="tango",
                   help="store under test (default tango)")
    p.add_argument("--algorithms", default="bfs,pr", metavar="LIST",
                   help="comma list from bfs,pr,sssp,cc; empty for update-only "
                        "(default bfs,pr)")
    p.add_argument("--batch-size", type=int, default=DEFAULT_BATCH_SIZE,
                   metavar="N", help=f"edges per batch (default {DEFAULT_BATCH_SIZE})")
    p.add_argument("--threads", type=int, default=1, metavar="N",
                   help=f"update worker threads, 1 to {MAX_THREADS} (default 1)")
    p.add_argument("--seed", type=int, default=42, metavar="N",
                   help="seed for generation and shuffling (default 42)")
    p.add_argument("--th1", type=int, default=DEFAULT_TH1, metavar="N",
                   help="hash threshold for the hybrid store, a power of two "
                        f"(default {DEFAULT_TH1})")
    p.add_argument("--weighted", action="store_true",
                   help="edges carry integer weights")
    p.add_argument("--directed", action="store_true",
                   help="treat edges as directed")
    p.add_argument("--report", metavar="PATH", default=None,
                   help="write the per-batch report here")
    p.add_argument("--sweep-th1", action="store_true",
                   help="run the hybrid store across th1 in {8,16,...,512} "
                        "and report one row per value")
    return p


def physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_fits(num_vertices: int, num_edges: int, cfg: Config) -> None:
    """Refuse a run whose edge arrays and meta lines alone exceed RAM.

    Counts the edge list's int64 src, dst (and weight) arrays twice, since
    the shuffled copy is made while the list is held, and one meta line per
    vertex and side: a floor under what the run holds at once.
    """
    sides = 2 if cfg.directed else 1
    need = (2 * num_edges * (24 if cfg.weighted else 16)
            + num_vertices * sides * CACHE_LINE_BYTES)
    have = physical_memory_bytes()
    if need > have:
        raise ValueError(f"{num_vertices} vertices and {num_edges} edges need "
                         f"{need / 2**30:.1f} GiB of edge arrays and meta lines; "
                         f"this host has {have / 2**30:.1f} GiB of memory")


def _build_dataset(args, cfg: Config):
    if args.synthetic is not None:
        if args.vertices is None or args.edges is None:
            raise ValueError("--synthetic needs --vertices and --edges")
        check_synthetic(args.synthetic, args.vertices, args.edges)
        _check_fits(args.vertices, args.edges, cfg)
        el = gen_synthetic(args.synthetic, args.vertices, args.edges, args.seed,
                           weighted=cfg.weighted, directed=cfg.directed)
    else:
        el = load_snap(args.input, weighted=cfg.weighted, directed=cfg.directed)
        _check_fits(el.num_vertices, el.num_edges, cfg)
    return shuffle(el, args.seed)


def _parse_algorithms(arg: str) -> tuple:
    return tuple(a.strip() for a in arg.split(",") if a.strip())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = Config(weighted=args.weighted, directed=args.directed, th1=args.th1)
        el = _build_dataset(args, cfg)
        algorithms = _parse_algorithms(args.algorithms)
        meta = {"dataset": el.source_name, "seed": args.seed}

        if args.sweep_th1:
            if args.format != "tango":
                raise ValueError("--sweep-th1 applies to the tango format only")
            rows = run_th1_sweep(el, algorithms=algorithms,
                                 batch_size=args.batch_size,
                                 num_threads=args.threads)
            if args.report:
                emit_sweep_report(rows, args.report, extra_meta=meta)
                print(f"sweep report written to {args.report}")
            for row in rows:
                print(f"th1={row['th1']:<4d} insert={row['insert_geomean_eps']:.0f}/s "
                      f"bytes/edge={row['insert_mean_bytes_per_edge']:.2f} "
                      f"peak={row['peak_memory_bytes']}B")
            return 0

        reports, summary = run_experiment(
            el, args.format, config=cfg, algorithms=algorithms,
            batch_size=args.batch_size, num_threads=args.threads)
        if args.report:
            emit_report(reports, summary, args.report, extra_meta=meta)
            print(f"report written to {args.report}")
        print(f"format={summary.format} vertices={summary.num_vertices} "
              f"edges={summary.num_edges} threads={summary.num_threads} "
              f"th1={summary.th1}")
        print(f"insert geomean:    {summary.insert_geomean_eps:,.0f} edges/s")
        print(f"delete geomean:    {summary.delete_geomean_eps:,.0f} edges/s")
        if algorithms:
            print(f"analytics geomean: {summary.analytics_geomean_eps:,.0f} edges/s")
        print(f"mean bytes/edge:   {summary.mean_bytes_per_edge:.2f}")
        print(f"total time:        {summary.total_seconds:.3f}s")
        return 0
    except (ConfigError, ParseError, ValueError, OSError, MemoryError) as exc:
        print(f"graphtango-bench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
