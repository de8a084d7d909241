"""Command-line entry point.

Subcommands: simulate, preset, replicate, eval-backend, report. Exit codes
are stable: 0 success, 1 I/O failure, 2 invalid configuration, input file
or usage, 3 decision backend failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import reporting
from .backends import RuleOracle, LlmBackend, BackendError
from .backends.accuracy import build_scenario_suite, evaluate_accuracy, load_suite, save_suite
from .config_io import load_config, save_config
from .model import (
    BackendConfig,
    ConfigError,
    STRATEGY_ORDER,
    paper_preset,
    seed_in_range,
    validate_config,
)
from .reporting import (
    EventLogError,
    convergence_stats,
    load_event_log,
    render_trend_svg,  # unused here; the benchmark's tracer wraps it in this module
    write_batch_summary_csv,
    write_census_csv,
    write_trend_svg,
)
from .runner import MAX_JOBS, RunResult, RunStatus, run_replications, run_simulation

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_BACKEND = 3


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: each parse fills a fresh
    namespace, so one call's options never reach the next."""
    parser = argparse.ArgumentParser(
        prog="dinersim",
        description="n-player Diner's Dilemma simulator with metanorm punishment "
        "and Fermi imitation dynamics",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    simulate = sub.add_parser("simulate", help="run one simulation from a config file")
    simulate.add_argument("--config", required=True, help="path to a JSON config file")
    simulate.add_argument("--backend", required=True, choices=["oracle", "llm"])
    simulate.add_argument("--seed", type=int, default=None, help="override the config seed")
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.add_argument("--early-stop", action="store_true",
                          help="stop once the census becomes homogeneous")
    simulate.add_argument("--trace-llm", action="store_true",
                          help="log LLM requests/responses (token redacted)")
    simulate.set_defaults(func=cmd_simulate)

    preset = sub.add_parser("preset", help="write one of the built-in experiment configs")
    preset.add_argument("--combination", required=True, type=int, choices=[1, 2])
    preset.add_argument("--punishment", required=True, choices=["none", "3:1", "6:1"])
    preset.add_argument("--seed", type=int, default=1)
    preset.add_argument("--backend", choices=["oracle", "llm"], default="llm")
    preset.add_argument("--out", required=True, help="where to write the config file")
    preset.set_defaults(func=cmd_preset)

    replicate = sub.add_parser("replicate", help="run a seeded replication batch of a preset")
    replicate.add_argument("--combination", required=True, type=int, choices=[1, 2])
    replicate.add_argument("--punishment", required=True, choices=["none", "3:1", "6:1"])
    replicate.add_argument("--backend", required=True, choices=["oracle", "llm"])
    seeds = replicate.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--seeds", type=int, help="run seeds 0..N-1")
    seeds.add_argument("--seed-list", help="file with one integer seed per line")
    replicate.add_argument("--out", required=True, help="output directory")
    replicate.add_argument("--jobs", type=positive_int, default=1,
                           help=f"parallel runs, capped at the seed count and {MAX_JOBS} "
                           "(default serial)")
    replicate.add_argument("--early-stop", action="store_true")
    replicate.add_argument("--trace-llm", action="store_true")
    replicate.set_defaults(func=cmd_replicate)

    evaluate = sub.add_parser("eval-backend", help="score a backend against the rule oracle")
    evaluate.add_argument("--backend", required=True, choices=["oracle", "llm"])
    evaluate.add_argument("--out", required=True, help="where to write the JSON accuracy report")
    evaluate.add_argument("--suite", default=None,
                          help="scenario suite JSON (default: generate the full suite)")
    evaluate.add_argument("--save-suite", default=None,
                          help="also write the generated suite to this path")
    evaluate.add_argument("--config", default=None,
                          help="JSON config file whose backend settings to use "
                          "(default: built-in settings)")
    evaluate.add_argument("--trace-llm", action="store_true")
    evaluate.set_defaults(func=cmd_eval_backend)

    report = sub.add_parser("report", help="rebuild census.csv and trend.svg from an event log")
    report.add_argument("--log", required=True, help="path to an events.jsonl file")
    report.add_argument("--out", required=True, help="output directory")
    report.add_argument("--title", default=None, help="chart title override")
    report.set_defaults(func=cmd_report)

    return parser


def make_backend(settings: BackendConfig, trace: bool):
    if settings.kind == "oracle":
        return RuleOracle()
    return LlmBackend(settings=settings, trace=trace)


def write_census_files(
    run_dir: Path, run_id: str, initial, records, title: str | None = None
) -> None:
    """A run directory's ``census.csv`` and ``trend.svg``, for every command."""
    title = title or f"Strategy shares (run {run_id})"
    write_census_csv(initial, records, run_dir / "census.csv")
    write_trend_svg(initial, records, title, run_dir / "trend.svg")


def write_run_outputs(result: RunResult, run_dir: Path) -> str:
    """A run's ``events.jsonl`` plus its census files; returns the log's path."""
    run_dir.mkdir(parents=True, exist_ok=True)
    # Through the module, so that a wrapper the benchmark's tracer puts
    # there sees the call.
    log_path = reporting.write_event_log(result, run_dir / "events.jsonl")
    write_census_files(run_dir, result.handle.run_id, result.initial_census, result.records)
    return str(log_path)


def print_census(census) -> None:
    total = sum(census.values())
    parts = [f"{s.value}={census.get(s, 0)}" for s in STRATEGY_ORDER]
    fractions = [f"{census.get(s, 0) / total:.3f}" for s in STRATEGY_ORDER]
    print("final census: " + " ".join(parts) + "  (" + "/".join(fractions) + ")")


def cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    config = replace(config, backend=replace(config.backend, kind=args.backend))
    validate_config(config)
    backend = make_backend(config.backend, args.trace_llm)
    result = run_simulation(config, backend, early_stop=args.early_stop)
    write_run_outputs(result, Path(args.out))
    print_census(result.final_census)
    if result.handle.status is RunStatus.ABORTED:
        print(f"run aborted: {result.error}", file=sys.stderr)
        return EXIT_BACKEND
    print(f"run {result.handle.run_id}: {result.handle.status.value} "
          f"after {result.handle.iterations_executed} iterations -> {args.out}")
    return EXIT_OK


def cmd_preset(args: argparse.Namespace) -> int:
    config = paper_preset(
        args.combination,
        None if args.punishment == "none" else args.punishment,
        args.seed,
        backend=BackendConfig(kind=args.backend),
    )
    validate_config(config)
    save_config(config, args.out)
    print(f"wrote combination {args.combination} ({args.punishment}) config to {args.out}")
    return EXIT_OK


def read_seed_list(path: str) -> list[int]:
    """The seeds of a seed-list file, whitespace-separated, one per line.

    Every seed is checked before any run starts: a token that is not an
    integer, or a seed out of range, raises ``ConfigError`` naming its line.
    """
    seeds = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"seed list {path} is not UTF-8 text") from exc
    for number, line in enumerate(text.splitlines(), start=1):
        for token in line.split():
            try:
                seed = int(token)
            except ValueError:
                raise ConfigError(
                    f"seed list {path}, line {number}: {token!r} is not an integer"
                ) from None
            if not seed_in_range(seed):
                raise ConfigError(
                    f"seed list {path}, line {number}: seed {seed} must fit in an "
                    "unsigned 64-bit integer"
                )
            seeds.append(seed)
    return seeds


def cmd_replicate(args: argparse.Namespace) -> int:
    if args.seed_list is not None:
        seeds = read_seed_list(args.seed_list)
    else:
        seeds = list(range(args.seeds))
    if not seeds:
        print("error: no seeds to run", file=sys.stderr)
        return EXIT_CONFIG

    config = paper_preset(
        args.combination,
        None if args.punishment == "none" else args.punishment,
        seeds[0],
        backend=BackendConfig(kind=args.backend),
    )
    validate_config(config)
    backend = make_backend(config.backend, args.trace_llm)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = run_replications(
        config, backend, seeds, jobs=args.jobs, early_stop=args.early_stop,
        on_run=lambda result: write_run_outputs(result, out_dir / result.handle.run_id),
    )
    write_batch_summary_csv(summary.rows, out_dir / "batch_summary.csv")
    stats = convergence_stats(summary.rows)
    (out_dir / "aggregate_stats.json").write_text(json.dumps(stats, indent=2) + "\n", encoding="utf-8")

    print(f"{summary.completed} runs completed, {summary.aborted} aborted -> {out_dir}")
    print(json.dumps(stats, indent=2))
    if summary.completed == 0:
        return EXIT_BACKEND
    return EXIT_OK


def cmd_eval_backend(args: argparse.Namespace) -> int:
    settings = BackendConfig(kind=args.backend)
    if args.config:
        config = load_config(args.config)
        config = replace(config, backend=replace(config.backend, kind=args.backend))
        settings = validate_config(config).backend
    suite = load_suite(args.suite) if args.suite else build_scenario_suite()
    if args.save_suite:
        save_suite(suite, args.save_suite)
    backend = make_backend(settings, args.trace_llm)
    report = evaluate_accuracy(backend, suite)
    Path(args.out).write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")

    print(f"backend {report.backend_name}: {report.matched}/{report.total} "
          f"({report.accuracy:.1%}) overall")
    for label, table in (
        ("kind", report.by_kind),
        ("strategy", report.by_strategy),
        ("lifestyle", report.by_lifestyle),
    ):
        for key, cell in table.items():
            print(f"  {label:>9} {key:<24} {cell.matched}/{cell.total} ({cell.accuracy:.1%})")
    if report.total and report.transport_failures == report.total:
        print("error: transport failed for every scenario", file=sys.stderr)
        return EXIT_BACKEND
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    try:
        loaded = load_event_log(args.log)
    except EventLogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    initial = loaded.initial_census
    write_census_files(out_dir, loaded.header["run_id"], initial, loaded.records, args.title)
    final = loaded.records[-1].strategy_census if loaded.records else initial
    print_census(final)
    print(f"rebuilt reports for run {loaded.header['run_id']} -> {out_dir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "trace_llm", False):
        logging.basicConfig(level=logging.INFO)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BackendError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
