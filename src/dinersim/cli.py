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
import re
import sys
from dataclasses import replace
from pathlib import Path

from . import reporting
from .backends import RuleOracle, LlmBackend, BackendError
from .backends.accuracy import build_scenario_suite, evaluate_accuracy, load_suite, save_suite
from .config_io import InputError, load_config, read_text, save_config, write_text
from .model import (
    BackendConfig,
    ConfigError,
    STRATEGY_ORDER,
    SimulationConfig,
    paper_preset,
    seed_in_range,
    validate_config,
)
from .reporting import (
    NOT_XML,
    census_series,
    convergence_stats,
    load_event_log,
    render_trend_svg,  # unused here; the benchmark's tracer wraps it in this module
    write_batch_summary_csv,
    write_census_csv,
    write_trend_svg,
)
from .runner import MAX_JOBS, RunResult, RunStatus, Trajectory, run_replications, run_simulation

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_BACKEND = 3


# An integer as written in ASCII: ``int`` alone also takes "+5", "1_000",
# surrounding spaces and the digits of other scripts.
_INTEGER = re.compile(r"-?[0-9]+")


def integer(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def positive_int(text: str) -> int:
    value = integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def utf8_text(text: str) -> str:
    """A string that can be written as UTF-8 into an SVG: a byte that is not
    UTF-8 in an argument decodes to a lone surrogate, which cannot be."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"not UTF-8 text: {text!r}") from None
    if NOT_XML.intersection(text):
        raise argparse.ArgumentTypeError(f"holds a character XML cannot hold: {text!r}")
    return text


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
    simulate.add_argument("--seed", type=integer, default=None, help="override the config seed")
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.add_argument("--early-stop", action="store_true",
                          help="stop once the census becomes homogeneous")
    simulate.add_argument("--trace-llm", action="store_true",
                          help="log LLM requests/responses (token redacted)")
    simulate.set_defaults(func=cmd_simulate)

    preset = sub.add_parser("preset", help="write one of the built-in experiment configs")
    preset.add_argument("--combination", required=True, type=integer, choices=[1, 2])
    preset.add_argument("--punishment", required=True, choices=["none", "3:1", "6:1"])
    preset.add_argument("--seed", type=integer, default=1)
    preset.add_argument("--backend", choices=["oracle", "llm"], default="llm")
    preset.add_argument("--out", required=True, help="where to write the config file")
    preset.set_defaults(func=cmd_preset)

    replicate = sub.add_parser("replicate",
                               help="run a seeded replication batch of a preset or a config file")
    replicate.add_argument("--combination", type=integer, choices=[1, 2],
                           help="preset to run, with --punishment (or give --config)")
    replicate.add_argument("--punishment", choices=["none", "3:1", "6:1"])
    replicate.add_argument("--config", default=None,
                           help="JSON config file to run instead of a preset; "
                           "its seed is replaced by each batch seed")
    replicate.add_argument("--backend", required=True, choices=["oracle", "llm"])
    seeds = replicate.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--seeds", type=integer, help="run seeds 0..N-1")
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
    report.add_argument("--title", type=utf8_text, default=None, help="chart title override")
    report.set_defaults(func=cmd_report)

    return parser


def config_from_file(path: str, backend_kind: str, seed: int | None = None) -> SimulationConfig:
    """The validated config in ``path``, its backend kind set to ``backend_kind``
    and, when given, its seed to ``seed``."""
    config = load_config(path)
    if seed is not None:
        config = replace(config, seed=seed)
    return validate_config(replace(config, backend=replace(config.backend, kind=backend_kind)))


def make_backend(settings: BackendConfig, trace: bool):
    if settings.kind == "oracle":
        return RuleOracle()
    return LlmBackend(settings=settings, trace=trace)


def write_census_files(run_dir: Path, run: Trajectory, title: str | None = None) -> None:
    """A run's ``census.csv`` and ``trend.svg``, for every command: from a
    run's result or from its reloaded event log."""
    series = census_series(run.initial_census, run.records)
    write_census_csv(series, run_dir / "census.csv")
    if title is None:
        title = f"Strategy shares (run {run.handle.run_id})"
    write_trend_svg(series, title, run_dir / "trend.svg")


def write_run_outputs(result: RunResult, run_dir: Path) -> Path:
    """A run's ``events.jsonl`` plus its census files; returns the log's path."""
    run_dir.mkdir(parents=True, exist_ok=True)
    # Through the module, so that a wrapper the benchmark's tracer puts
    # there sees the call.
    log_path = reporting.write_event_log(result, run_dir / "events.jsonl")
    write_census_files(run_dir, result)
    return log_path


def print_census(census) -> None:
    total = sum(census.values())
    parts = [f"{s.value}={census.get(s, 0)}" for s in STRATEGY_ORDER]
    fractions = [f"{census.get(s, 0) / total:.3f}" for s in STRATEGY_ORDER]
    print("final census: " + " ".join(parts) + "  (" + "/".join(fractions) + ")")


def cmd_simulate(args: argparse.Namespace) -> int:
    config = config_from_file(args.config, args.backend, args.seed)
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


def preset_config(args: argparse.Namespace, seed: int) -> SimulationConfig:
    """The checked paper preset that ``--combination`` and ``--punishment`` name."""
    return validate_config(paper_preset(
        args.combination, args.punishment, seed, backend=BackendConfig(kind=args.backend)
    ))


def cmd_preset(args: argparse.Namespace) -> int:
    config = preset_config(args, args.seed)
    save_config(config, args.out)
    print(f"wrote combination {args.combination} ({args.punishment}) config to {args.out}")
    return EXIT_OK


def read_seed_list(path: str) -> list[int]:
    """The seeds of a seed-list file, whitespace-separated, one per line.

    Every seed is checked before any run starts: a missing file, a byte
    that is not UTF-8, a token that is not an integer, or a seed out of
    range, raises ``InputError``.
    """
    seeds = []
    for number, line in enumerate(read_text(path, "seed list").split("\n"), start=1):
        for token in line.split():
            try:
                seed = integer(token)
            except ValueError:
                raise InputError("seed list", path, number, f"{token!r} is not an integer") from None
            if not seed_in_range(seed):
                raise InputError(
                    "seed list", path, number, f"seed {seed} must fit in an unsigned 64-bit integer"
                )
            seeds.append(seed)
    return seeds


def cmd_replicate(args: argparse.Namespace) -> int:
    preset_flags = (args.combination, args.punishment)
    if args.config is not None and preset_flags != (None, None):
        raise ConfigError("give either --config or --combination with --punishment, not both")
    if args.config is None and None in preset_flags:
        raise ConfigError("give --config, or both --combination and --punishment")
    if args.seed_list is not None:
        seeds = read_seed_list(args.seed_list)
    else:
        seeds = list(range(args.seeds))
    if not seeds:
        raise ConfigError("no seeds to run")

    if args.config is not None:
        config = config_from_file(args.config, args.backend, seeds[0])
    else:
        config = preset_config(args, seeds[0])
    backend = make_backend(config.backend, args.trace_llm)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = run_replications(
        config, backend, seeds, jobs=args.jobs, early_stop=args.early_stop,
        # Each row names its log relative to the batch, so a moved batch still
        # finds its logs and equal batches are equal byte for byte.
        on_run=lambda result: write_run_outputs(
            result, out_dir / result.handle.run_id
        ).relative_to(out_dir).as_posix(),
    )
    write_batch_summary_csv(rows, out_dir / "batch_summary.csv")
    stats = convergence_stats(rows)
    text = json.dumps(stats, indent=2)
    write_text(out_dir / "aggregate_stats.json", text + "\n")

    completed = stats["runs"] - stats["aborted_runs"]
    print(f"{completed} runs completed, {stats['aborted_runs']} aborted -> {out_dir}")
    print(text)
    if completed == 0:
        return EXIT_BACKEND
    return EXIT_OK


def cmd_eval_backend(args: argparse.Namespace) -> int:
    if args.config:
        settings = config_from_file(args.config, args.backend).backend
    else:
        settings = BackendConfig(kind=args.backend)
    suite = load_suite(args.suite) if args.suite else build_scenario_suite()
    if args.save_suite:
        save_suite(suite, args.save_suite)
    backend = make_backend(settings, args.trace_llm)
    report = evaluate_accuracy(backend, suite)
    write_text(args.out, json.dumps(report.to_dict(), indent=2) + "\n")

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
    loaded = load_event_log(args.log)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_census_files(out_dir, loaded, args.title)
    print_census(loaded.final_census)
    print(f"rebuilt reports for run {loaded.handle.run_id} -> {out_dir}")
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
