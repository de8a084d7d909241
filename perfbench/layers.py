"""Where the traced run wraps the package, and how its spans become the
per-layer metrics.

Every name is wrapped where its caller looks it up: ``runner`` imported
``run_group_round`` and ``imitation_step`` into its own namespace, ``engine``
calls its stages as module globals, ``cli`` imported the reporting writers and
the accuracy functions, and ``llm`` reaches HTTP through ``requests.post``.
"""

from __future__ import annotations

import statistics

import requests

import dinersim.cli as cli
import dinersim.config_io as config_io
import dinersim.engine as engine
import dinersim.reporting as reporting
import dinersim.runner as runner
from dinersim.backends import accuracy, llm
from dinersim.backends.base import DecisionBackend, DecisionKind
from dinersim.backends.llm import LlmBackend

from spans import Tracer, durations, inside, reduce_spans

ENGINE_STAGES = ("collect_orders", "settle_bill", "punishment_round_1", "metanorm_round_2", "apply_utilities")


def _count_contexts(tracer: Tracer, args, kwargs, decisions) -> None:
    contexts = args[1]
    tracer.count("backend.contexts", len(contexts))
    for ctx in contexts:
        tracer.count(f"engine.contexts.{ctx.kind.value}")


def _count_adoptions(tracer: Tracer, args, kwargs, outcomes) -> None:
    tracer.count("imitation.adoptions", sum(o.adopted for o in outcomes))


def _count_matched(tracer: Tracer, args, kwargs, report) -> None:
    tracer.count("accuracy.matched", report.matched)


def _count_log_bytes(tracer: Tracer, args, kwargs, path) -> None:
    tracer.count("reporting.write_event_log.bytes", path.stat().st_size)


def instrument(tracer: Tracer) -> None:
    """Wrap every traced name; ``tracer.restore()`` undoes it."""
    wrap = tracer.wrap
    wrap(cli, "main", "cli.main")
    wrap(cli, "run_replications", "runner.run_replications")
    wrap(runner, "run_simulation", "runner.run_simulation")
    wrap(runner, "run_id_for", "runner.run_id_for")
    for owner in (runner, reporting, config_io):
        wrap(owner, "config_to_dict", "config_io.config_to_dict")
    wrap(runner, "run_group_round", "engine.run_group_round")
    wrap(runner, "imitation_step", "imitation.imitation_step", _count_adoptions)
    for stage in ENGINE_STAGES:
        wrap(engine, stage, f"engine.{stage}")
    for backend_class in (DecisionBackend, LlmBackend):
        wrap(backend_class, "decide_many", "backend.decide_many", _count_contexts)
    wrap(LlmBackend, "decide", "llm.decide")
    wrap(LlmBackend, "_complete", "llm.complete")
    wrap(llm, "render_prompt", "llm.render_prompt")
    wrap(llm, "parse_reply", "llm.parse_reply")
    wrap(requests, "post", "llm.http")
    wrap(reporting, "write_event_log", "reporting.write_event_log", _count_log_bytes)
    wrap(reporting, "render_trend_svg", "reporting.render_trend_svg")
    wrap(cli, "render_trend_svg", "reporting.render_trend_svg")
    wrap(cli, "write_census_csv", "reporting.write_census_csv")
    wrap(cli, "write_trend_svg", "reporting.write_trend_svg")
    wrap(cli, "load_event_log", "reporting.load_event_log")
    wrap(cli, "write_batch_summary_csv", "reporting.write_batch_summary_csv")
    for owner in (accuracy, cli):
        wrap(owner, "build_scenario_suite", "accuracy.build_scenario_suite")
        wrap(owner, "evaluate_accuracy", "accuracy.evaluate_accuracy", _count_matched)


# (metric, unit, better); times and counts are per traced cycle.
PER_LAYER = (
    ("engine.run_group_round.calls", "count/cycle", "lower"),
    ("engine.run_group_round.self_s", "s/cycle", "lower"),
    ("engine.collect_orders.self_s", "s/cycle", "lower"),
    ("engine.punishment_round_1.self_s", "s/cycle", "lower"),
    ("engine.metanorm_round_2.self_s", "s/cycle", "lower"),
    ("engine.settle_bill.s", "s/cycle", "lower"),
    ("engine.apply_utilities.s", "s/cycle", "lower"),
    *((f"engine.contexts.{kind.value}", "count/cycle", "lower") for kind in DecisionKind),
    ("imitation.imitation_step.s", "s/cycle", "lower"),
    ("imitation.adoptions", "count/cycle", "lower"),
    ("runner.run_simulation.calls", "count/cycle", "lower"),
    ("runner.run_simulation.self_s", "s/cycle", "lower"),
    ("runner.run_id_for.s", "s/cycle", "lower"),
    ("runner.parallel_efficiency", "ratio", "higher"),
    ("config_io.config_to_dict.calls", "count/cycle", "lower"),
    ("config_io.config_to_dict.s", "s/cycle", "lower"),
    ("backend.decide_many.calls", "count/cycle", "lower"),
    ("backend.decide_many.s", "s/cycle", "lower"),
    ("backend.batch_size_mean", "count", "higher"),
    ("llm.render_prompt.s", "s/cycle", "lower"),
    ("llm.http.requests", "count/cycle", "lower"),
    ("llm.http.s", "s/cycle", "lower"),
    ("llm.http_ms_p50", "ms", "lower"),
    ("llm.parse_reply.s", "s/cycle", "lower"),
    ("llm.transport_retries", "count/cycle", "lower"),
    ("llm.repairs", "count/cycle", "lower"),
    ("llm.requests_per_decision", "ratio", "lower"),
    ("llm.requests_per_run", "count", "lower"),
    ("llm.slot_utilisation", "ratio", "higher"),
    ("reporting.write_event_log.s", "s/cycle", "lower"),
    ("reporting.write_event_log.bytes", "bytes/cycle", "lower"),
    ("reporting.write_census_csv.s", "s/cycle", "lower"),
    ("reporting.write_trend_svg.s", "s/cycle", "lower"),
    ("reporting.render_trend_svg.s", "s/cycle", "lower"),
    ("reporting.load_event_log.s", "s/cycle", "lower"),
    ("reporting.write_batch_summary_csv.s", "s/cycle", "lower"),
    ("accuracy.build_scenario_suite.s", "s/cycle", "lower"),
    ("accuracy.evaluate_accuracy.s", "s/cycle", "lower"),
    ("accuracy.matched", "count/cycle", "higher"),
    ("cli.main.calls", "count/cycle", "lower"),
    ("cli.main.self_s", "s/cycle", "lower"),
    ("trace.spans", "count/cycle", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    cycles: int,
    runs: int,
    max_concurrency: int,
    overhead_pct: float,
) -> dict[str, float]:
    """Reduce the spans and counters of ``cycles`` traced cycles to PER_LAYER."""
    spans, counters = tracer.spans, tracer.counters
    stats = reduce_spans(spans)

    def total(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    values: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        span_name, _, key = metric.rpartition(".")
        if key in ("calls", "s", "self_s") and span_name in stats:
            values[metric] = total(span_name, key) / cycles
        else:
            values[metric] = counters.get(metric, 0) / cycles

    http_calls = total("llm.http", "calls")
    decides = total("llm.decide", "calls")
    completes = total("llm.complete", "calls")
    run_requests, run_http_s = inside(spans, "llm.http", "backend.decide_many")
    _, batch_run_s = inside(spans, "runner.run_simulation", "runner.run_replications")
    http_ms = [1000 * d for d in durations(spans, "llm.http")]
    values.update({
        "llm.http.requests": http_calls / cycles,
        "llm.transport_retries": (http_calls - completes) / cycles,
        "llm.repairs": (completes - decides) / cycles,
        "llm.requests_per_decision": _ratio(http_calls, decides),
        "llm.requests_per_run": _ratio(run_requests, runs),
        "llm.http_ms_p50": statistics.median(http_ms) if http_ms else 0.0,
        "llm.slot_utilisation": _ratio(run_http_s, max_concurrency * total("backend.decide_many", "s")),
        "backend.batch_size_mean": _ratio(counters["backend.contexts"], total("backend.decide_many", "calls")),
        # Busy time of the batch's runs over (jobs x batch wall time); every
        # batch here is serial, so jobs is 1.
        "runner.parallel_efficiency": _ratio(batch_run_s, total("runner.run_replications", "s")),
        "trace.spans": len(spans) / cycles,
        "trace.overhead_pct": overhead_pct,
    })
    return values
