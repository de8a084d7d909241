"""Durable run outputs: line-delimited event log, census CSV, trend SVG,
and batch convergence statistics.

Every writer is a deterministic function of the run content: no timestamps,
no environment-dependent formatting, so equal runs produce byte-identical
files. The event log is lossless: reloading reconstructs the run's
IterationRecords exactly.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import dataclass
from math import isfinite
from pathlib import Path
from typing import Iterable, Sequence

from .config_io import InputError, config_to_dict, read_text, write_text
from .model import (
    GroupRound,
    ImitationOutcome,
    IterationRecord,
    MealChoice,
    PunishmentEvent,
    PunishmentLevel,
    Strategy,
    STRATEGY_ORDER,
    seed_in_range,
)
from .runner import BatchRow, RunHandle, RunResult, RunStatus, SeedlessCache, Trajectory, homogeneous

SCHEMA_VERSION = 1

# Fixed strategy -> colour mapping, also documented in each SVG header so
# charts from different runs are comparable.
STRATEGY_COLORS: dict[Strategy, str] = {
    Strategy.MORALIST: "#1f77b4",
    Strategy.COOPERATOR_PUNISHER: "#2ca02c",
    Strategy.EASY_GOING_COOPERATOR: "#ff7f0e",
    Strategy.RELUCTANT_COOPERATOR: "#d62728",
}


# The characters XML 1.0 forbids in a document, which no SVG title can hold:
# C0 controls other than tab, LF and CR, and U+FFFE and U+FFFF.
NOT_XML = frozenset({chr(c) for c in range(32)} - {"\t", "\n", "\r"} | {"\ufffe", "\uffff"})


class EmptySeries(ValueError):
    """A chart needs at least one census row."""


_CENSUS_LABELS = [s.value for s in STRATEGY_ORDER]

# One encoder for every line: ``json.dumps`` with these options builds a new
# encoder per call.
_encode = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode
_LEVEL_JSON = {level: _encode(level.value) for level in PunishmentLevel}
_MEAL_JSON = {meal: _encode(meal.value) for meal in MealChoice}
_STATUS_JSON = {status: _encode(status.value) for status in RunStatus}
# Checked by exact type: ``isinstance(True, int)`` holds, but a bool is no number here.
_NUMBER_TYPES = {int, float}
# A census as JSON: each label's count goes in one ``%s``.
_COUNTS_JSON = "{" + ",".join(f"{_encode(label)}:%s" for label in _CENSUS_LABELS) + "}"


def _scalar(value) -> str:
    """``value`` as the encoder writes it.

    ``json`` writes a finite float or a plain int as its ``repr`` and a bool
    as ``true`` or ``false``; NaN and infinities, and subclasses such as
    ``np.float64``, go to the encoder.
    """
    kind = type(value)
    if kind is float and isfinite(value) or kind is int:
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    return _encode(value)


class _Memo(dict):
    """``make(key)`` for each key, made on first use."""

    def __init__(self, make) -> None:
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _members_json(mapping: dict, ids: _Memo) -> str:
    """The members of a string -> number mapping as JSON, without braces.

    Where every value is a plain int or float and their sum is finite, no
    value is NaN or infinite, and ``repr`` writes each one as ``_scalar``
    does.
    """
    values = mapping.values()
    try:
        plain = {*map(type, values)} <= _NUMBER_TYPES and isfinite(sum(values))
    except OverflowError:  # an int too large for a float
        plain = False
    texts = map(repr, values) if plain else map(_scalar, values)
    return ",".join([f"{ids[key]}:{text}" for key, text in zip(mapping, texts)])


def _counts_json(census: dict[Strategy, int]) -> str:
    get = census.get
    return _COUNTS_JSON % tuple([_scalar(get(s, 0)) for s in STRATEGY_ORDER])


def _seedless_config_json(config) -> str:
    """The config's JSON text without its seed and closing brace."""
    data = config_to_dict(config)
    del data["seed"]
    return _encode(data)[:-1]


# Made once per batch: the runs of a batch differ only in their seeds.
_header_config = SeedlessCache(_seedless_config_json)


def event_log_lines(result: RunResult) -> Iterable[str]:
    """Yield the event log line by line, in canonical order.

    Kinds: header, orders (one per group), punishment, utilities, imitation,
    census. Field order within each line is fixed; see the README for the
    field-by-field schema. Every line comes from a template and is the text
    ``json.dumps`` gives for its fields with ``,`` and ``:`` separators and
    ``ensure_ascii=False``; agent and group ids must be strings.
    """
    handle, config = result.handle, result.config
    yield (
        f'{{"kind":"header","schema":{SCHEMA_VERSION},"run_id":{_encode(handle.run_id)},'
        f'"seed":{_scalar(handle.seed)},"status":{_STATUS_JSON[handle.status]},'
        f'"iterations_executed":{_scalar(handle.iterations_executed)},'
        f'"initial_census":{_counts_json(result.initial_census)},'
        # The seed is the last field of the config, so it goes back last.
        f'"config":{_header_config(config)},"seed":{_scalar(config.seed)}}}}}'
    )
    ids = _Memo(_encode)
    for record in result.records:
        iteration = _scalar(record.iteration)
        for group in record.groups:
            choices = ",".join([f"{ids[a]}:{_MEAL_JSON[c]}" for a, c in group.orders.items()])
            payoffs = _members_json(group.meal_payoffs, ids)
            yield (
                f'{{"kind":"orders","iteration":{iteration},"group":{ids[group.group_id]},'
                f'"location":{ids[group.location]},"choices":{{{choices}}},'
                f'"bill_total":{_scalar(group.bill_total)},"meal_payoffs":{{{payoffs}}}}}'
            )
        for group in record.groups:
            for e in group.punishment_events:
                yield (
                    f'{{"kind":"punishment","iteration":{_scalar(e.iteration)},'
                    f'"punisher":{ids[e.punisher_id]},"target":{ids[e.target_id]},'
                    f'"level":{_LEVEL_JSON[e.level]},"cost_to_punisher":{_scalar(e.cost_to_punisher)},'
                    f'"cost_to_target":{_scalar(e.cost_to_target)}}}'
                )
        values = _members_json(record.iteration_utilities, ids)
        yield f'{{"kind":"utilities","iteration":{iteration},"values":{{{values}}}}}'
        for o in record.imitation_outcomes:
            yield (
                f'{{"kind":"imitation","iteration":{iteration},'
                f'"focal":{ids[o.focal_id]},"role_model":{ids[o.role_model_id]},'
                f'"payoff_diff":{_scalar(o.payoff_diff)},"probability":{_scalar(o.probability)},'
                f'"uniform_draw":{_scalar(o.uniform_draw)},"adopted":{_scalar(o.adopted)}}}'
            )
        yield f'{{"kind":"census","iteration":{iteration},"counts":{_counts_json(record.strategy_census)}}}'


def write_event_log(result: RunResult, path: str | Path) -> Path:
    """Write the run's event log in one call; a failed write removes the partial file."""
    return write_text(path, "\n".join(event_log_lines(result)) + "\n")


@dataclass
class LoadedRun(Trajectory):
    handle: RunHandle
    initial_census: dict[Strategy, int]
    records: list[IterationRecord]


class EventLogError(InputError, ValueError):
    """An event log that cannot be read back, with the file and line at fault."""

    def __init__(self, path: str | Path, line: int | None, problem: str):
        super().__init__("event log", path, line, problem)


def _problem(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"not JSON ({exc.msg})"
    if isinstance(exc, KeyError):
        return f"missing key {exc.args[0]!r}"
    return str(exc) or type(exc).__name__


def _header(item: dict) -> tuple[RunHandle, dict[Strategy, int]]:
    """The run's handle and initial census, from a header line whose values
    have the types the writer gives them."""
    if item["kind"] != "header":
        raise ValueError("expected the header line first")
    if item["schema"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported event log schema {item['schema']!r}")
    run_id, seed = _typed(item, "run_id", (str,)), item["seed"]
    if type(seed) is not int or not seed_in_range(seed):
        raise ValueError(f"seed must be an integer in [0, 2**64), not {seed!r}")
    if not run_id.endswith(f"-s{seed}"):
        raise ValueError(f"run_id {run_id!r} does not end in the seed's suffix '-s{seed}'")
    if NOT_XML.intersection(run_id):
        # The default chart title holds the run_id.
        raise ValueError(f"run_id {run_id!r} holds a character XML cannot hold")
    config_seed = item["config"]["seed"]
    if type(config_seed) is not int or config_seed != seed:
        raise ValueError(f"seed {seed} differs from the config's seed {config_seed!r}")
    status, executed = _member(_STATUSES, RunStatus, item["status"]), item["iterations_executed"]
    if type(executed) is not int or executed < 0:
        raise ValueError(f"iterations_executed must be a non-negative integer, not {executed!r}")
    return RunHandle(run_id, seed, status, executed), _census(item["initial_census"])


def _census(counts: dict) -> dict[Strategy, int]:
    census = {_member(_STRATEGIES, Strategy, k): v for k, v in counts.items()}
    if not all(type(v) is int and v >= 0 for v in census.values()) or not sum(census.values()):
        raise ValueError(f"census counts must be non-negative integers, not all 0: {counts}")
    return census


# The C scanner behind ``json.loads``; it raises StopIteration where no value starts.
_scan = json.JSONDecoder().scan_once


def _decode(line: str):
    """``json.loads(line)``, without its whitespace scan on a line that is
    one JSON value from first to last character."""
    try:
        item, end = _scan(line, 0)
    except (StopIteration, json.JSONDecodeError):
        return json.loads(line)
    return item if end == len(line) else json.loads(line)


def _typed(item: dict, key: str, types=_NUMBER_TYPES):
    """``item[key]``, whose exact type must be one of ``types``: by default
    an ``int`` or a ``float``, not a bool."""
    value = item[key]
    if type(value) not in types:
        what = "a number" if types is _NUMBER_TYPES else "a string"
        raise ValueError(f"{key} must be {what}, not {value!r}")
    return value


def _numbers(item: dict, key: str) -> dict:
    """``item[key]``, an agent -> number mapping."""
    values = item[key]
    for agent_id, value in values.items():
        if type(value) not in _NUMBER_TYPES:
            raise ValueError(f"{key}[{agent_id!r}] must be a number, not {value!r}")
    return values


def _imitation(item: dict) -> ImitationOutcome:
    """The outcome of an imitation line, whose ``adopted`` must be what its
    draw and probability give."""
    probability, draw, adopted = _typed(item, "probability"), _typed(item, "uniform_draw"), item["adopted"]
    if not 0 <= probability <= 1:
        raise ValueError(f"probability must be in [0, 1], not {probability!r}")
    if not 0 <= draw < 1:
        raise ValueError(f"uniform_draw must be in [0, 1), not {draw!r}")
    if type(adopted) is not bool:
        raise ValueError(f"adopted must be true or false, not {adopted!r}")
    if adopted is not (draw < probability):
        raise ValueError(
            f"adopted is {_scalar(adopted)}, but uniform_draw < probability is {_scalar(not adopted)}"
        )
    return ImitationOutcome(
        item["focal"], item["role_model"], _typed(item, "payoff_diff"), probability, draw, adopted
    )


def _member(members: dict, enum: type, value):
    """``enum(value)``, through a value -> member dict."""
    try:
        return members[value]
    except (KeyError, TypeError):
        return enum(value)


_STRATEGIES = {s.value: s for s in Strategy}
_MEALS = {m.value: m for m in MealChoice}
_LEVELS = {level.value: level for level in PunishmentLevel}
_STATUSES = {status.value: status for status in RunStatus}
# The line kinds that may follow each kind. An iteration is its orders lines,
# its punishment lines, one utilities line, its imitation lines and one census
# line; the log ends after the header or a census line.
_FOLLOWS = {
    "header": ("orders",),
    "orders": ("orders", "punishment", "utilities"),
    "punishment": ("punishment", "utilities"),
    "utilities": ("imitation", "census"),
    "imitation": ("imitation", "census"),
    "census": ("orders",),
}


def load_event_log(path: str | Path) -> LoadedRun:
    """Rebuild IterationRecords from a log file, losslessly.

    Each punishment line goes to the group its punisher ordered in, and the
    utilities line is split by each group's orders. Raises
    :class:`EventLogError`, naming the first line at fault, for a log that
    :func:`event_log_lines` cannot have written (README, "Event log schema"):
    a missing or empty file; a line that is not UTF-8 or not one JSON value;
    a bad header; a kind that may not follow the line before (``_FOLLOWS``)
    or an ``iteration`` other than the one due; a missing key, or a value of
    the wrong type or out of range; agents that do not match the iteration's
    orders; or a log cut before a census line, or whose iteration count or
    ``status`` differs from the header's. Any other ``OSError`` (a
    directory, a file it may not read) is raised as it is.
    """
    try:
        # Split at newlines only: str.splitlines would also split at a
        # U+2028 or U+0085 inside a JSON string.
        lines = read_text(path, "event log").split("\n")
    except InputError as exc:
        raise EventLogError(path, exc.line, exc.problem) from exc
    if not lines[-1]:
        lines.pop()  # what follows the last newline
    number = 1
    try:
        if not lines:
            raise ValueError("empty file, expected a header line")
        handle, initial_census = _header(_decode(lines[0]))
        population = sum(initial_census.values())
        records: list[IterationRecord] = []
        previous, iteration = "header", 0  # the kind and iteration of the line before
        for number, line in enumerate(lines[1:], start=2):
            item = _decode(line)
            kind = item["kind"]
            if kind not in _FOLLOWS[previous]:
                if type(kind) is not str or kind not in _FOLLOWS:
                    raise ValueError(f"unknown event kind {kind!r}")
                of = f" of iteration {iteration}" if previous != "header" else ""
                raise ValueError(f"{kind} after the {previous} line{of}")
            iteration = item["iteration"]
            if type(iteration) is not int:
                raise ValueError(f"iteration must be an integer, not {iteration!r}")
            if iteration != len(records) + 1:
                raise ValueError(
                    f"{kind} line of iteration {iteration} where iteration {len(records) + 1} is due"
                )

            # By frequency: an oracle log of eight agents has 80 imitation
            # lines in about 139.
            if kind == "imitation":
                outcome = _imitation(item)
                focal, role_model = outcome.focal_id, outcome.role_model_id
                if focal not in group_of:
                    raise ValueError(f"focal {focal!r} did not order in iteration {iteration}")
                if focal in imitation:
                    raise ValueError(f"second imitation line for focal {focal!r} in iteration {iteration}")
                if role_model == focal or role_model not in group_of:
                    raise ValueError(
                        f"role model {role_model!r} is not another agent that ordered in iteration {iteration}"
                    )
                imitation[focal] = outcome
            elif kind == "orders":
                if previous != "orders":  # the iteration's first line
                    punished = 0  # the group of the last punishment line
                    # Per group: GroupRound fields and its events; each agent's group.
                    groups: list[tuple[tuple, list[PunishmentEvent]]] = []
                    group_of: dict[str, int] = {}
                    imitation: dict[str, ImitationOutcome] = {}  # by focal agent
                group_id, location = _typed(item, "group", (str,)), _typed(item, "location", (str,))
                orders = {a: _member(_MEALS, MealChoice, c) for a, c in item["choices"].items()}
                bill_total, payoffs = _typed(item, "bill_total"), _numbers(item, "meal_payoffs")
                where = f"of group {group_id!r} in iteration {iteration}"
                if payoffs.keys() != orders.keys():
                    raise ValueError(f"meal_payoffs keys differ from the choices {where}")
                if list(payoffs) != list(orders):
                    raise ValueError(f"meal_payoffs keys are not in the seat order of the choices {where}")
                for agent_id in orders:
                    if agent_id in group_of:
                        raise ValueError(f"agent {agent_id!r} orders in two groups of iteration {iteration}")
                    group_of[agent_id] = len(groups)
                groups.append(((group_id, location, orders, bill_total, payoffs), []))
            elif kind == "punishment":
                event = PunishmentEvent(
                    iteration,
                    item["punisher"],
                    item["target"],
                    _member(_LEVELS, PunishmentLevel, item["level"]),
                    _typed(item, "cost_to_punisher"),
                    _typed(item, "cost_to_target"),
                )
                group = group_of.get(event.punisher_id)
                if group is None or group_of.get(event.target_id) != group:
                    raise ValueError(
                        f"punisher {event.punisher_id!r} and target {event.target_id!r} "
                        f"did not order in one group of iteration {iteration}"
                    )
                if group < punished:
                    raise ValueError(
                        f"punishment in group {groups[group][0][0]!r} after one in group "
                        f"{groups[punished][0][0]!r} of iteration {iteration}"
                    )
                punished = group
                groups[group][1].append(event)
            elif kind == "utilities":
                utilities = _numbers(item, "values")
                if utilities.keys() != group_of.keys():
                    raise ValueError(f"utilities keys differ from the orders of iteration {iteration}")
                if list(utilities) != list(group_of):
                    raise ValueError(f"utilities keys are not in the seat order of iteration {iteration}")
            else:
                counts = item["counts"]
                if list(counts) != _CENSUS_LABELS:
                    raise ValueError(f"census labels must be M, P, E, R1 in that order, not {list(counts)}")
                if len(imitation) != len(group_of):
                    missing = next(a for a in group_of if a not in imitation)
                    raise ValueError(f"no imitation line for agent {missing!r} in iteration {iteration}")
                census = _census(counts)
                if sum(census.values()) != population:
                    raise ValueError(
                        f"census counts total {sum(census.values())}, not the {population} agents "
                        f"of the header's initial census"
                    )
                records.append(
                    IterationRecord(
                        iteration,
                        tuple(
                            GroupRound(*fields, tuple(events), {a: utilities[a] for a in fields[2]})
                            for fields, events in groups
                        ),
                        tuple(imitation.values()),
                        census,
                    )
                )
            previous = kind

        if len(records) < iteration:
            raise ValueError(f"iteration {iteration} has no census line")
        executed = handle.iterations_executed
        if len(records) != executed:
            raise ValueError(f"iterations are not 1..iterations_executed ({executed} in the header)")
        loaded = LoadedRun(handle, initial_census, records)
        ended = RunStatus.CONVERGED if homogeneous(loaded.final_census) else RunStatus.COMPLETED
        if handle.status not in (RunStatus.ABORTED, ended):
            raise ValueError(f"status is {handle.status.value}, but the last census says {ended.value}")
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise EventLogError(path, number, _problem(exc)) from exc
    return loaded


def census_series(
    initial_census: dict[Strategy, int], records: Sequence[IterationRecord]
) -> list[dict[Strategy, float]]:
    """Population-share rows for iterations 0..T (row 0 is the initial census)."""
    rows = []
    for census in [initial_census] + [r.strategy_census for r in records]:
        total = sum(census.values())
        rows.append({s: census.get(s, 0) / total for s in STRATEGY_ORDER})
    return rows


def write_census_csv(series: Sequence[dict[Strategy, float]], path: str | Path) -> Path:
    """CSV columns: iteration, M, P, E, R1 as 6-decimal population fractions,
    one row per ``census_series`` row.

    Rows end in CRLF, as ``csv.writer`` ends them; no field needs quoting.
    """
    m, p, e, r1 = STRATEGY_ORDER
    lines = ["iteration," + ",".join(_CENSUS_LABELS) + "\r\n"]
    for iteration, row in enumerate(series):
        lines.append(f"{iteration},{row[m]:.6f},{row[p]:.6f},{row[e]:.6f},{row[r1]:.6f}\r\n")
    return write_text(path, "".join(lines))


# SVG geometry. The affine mapping from data to pixels is fixed and part of
# the output contract:
#   x(t) = PLOT_LEFT + t * (PLOT_RIGHT - PLOT_LEFT) / max(T, 1)
#   y(f) = PLOT_BOTTOM - f * (PLOT_BOTTOM - PLOT_TOP)
# where t is the iteration (0..T) and f the population share in [0, 1].
SVG_WIDTH = 640
SVG_HEIGHT = 400
PLOT_LEFT = 60.0
PLOT_RIGHT = 490.0
PLOT_TOP = 40.0
PLOT_BOTTOM = 350.0


def svg_x(iteration: int, max_iteration: int) -> float:
    return PLOT_LEFT + iteration * (PLOT_RIGHT - PLOT_LEFT) / max(max_iteration, 1)


def svg_y(fraction: float) -> float:
    return PLOT_BOTTOM - fraction * (PLOT_BOTTOM - PLOT_TOP)


# The chart's fixed parts, in the order they are drawn: the head up to the
# title's text, the gridlines with their y tick labels every 0.25, the axes,
# the axis labels, and each strategy's legend entry (after its polyline).
_SVG_HEAD = "\n".join([
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
    f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
    "<!-- strategy colours: "
    + ", ".join(f"{s.value}={STRATEGY_COLORS[s]}" for s in STRATEGY_ORDER)
    + " -->",
    "<!-- mapping: x(t) = "
    f"{PLOT_LEFT:g} + t * {(PLOT_RIGHT - PLOT_LEFT):g}/max(T,1); "
    f"y(f) = {PLOT_BOTTOM:g} - f * {(PLOT_BOTTOM - PLOT_TOP):g} -->",
    '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
    f'<text x="{SVG_WIDTH / 2:.2f}" y="24" text-anchor="middle" font-size="16" '
    'font-family="sans-serif">',
])
_SVG_GRID = "\n".join(
    f'<line x1="{PLOT_LEFT:.2f}" y1="{svg_y(f):.2f}" x2="{PLOT_RIGHT:.2f}" y2="{svg_y(f):.2f}" '
    'stroke="#dddddd" stroke-width="1"/>\n'
    f'<text x="{PLOT_LEFT - 8:.2f}" y="{svg_y(f) + 4:.2f}" text-anchor="end" font-size="11" '
    f'font-family="sans-serif">{f:.2f}</text>'
    for f in (0.0, 0.25, 0.5, 0.75, 1.0)
)
_SVG_AXES = (
    f'<line x1="{PLOT_LEFT:.2f}" y1="{PLOT_BOTTOM:.2f}" x2="{PLOT_RIGHT:.2f}" '
    f'y2="{PLOT_BOTTOM:.2f}" stroke="#000000" stroke-width="1.5"/>\n'
    f'<line x1="{PLOT_LEFT:.2f}" y1="{PLOT_TOP:.2f}" x2="{PLOT_LEFT:.2f}" '
    f'y2="{PLOT_BOTTOM:.2f}" stroke="#000000" stroke-width="1.5"/>'
)
_SVG_AXIS_LABELS = (
    f'<text x="{(PLOT_LEFT + PLOT_RIGHT) / 2:.2f}" y="{SVG_HEIGHT - 12}" '
    'text-anchor="middle" font-size="12" font-family="sans-serif">iteration</text>\n'
    f'<text x="16" y="{(PLOT_TOP + PLOT_BOTTOM) / 2:.2f}" text-anchor="middle" '
    'font-size="12" font-family="sans-serif" '
    f'transform="rotate(-90 16 {(PLOT_TOP + PLOT_BOTTOM) / 2:.2f})">population share</text>'
)
_LEGEND_X = PLOT_RIGHT + 24
_SVG_LEGEND = [
    f'<line x1="{_LEGEND_X:.2f}" y1="{ly:.2f}" x2="{_LEGEND_X + 22:.2f}" y2="{ly:.2f}" '
    f'stroke="{STRATEGY_COLORS[strategy]}" stroke-width="2"/>\n'
    f'<text x="{_LEGEND_X + 28:.2f}" y="{ly + 4:.2f}" text-anchor="start" font-size="12" '
    f'font-family="sans-serif">{strategy.value}</text>'
    for strategy, ly in ((s, PLOT_TOP + 16 + i * 22) for i, s in enumerate(STRATEGY_ORDER))
]


@functools.lru_cache(maxsize=32)
def _x_axis(max_iteration: int) -> tuple[str, tuple[str, ...]]:
    """For a chart of iterations 0..``max_iteration``: its x tick marks and
    labels (thinned if there are many), and each iteration's x text
    followed by the comma of its point."""
    xs = [f"{svg_x(t, max_iteration):.2f}" for t in range(max_iteration + 1)]
    tick_step = max(1, (max_iteration or 1) // 10)
    ticks = "\n".join(
        f'<line x1="{xs[t]}" y1="{PLOT_BOTTOM:.2f}" x2="{xs[t]}" '
        f'y2="{PLOT_BOTTOM + 5:.2f}" stroke="#000000" stroke-width="1"/>\n'
        f'<text x="{xs[t]}" y="{PLOT_BOTTOM + 18:.2f}" text-anchor="middle" font-size="11" '
        f'font-family="sans-serif">{t}</text>'
        for t in range(0, max_iteration + 1, tick_step)
    )
    return ticks, tuple(x + "," for x in xs)


def _y_text(fraction: float) -> str:
    return f"{svg_y(fraction):.2f}"


def render_trend_svg(series: Sequence[dict[Strategy, float]], title: str) -> str:
    """Strategy-share trend chart as a standalone, byte-deterministic SVG.

    One polyline per strategy in the fixed colour mapping, x axis in
    iterations, y axis population share in [0, 1].
    """
    if not series:
        raise EmptySeries("cannot render a trend for an empty census series")
    ticks, xs = _x_axis(len(series) - 1)
    ys = _Memo(_y_text)  # by share: a run's shares take few distinct values
    parts = [_SVG_HEAD + _escape(title) + "</text>", _SVG_GRID, _SVG_AXES, ticks, _SVG_AXIS_LABELS]
    for strategy, legend in zip(STRATEGY_ORDER, _SVG_LEGEND):
        points = " ".join(map(str.__add__, xs, [ys[row[strategy]] for row in series]))
        parts.append(
            f'<polyline fill="none" stroke="{STRATEGY_COLORS[strategy]}" stroke-width="2" '
            f'points="{points}"/>'
        )
        parts.append(legend)
    parts.append("</svg>\n")
    return "\n".join(parts)


def write_trend_svg(series: Sequence[dict[Strategy, float]], title: str, path: str | Path) -> Path:
    return write_text(path, render_trend_svg(series, title))


def convergence_stats(rows: Sequence[BatchRow]) -> dict:
    """Aggregate a replication batch: convergence rates and mean final shares.

    Counts are exact; shares are arithmetic means of final-census fractions
    over non-aborted runs.
    """
    if not rows:
        raise ValueError("need at least one run to aggregate")
    scored = [r for r in rows if r.handle.status is not RunStatus.ABORTED]
    runs = len(scored)
    per_strategy = {}
    for strategy in STRATEGY_ORDER:
        converged = sum(
            1
            for r in scored
            if r.final_census.get(strategy, 0) == sum(r.final_census.values())
        )
        shares = [
            r.final_census.get(strategy, 0) / sum(r.final_census.values()) for r in scored
        ]
        per_strategy[strategy.value] = {
            "converged_runs": converged,
            "converged_fraction": converged / runs if runs else 0.0,
            "mean_final_share": sum(shares) / runs if runs else 0.0,
        }
    converged_rows = [r for r in scored if r.convergence_iteration is not None]
    return {
        "runs": len(rows),
        "aborted_runs": len(rows) - runs,
        "converged_runs": len(converged_rows),
        "converged_fraction": len(converged_rows) / runs if runs else 0.0,
        "mean_convergence_iteration": (
            sum(r.convergence_iteration for r in converged_rows) / len(converged_rows)
            if converged_rows
            else None
        ),
        "per_strategy": per_strategy,
    }


def write_batch_summary_csv(rows: Sequence[BatchRow], path: str | Path) -> Path:
    """One CSV row per run, written in one call: rows end in CRLF and fields
    are quoted as ``csv.writer`` quotes them."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(
        ["seed", "run_id", "status", "iterations_executed", "convergence_iteration"]
        + [f"final_{s.value}" for s in STRATEGY_ORDER]
        + ["log_path"]
    )
    for row in rows:
        handle, total = row.handle, sum(row.final_census.values())
        writer.writerow(
            [handle.seed, handle.run_id, handle.status.value, handle.iterations_executed,
             "" if row.convergence_iteration is None else row.convergence_iteration]
            + [f"{row.final_census.get(s, 0) / total:.6f}" for s in STRATEGY_ORDER]
            + [row.log_path or ""]
        )
    return write_text(path, text.getvalue())


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
