"""Durable run outputs: line-delimited event log, census CSV, trend SVG,
and batch convergence statistics.

Every writer is a deterministic function of the run content: no timestamps,
no environment-dependent formatting, so equal runs produce byte-identical
files. The event log is lossless: reloading reconstructs the run's
IterationRecords exactly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .config_io import config_to_dict
from .model import (
    GroupRound,
    ImitationOutcome,
    IterationRecord,
    MealChoice,
    PunishmentEvent,
    PunishmentLevel,
    Strategy,
    STRATEGY_ORDER,
)
from .runner import BatchRow, RunResult, RunStatus

SCHEMA_VERSION = 1

# Fixed strategy -> colour mapping, also documented in each SVG header so
# charts from different runs are comparable.
STRATEGY_COLORS: dict[Strategy, str] = {
    Strategy.MORALIST: "#1f77b4",
    Strategy.COOPERATOR_PUNISHER: "#2ca02c",
    Strategy.EASY_GOING_COOPERATOR: "#ff7f0e",
    Strategy.RELUCTANT_COOPERATOR: "#d62728",
}


class EmptySeries(ValueError):
    """A chart needs at least one census row."""


_CENSUS_LABELS = [s.value for s in STRATEGY_ORDER]

# One encoder for every line: ``json.dumps`` with these options builds a new
# encoder per call.
_encode = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode
_LEVEL_JSON = {level: _encode(level.value) for level in PunishmentLevel}


def _census_counts(census: dict[Strategy, int]) -> dict[str, int]:
    return {label: census.get(s, 0) for s, label in zip(STRATEGY_ORDER, _CENSUS_LABELS)}


def _scalar(value) -> str:
    """``value`` as the encoder writes it.

    ``json`` writes a finite float or a plain int as its ``repr`` and a bool
    as ``true`` or ``false``; NaN and infinities, and subclasses such as
    ``np.float64``, go to the encoder.
    """
    kind = type(value)
    if kind is float and math.isfinite(value) or kind is int:
        return repr(value)
    if kind is bool:
        return "true" if value else "false"
    return _encode(value)


class _Encoded(dict):
    """Each key's JSON text, encoded on first use."""

    def __missing__(self, key: str) -> str:
        text = self[key] = _encode(key)
        return text


def event_log_lines(result: RunResult) -> Iterable[str]:
    """Yield the event log line by line, in canonical order.

    Kinds: header, orders (one per group), punishment, utilities, imitation,
    census. Field order within each line is fixed; see the README for the
    field-by-field schema. Punishment and imitation lines, the most common,
    come from templates; each is the text ``json.dumps`` gives for its
    fields with the separators of the other lines.
    """
    yield _encode(
        {
            "kind": "header",
            "schema": SCHEMA_VERSION,
            "run_id": result.handle.run_id,
            "seed": result.handle.seed,
            "status": result.handle.status.value,
            "iterations_executed": result.handle.iterations_executed,
            "initial_census": _census_counts(result.initial_census),
            "config": config_to_dict(result.config),
        }
    )
    ids = _Encoded()
    for record in result.records:
        iteration = _scalar(record.iteration)
        for group in record.groups:
            yield _encode(
                {
                    "kind": "orders",
                    "iteration": record.iteration,
                    "group": group.group_id,
                    "location": group.location,
                    "choices": {a: c.value for a, c in group.orders.items()},
                    "bill_total": group.bill_total,
                    "meal_payoffs": group.meal_payoffs,
                }
            )
        for group in record.groups:
            for e in group.punishment_events:
                yield (
                    f'{{"kind":"punishment","iteration":{_scalar(e.iteration)},'
                    f'"punisher":{ids[e.punisher_id]},"target":{ids[e.target_id]},'
                    f'"level":{_LEVEL_JSON[e.level]},"cost_to_punisher":{_scalar(e.cost_to_punisher)},'
                    f'"cost_to_target":{_scalar(e.cost_to_target)}}}'
                )
        yield _encode(
            {
                "kind": "utilities",
                "iteration": record.iteration,
                "values": record.iteration_utilities,
            }
        )
        for o in record.imitation_outcomes:
            yield (
                f'{{"kind":"imitation","iteration":{iteration},'
                f'"focal":{ids[o.focal_id]},"role_model":{ids[o.role_model_id]},'
                f'"payoff_diff":{_scalar(o.payoff_diff)},"probability":{_scalar(o.probability)},'
                f'"uniform_draw":{_scalar(o.uniform_draw)},"adopted":{_scalar(o.adopted)}}}'
            )
        yield _encode(
            {
                "kind": "census",
                "iteration": record.iteration,
                "counts": _census_counts(record.strategy_census),
            }
        )


def write_event_log(result: RunResult, path: str | Path) -> Path:
    """Write the log in one call; a failed write removes the partial file."""
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8", newline="\n") as handle:
            handle.write("".join(f"{line}\n" for line in event_log_lines(result)))
    except OSError:
        path.unlink(missing_ok=True)
        raise
    return path


@dataclass
class LoadedRun:
    header: dict
    records: list[IterationRecord]

    @property
    def initial_census(self) -> dict[Strategy, int]:
        return {Strategy(k): v for k, v in self.header["initial_census"].items()}


class EventLogError(ValueError):
    """An event log that cannot be read back, with the file and line at fault."""

    def __init__(self, path: str | Path, line: int, problem: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"event log {path}, line {line}: {problem}")


def _problem(exc: Exception) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return f"not JSON ({exc.msg})"
    if isinstance(exc, KeyError):
        return f"missing key {exc.args[0]!r}"
    return str(exc) or type(exc).__name__


def _check_header(header: dict) -> None:
    if header["kind"] != "header":
        raise ValueError("expected the header line first")
    if header["schema"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported event log schema {header['schema']!r}")
    if "run_id" not in header:
        raise KeyError("run_id")
    _census(header["initial_census"])


def _census(counts: dict) -> dict[Strategy, int]:
    census = {Strategy(k): v for k, v in counts.items()}
    if not all(type(v) is int and v >= 0 for v in census.values()) or not sum(census.values()):
        raise ValueError(f"census counts must be non-negative integers, not all 0: {counts}")
    return census


_raw_decode = json.JSONDecoder().raw_decode


def _decode(line: str):
    """``json.loads(line)``, without its whitespace scan on a line that is
    one JSON value from first to last character."""
    try:
        item, end = _raw_decode(line)
        if end == len(line):
            return item
    except json.JSONDecodeError:
        pass
    return json.loads(line)


def _member(members: dict, enum: type, value):
    """``enum(value)``, through a value -> member dict."""
    try:
        return members[value]
    except (KeyError, TypeError):
        return enum(value)


_MEALS = {m.value: m for m in MealChoice}
_LEVELS = {level.value: level for level in PunishmentLevel}
# Line kinds in the order an iteration's lines must come.
_KINDS = ("orders", "punishment", "utilities", "imitation", "census")
_RANK = {kind: rank for rank, kind in enumerate(_KINDS)}


def load_event_log(path: str | Path) -> LoadedRun:
    """Rebuild IterationRecords from a log file, losslessly.

    Reads the lines once, in the canonical order that
    :func:`event_log_lines` writes: per iteration, the orders lines,
    the punishment lines in group order, one utilities line keyed in seat
    order, the imitation lines, then one census line labelled M, P, E, R1.
    Each punishment line goes to the group its punisher ordered in, and the
    utilities line is split by each group's orders. Raises
    :class:`EventLogError` for a log it cannot read back: an empty file, a
    line that is not UTF-8 JSON, a wrong header or schema, a missing key, a
    bad value (such as a census that is not counts of agents, or an
    iteration that is not an ``int``), an unknown kind, a line out of the
    canonical order, iterations that do not strictly ascend, an agent
    ordering in two groups of one iteration, a punisher and target who did
    not order in one group, a utilities line whose keys differ from the
    iteration's orders or their seat order, an iteration cut off before its
    census line, or iterations other than exactly 1 to the header's
    ``iterations_executed``. ``OSError`` still means the file could not be
    read at all.
    """
    data = Path(path).read_bytes()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise EventLogError(path, data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from exc
    if not lines:
        raise EventLogError(path, 1, "empty file, expected a header line")
    malformed = (KeyError, TypeError, AttributeError, ValueError)
    try:
        header = _decode(lines[0])
        _check_header(header)
    except malformed as exc:
        raise EventLogError(path, 1, _problem(exc)) from exc

    records: list[IterationRecord] = []
    current = None  # the iteration being read, until its census line
    closed = None  # the last iteration a census line closed
    for number, line in enumerate(lines[1:], start=2):
        try:
            item = _decode(line)
            kind = item["kind"]
            iteration = item["iteration"]
            rank = _RANK.get(kind) if type(kind) is str else None
            if rank is None:
                raise ValueError(f"unknown event kind {kind!r}")
            if type(iteration) is not int:
                raise ValueError(f"iteration must be an integer, not {iteration!r}")
            if current is None:
                if closed is not None and iteration <= closed:
                    raise ValueError(
                        f"{kind} line of iteration {iteration} after the census line of iteration {closed}"
                    )
                current = iteration
                reached = punished = 0  # rank of the last line, group of the last punishment
                # Per group: GroupRound fields and its events; each agent's group.
                groups: list[tuple[dict, list[PunishmentEvent]]] = []
                group_of: dict[str, int] = {}
                imitation: list[ImitationOutcome] = []
            elif iteration != current:
                raise ValueError(f"iteration {current} has no census line")
            if rank < reached:
                raise ValueError(f"{kind} after the {_KINDS[reached]} line of iteration {iteration}")
            if rank == reached == 2:
                raise ValueError(f"second utilities line of iteration {iteration}")
            if rank > 2 > reached:
                raise ValueError(f"{kind} before the utilities line of iteration {iteration}")
            reached = rank

            if kind == "orders":
                fields = {
                    "group_id": item["group"],
                    "location": item["location"],
                    "orders": {a: _member(_MEALS, MealChoice, c) for a, c in item["choices"].items()},
                    "bill_total": item["bill_total"],
                    "meal_payoffs": item["meal_payoffs"],
                }
                for agent_id in fields["orders"]:
                    if agent_id in group_of:
                        raise ValueError(f"agent {agent_id!r} orders in two groups of iteration {iteration}")
                    group_of[agent_id] = len(groups)
                groups.append((fields, []))
            elif kind == "punishment":
                event = PunishmentEvent(
                    iteration=iteration,
                    punisher_id=item["punisher"],
                    target_id=item["target"],
                    level=_member(_LEVELS, PunishmentLevel, item["level"]),
                    cost_to_punisher=item["cost_to_punisher"],
                    cost_to_target=item["cost_to_target"],
                )
                group = group_of.get(event.punisher_id)
                if group is None or group_of.get(event.target_id) != group:
                    raise ValueError(
                        f"punisher {event.punisher_id!r} and target {event.target_id!r} "
                        f"did not order in one group of iteration {iteration}"
                    )
                if group < punished:
                    raise ValueError(
                        f"punishment in group {groups[group][0]['group_id']!r} after one in group "
                        f"{groups[punished][0]['group_id']!r} of iteration {iteration}"
                    )
                punished = group
                groups[group][1].append(event)
            elif kind == "utilities":
                utilities = item["values"]
                if utilities.keys() != group_of.keys():
                    raise ValueError(f"utilities keys differ from the orders of iteration {iteration}")
                if list(utilities) != list(group_of):
                    raise ValueError(f"utilities keys are not in the seat order of iteration {iteration}")
            elif kind == "imitation":
                imitation.append(
                    ImitationOutcome(
                        focal_id=item["focal"],
                        role_model_id=item["role_model"],
                        payoff_diff=item["payoff_diff"],
                        probability=item["probability"],
                        uniform_draw=item["uniform_draw"],
                        adopted=item["adopted"],
                    )
                )
            else:
                counts = item["counts"]
                if list(counts) != _CENSUS_LABELS:
                    raise ValueError(f"census labels must be M, P, E, R1 in that order, not {list(counts)}")
                records.append(
                    IterationRecord(
                        iteration=current,
                        groups=tuple(
                            GroupRound(
                                **fields,
                                punishment_events=tuple(events),
                                iteration_utilities={a: utilities[a] for a in fields["orders"]},
                            )
                            for fields, events in groups
                        ),
                        imitation_outcomes=tuple(imitation),
                        strategy_census=_census(counts),
                    )
                )
                closed, current = current, None
        except malformed as exc:
            raise EventLogError(path, number, _problem(exc)) from exc
    if current is not None:
        raise EventLogError(path, len(lines), f"iteration {current} has no census line")
    executed = header.get("iterations_executed")
    if type(executed) is not int or [r.iteration for r in records] != list(range(1, executed + 1)):
        raise EventLogError(
            path, len(lines), f"iterations are not 1..iterations_executed ({executed!r} in the header)"
        )
    return LoadedRun(header=header, records=records)


def census_series(
    initial_census: dict[Strategy, int], records: Sequence[IterationRecord]
) -> list[dict[Strategy, float]]:
    """Population-share rows for iterations 0..T (row 0 is the initial census)."""
    rows = []
    for census in [initial_census] + [r.strategy_census for r in records]:
        total = sum(census.values())
        rows.append({s: census.get(s, 0) / total for s in STRATEGY_ORDER})
    return rows


def write_census_csv(
    initial_census: dict[Strategy, int],
    records: Sequence[IterationRecord],
    path: str | Path,
) -> Path:
    """CSV columns: iteration, M, P, E, R1 as 6-decimal population fractions."""
    path = Path(path)
    rows = census_series(initial_census, records)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration"] + [s.value for s in STRATEGY_ORDER])
        for iteration, row in enumerate(rows):
            writer.writerow([iteration] + [f"{row[s]:.6f}" for s in STRATEGY_ORDER])
    return path


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


def render_trend_svg(series: Sequence[dict[Strategy, float]], title: str) -> str:
    """Strategy-share trend chart as a standalone, byte-deterministic SVG.

    One polyline per strategy in the fixed colour mapping, x axis in
    iterations, y axis population share in [0, 1].
    """
    if not series:
        raise EmptySeries("cannot render a trend for an empty census series")
    max_iteration = len(series) - 1
    parts = [
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
        f'font-family="sans-serif">{_escape(title)}</text>',
    ]

    # Horizontal gridlines and y tick labels every 0.25.
    for quarter in range(5):
        fraction = quarter / 4
        y = svg_y(fraction)
        parts.append(
            f'<line x1="{PLOT_LEFT:.2f}" y1="{y:.2f}" x2="{PLOT_RIGHT:.2f}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{PLOT_LEFT - 8:.2f}" y="{y + 4:.2f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{fraction:.2f}</text>'
        )

    # Axes.
    parts.append(
        f'<line x1="{PLOT_LEFT:.2f}" y1="{PLOT_BOTTOM:.2f}" x2="{PLOT_RIGHT:.2f}" '
        f'y2="{PLOT_BOTTOM:.2f}" stroke="#000000" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{PLOT_LEFT:.2f}" y1="{PLOT_TOP:.2f}" x2="{PLOT_LEFT:.2f}" '
        f'y2="{PLOT_BOTTOM:.2f}" stroke="#000000" stroke-width="1.5"/>'
    )

    # X ticks at each iteration (thinned if there are many).
    tick_step = max(1, (max_iteration or 1) // 10)
    for t in range(0, max_iteration + 1, tick_step):
        x = svg_x(t, max_iteration)
        parts.append(
            f'<line x1="{x:.2f}" y1="{PLOT_BOTTOM:.2f}" x2="{x:.2f}" '
            f'y2="{PLOT_BOTTOM + 5:.2f}" stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{PLOT_BOTTOM + 18:.2f}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{t}</text>'
        )
    parts.append(
        f'<text x="{(PLOT_LEFT + PLOT_RIGHT) / 2:.2f}" y="{SVG_HEIGHT - 12}" '
        'text-anchor="middle" font-size="12" font-family="sans-serif">iteration</text>'
    )
    parts.append(
        f'<text x="16" y="{(PLOT_TOP + PLOT_BOTTOM) / 2:.2f}" text-anchor="middle" '
        'font-size="12" font-family="sans-serif" '
        f'transform="rotate(-90 16 {(PLOT_TOP + PLOT_BOTTOM) / 2:.2f})">population share</text>'
    )

    # One polyline per strategy plus its legend entry.
    legend_x = PLOT_RIGHT + 24
    for index, strategy in enumerate(STRATEGY_ORDER):
        color = STRATEGY_COLORS[strategy]
        points = " ".join(
            f"{svg_x(t, max_iteration):.2f},{svg_y(row[strategy]):.2f}"
            for t, row in enumerate(series)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )
        ly = PLOT_TOP + 16 + index * 22
        parts.append(
            f'<line x1="{legend_x:.2f}" y1="{ly:.2f}" x2="{legend_x + 22:.2f}" y2="{ly:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 28:.2f}" y="{ly + 4:.2f}" text-anchor="start" font-size="12" '
            f'font-family="sans-serif">{strategy.value}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_trend_svg(
    initial_census: dict[Strategy, int],
    records: Sequence[IterationRecord],
    title: str,
    path: str | Path,
) -> Path:
    path = Path(path)
    path.write_text(render_trend_svg(census_series(initial_census, records), title), encoding="utf-8")
    return path


def convergence_stats(rows: Sequence[BatchRow]) -> dict:
    """Aggregate a replication batch: convergence rates and mean final shares.

    Counts are exact; shares are arithmetic means of final-census fractions
    over non-aborted runs.
    """
    if not rows:
        raise ValueError("need at least one run to aggregate")
    scored = [r for r in rows if r.status is not RunStatus.ABORTED]
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
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["seed", "run_id", "status", "iterations_executed", "convergence_iteration"]
            + [f"final_{s.value}" for s in STRATEGY_ORDER]
            + ["log_path"]
        )
        for row in rows:
            total = sum(row.final_census.values())
            writer.writerow(
                [
                    row.seed,
                    row.run_id,
                    row.status.value,
                    row.iterations_executed,
                    row.convergence_iteration if row.convergence_iteration is not None else "",
                ]
                + [f"{row.final_census.get(s, 0) / total:.6f}" for s in STRATEGY_ORDER]
                + [row.log_path or ""]
            )
    return path


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
