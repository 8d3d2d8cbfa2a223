"""In-memory relational mini-database, query planning and answer scoring.

Templates compile to an internal QueryPlan (never SQL text); a debug
rendering of an SQL-like statement is available for inspection only.
Time words (morning, late-evening, ...) are resolved through an explicit
convention table so answer correctness never hinges on an implicit
definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .errors import ChronusError, DataFormatError
from .template import Template
from .textfile import number, read_lines, records, section_name

SCHEMAS = {
    "flight": ("flight_id", "airline", "number", "from_city", "to_city",
               "depart_min", "arrive_min", "aircraft", "meal"),
    "fare": ("fare_id", "flight_id", "one_way_cost", "fare_class"),
    "city": ("city_code", "city_name"),
    "airport": ("airport_code", "city_code"),
}
INT_COLUMNS = {"number", "depart_min", "arrive_min", "one_way_cost"}
PRIMARY_KEYS = {"flight": "flight_id", "fare": "fare_id",
                "city": "city_code", "airport": "airport_code"}


_DEFAULTS = {"subject": "default_subject",   # [defaults] key -> argument
             "reject-threshold": "reject_threshold"}


class Conventions:
    """Explicit data conventions: time-word intervals and defaults."""

    def __init__(self, time_ranges, default_subject="flight",
                 reject_threshold=0.75):
        self.time_ranges = dict(time_ranges)
        self.default_subject = default_subject
        self.reject_threshold = reject_threshold

    @classmethod
    def load(cls, path):
        time_ranges, defaults = {}, {}   # unset defaults: the constructor's
        for ln, section, line in records(read_lines(path), path):
            if line is None:
                continue
            parts = line.split("\t")
            if section == "time" and len(parts) == 3:
                if parts[0] in time_ranges:
                    raise DataFormatError(
                        f"repeated time word {parts[0]!r}", path, ln)
                lo = number(int, parts[1], "time bound", path, ln, 0, 1440)
                hi = number(int, parts[2], "time bound", path, ln, 0, 1440)
                if lo >= hi:
                    raise DataFormatError(
                        f"time range {parts[0]} is empty", path, ln)
                time_ranges[parts[0]] = (lo, hi)
            elif section == "defaults" and len(parts) == 2:
                key, value = parts
                if key not in _DEFAULTS:
                    raise DataFormatError(f"unknown default {key!r}",
                                          path, ln)
                if _DEFAULTS[key] in defaults:
                    raise DataFormatError(f"repeated default {key!r}",
                                          path, ln)
                if key == "subject" and value not in _SUBJECTS:
                    raise DataFormatError(
                        f"no table rule for subject {value!r}", path, ln)
                if key == "reject-threshold":
                    value = number(float, value, key, path, ln, 0.0, 1.0)
                defaults[_DEFAULTS[key]] = value
            else:
                raise DataFormatError("bad conventions line", path, ln)
        return cls(time_ranges, **defaults)


class MiniDb:
    """Typed in-memory tables.  ``load`` checks them: each row as it reads
    it, and the references between rows once the file is read.  The two
    row lists a query starts from are built here, once: ``flights``,
    sorted by flight id, and ``fare_flights``, each fare joined with its
    flight, sorted by (flight id, fare id)."""

    def __init__(self, tables, conventions: Conventions):
        self.tables = tables
        self.conventions = conventions
        flights = tables.get("flight", [])
        self.flights = sorted(flights, key=itemgetter("flight_id"))
        by_id = {f["flight_id"]: f for f in flights}   # ids are unique
        self.fare_flights = sorted(
            [by_id[fare["flight_id"]] | fare for fare in tables.get("fare", [])
             if fare["flight_id"] in by_id],
            key=itemgetter("flight_id", "fare_id"))
        self._city_by_name = {r["city_name"]: r["city_code"]
                              for r in tables.get("city", [])}
        self._city_codes = {r["city_code"] for r in tables.get("city", [])}

    def resolve_city(self, value: str) -> str:
        """City code from a code or a (grammar-normalized) city name."""
        if value in self._city_codes:
            return value
        if value in self._city_by_name:
            return self._city_by_name[value]
        raise ChronusError(f"unknown city {value!r}")

    @classmethod
    def load(cls, path, conventions: Conventions):
        tables = {name: [] for name in SCHEMAS}
        keys = {name: {} for name in SCHEMAS}   # per table: key -> its line
        table = None
        for ln, section, line in records(read_lines(path), path,
                                         "chronus-db v1"):
            if line is None:
                table = section_name(section, "table", path, ln)
                if table not in SCHEMAS:
                    raise DataFormatError(f"unknown table {table!r}", path, ln)
                continue
            if table is None:
                raise DataFormatError("row before any [table] header", path, ln)
            schema = SCHEMAS[table]
            parts = line.split("\t")
            if len(parts) != len(schema):
                raise DataFormatError(
                    f"expected {len(schema)} columns in {table}", path, ln)
            row = {col: number(int, cell, f"{table}.{col}", path, ln)
                   if col in INT_COLUMNS else cell
                   for col, cell in zip(schema, parts)}
            key = PRIMARY_KEYS[table]
            if row[key] in keys[table]:
                raise DataFormatError(
                    f"table {table} repeats {key} {row[key]!r}", path, ln)
            keys[table][row[key]] = ln
            if table == "flight":
                for col in ("depart_min", "arrive_min"):
                    if not 0 <= row[col] < 1440:
                        raise DataFormatError(
                            f"flight {row[key]}: {col} out of [0,1440)",
                            path, ln)
            tables[table].append(row)
        # a fare's flight and an airport's city may come later in the file
        for name, ref, target in (("fare", "flight_id", "flight"),
                                  ("airport", "city_code", "city")):
            key = PRIMARY_KEYS[name]
            for row in tables[name]:
                if row[ref] not in keys[target]:
                    raise DataFormatError(
                        f"{name} {row[key]} references unknown {target}",
                        path, keys[name][row[key]])
        return cls(tables, conventions)


@dataclass
class QueryPlan:
    join_fare: bool = False
    predicates: list = field(default_factory=list)  # (column, op, value)
    projection: tuple = ()
    aggregate: tuple | None = None                  # ("minimum"|"maximum", column)
    existence: bool = False

    def render_sql(self) -> str:
        """Debug-only SQL-like rendering; never executed anywhere."""
        cols = "COUNT(*)" if self.existence else ", ".join(self.projection)
        frm = "flight JOIN fare ON fare.flight_id = flight.flight_id" \
            if self.join_fare else "flight"
        where = " AND ".join(f"{c} {op} {v!r}" for c, op, v in self.predicates)
        sql = f"SELECT {cols} FROM {frm}"
        if where:
            sql += f" WHERE {where}"
        if self.aggregate:
            op = "MIN" if self.aggregate[0] == "minimum" else "MAX"
            sql += f" HAVING {self.aggregate[1]} = {op}({self.aggregate[1]})"
        return sql + ";"


@dataclass
class Answer:
    """An answer or a reference: ``rows``, or a yes-no question's boolean."""

    kind: str                 # "rows" | "boolean"
    rows: list = field(default_factory=list)
    value: object = None      # payload for boolean answers

    def __post_init__(self):
        if self.kind == "rows":
            if self.value is not None:
                raise ChronusError("rows answer must not carry a scalar")
        elif self.kind == "boolean":
            if self.rows:
                raise ChronusError("boolean answer must not carry rows")
        else:
            raise ChronusError(f"unknown answer kind {self.kind!r}")

    def canonical(self):
        """Set form used for min/max reference scoring."""
        if self.kind == "rows":
            return frozenset(tuple(sorted(str(v) for v in row))
                             for row in self.rows)
        return frozenset({str(self.value)})

    def render_lines(self):
        if self.kind == "rows":
            return ["\t".join(str(v) for v in row) for row in self.rows]
        return ["YES" if self.value else "NO"]


_PROJECTIONS = {
    "flight": ("airline", "number", "from_city", "to_city",
               "depart_min", "arrive_min"),
    "fare": ("airline", "number", "fare_class", "one_way_cost"),
    "meal": ("airline", "number", "meal"),
    "aircraft": ("airline", "number", "aircraft"),
}

# subject value -> (needs fare join, extra predicates, projection key)
_SUBJECTS = {
    "flight": (False, (), "flight"),
    "fare": (True, (), "fare"),
    "meal": (False, (), "meal"),
    "aircraft": (False, (), "aircraft"),
    "breakfast": (False, (("meal", "=", "BREAKFAST"),), "flight"),
    "lunch": (False, (("meal", "=", "LUNCH"),), "flight"),
    "dinner": (False, (("meal", "=", "DINNER"),), "flight"),
}


# keyword -> the column its value must equal; a city is resolved to its
# code first, and a fare class needs the fare join
_EQUALS = {"origin": "from_city", "destin": "to_city", "airline": "airline",
           "aircraft": "aircraft", "meal": "meal", "fare": "fare_class"}


def plan_query(template: Template, db: MiniDb) -> QueryPlan:
    """Compile an accepted template into a deterministic query plan."""
    subject_token = template.get("subject")
    subject = subject_token.value if subject_token else db.conventions.default_subject
    if subject not in _SUBJECTS:
        raise ChronusError(f"no table rule for subject {subject!r}")
    join_fare, extra_preds, proj_key = _SUBJECTS[subject]

    plan = QueryPlan(join_fare=join_fare, projection=_PROJECTIONS[proj_key])
    plan.predicates.extend(extra_preds)
    operator = None

    for token in template.tokens:
        kw, value = token.keyword, token.value
        if kw == "subject":
            continue
        if kw == "question":
            if value == "yes-no":
                plan.existence = True
            elif value != "display":
                raise ChronusError(f"no rule for question value {value!r}")
        elif kw in _EQUALS:
            if kw in ("origin", "destin"):
                value = db.resolve_city(value)
            elif kw == "fare":
                plan.join_fare = True
            plan.predicates.append((_EQUALS[kw], "=", value))
        elif kw == "depart-time":
            if value not in db.conventions.time_ranges:
                raise ChronusError(f"no time convention for {value!r}")
            lo, hi = db.conventions.time_ranges[value]
            plan.predicates.append(("depart_min", ">=", lo))
            plan.predicates.append(("depart_min", "<", hi))
        elif kw == "operator":
            if value not in ("minimum", "maximum"):
                raise ChronusError(f"no rule for operator value {value!r}")
            operator = value
        else:
            raise ChronusError(f"no compilation rule for keyword {kw!r}")

    if operator is not None:
        column = "one_way_cost" if plan.join_fare else "depart_min"
        plan.aggregate = (operator, column)
    if plan.join_fare and proj_key == "flight":
        plan.projection = _PROJECTIONS["fare"]
    return plan


def execute(plan: QueryPlan, db: MiniDb) -> Answer:
    """Deterministic evaluation; rows sorted by primary key, ties kept."""
    rows = db.fare_flights if plan.join_fare else db.flights
    for column, op, value in plan.predicates:
        if op == "=":
            rows = [r for r in rows if r[column] == value]
        elif op == ">=":
            rows = [r for r in rows if r[column] >= value]
        elif op == "<":
            rows = [r for r in rows if r[column] < value]
        else:
            raise ChronusError(f"unknown comparator {op!r}")

    if plan.existence:
        return Answer(kind="boolean", value=bool(rows))
    if plan.aggregate is not None:
        op, column = plan.aggregate
        if rows:
            extremum = (min if op == "minimum" else max)(r[column] for r in rows)
            rows = [r for r in rows if r[column] == extremum]
    projected = [tuple(r[c] for c in plan.projection) for r in rows]
    return Answer(kind="rows", rows=projected)


def score_answer(answer: Answer, minimal: Answer, maximal: Answer) -> str:
    """'correct' iff minimal <= answer <= maximal under set semantics."""
    if not (answer.kind == minimal.kind == maximal.kind):
        return "incorrect"
    got = answer.canonical()
    lo = minimal.canonical()
    hi = maximal.canonical()
    return "correct" if lo <= got <= hi else "incorrect"
