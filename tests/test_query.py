import pytest

from chronus.errors import ChronusError, DataFormatError
from chronus.query import (Answer, Conventions, MiniDb, execute, plan_query,
                           score_answer)
from chronus.template import Template, TemplateToken


def _t(*pairs):
    return Template(tokens=[TemplateToken(k, v) for k, v in pairs])


def _run(db, *pairs):
    return execute(plan_query(_t(*pairs), db), db)


# ---------------------------------------------------------------------------
# Database loading and validation

def test_bundled_db_contents(artifacts):
    db = artifacts.db
    assert len(db.tables["flight"]) == 10
    assert len(db.tables["fare"]) == 12
    assert db.resolve_city("BBOS") == "BBOS"
    assert db.resolve_city("BOSTON") == "BBOS"
    assert db.resolve_city("WASHINGTON") == "WWAS"
    with pytest.raises(ChronusError, match="^unknown city 'NARNIA'$"):
        db.resolve_city("NARNIA")


def test_db_rejects_dangling_fare(artifacts, tmp_path):
    bad = tmp_path / "db.txt"
    bad.write_text("chronus-db v1\n[table fare]\ng01\tf99\t100\tECONOMY\n")
    with pytest.raises(ChronusError):
        MiniDb.load(bad, artifacts.db.conventions)


def test_db_rejects_out_of_range_times(artifacts, tmp_path):
    bad = tmp_path / "db.txt"
    bad.write_text("chronus-db v1\n[table flight]\n"
                   "f01\tAA\t101\tBBOS\tDDFW\t1500\t720\tDC10\tNONE\n")
    with pytest.raises(ChronusError):
        MiniDb.load(bad, artifacts.db.conventions)


def test_db_requires_header(artifacts, tmp_path):
    bad = tmp_path / "db.txt"
    bad.write_text("[table flight]\n")
    with pytest.raises(ChronusError):
        MiniDb.load(bad, artifacts.db.conventions)


def test_conventions_load(artifacts):
    conv = artifacts.db.conventions
    assert conv.time_ranges["morning"] == (0, 720)
    assert conv.time_ranges["evening"] == (1080, 1440)
    assert conv.default_subject == "flight"
    assert conv.reject_threshold == 0.75


# ---------------------------------------------------------------------------
# Planning

def test_display_flight_plan(artifacts):
    plan = plan_query(_t(("question", "display"), ("subject", "flight"),
                         ("origin", "BBOS"), ("destin", "DDFW")), artifacts.db)
    assert not plan.join_fare
    assert ("from_city", "=", "BBOS") in plan.predicates
    assert ("to_city", "=", "DDFW") in plan.predicates
    assert not plan.existence and plan.aggregate is None


def test_missing_subject_defaults_to_flight(artifacts):
    plan = plan_query(_t(("origin", "BBOS")), artifacts.db)
    assert not plan.join_fare
    assert plan.projection == ("airline", "number", "from_city", "to_city",
                               "depart_min", "arrive_min")


def test_fare_subject_joins_fares(artifacts):
    plan = plan_query(_t(("subject", "fare"), ("origin", "MATL")), artifacts.db)
    assert plan.join_fare
    assert "one_way_cost" in plan.projection


def test_fare_class_under_a_flight_subject_projects_fares(artifacts):
    template = _t(("subject", "flight"), ("fare", "FIRST"), ("origin", "BBOS"))
    plan = plan_query(template, artifacts.db)
    assert plan.join_fare
    assert plan.projection == ("airline", "number", "fare_class",
                               "one_way_cost")
    assert execute(plan, artifacts.db).rows == [("AA", 101, "FIRST", 500),
                                                ("DL", 302, "FIRST", 420)]


def test_meal_subject_adds_predicate(artifacts):
    plan = plan_query(_t(("question", "yes-no"), ("subject", "breakfast")),
                      artifacts.db)
    assert plan.existence
    assert ("meal", "=", "BREAKFAST") in plan.predicates


def test_time_words_compile_to_intervals(artifacts):
    plan = plan_query(_t(("depart-time", "morning")), artifacts.db)
    assert ("depart_min", ">=", 0) in plan.predicates
    assert ("depart_min", "<", 720) in plan.predicates


def test_operator_aggregates_cost_when_fares_joined(artifacts):
    plan = plan_query(_t(("subject", "fare"), ("operator", "minimum")),
                      artifacts.db)
    assert plan.aggregate == ("minimum", "one_way_cost")


def test_operator_aggregates_departure_otherwise(artifacts):
    plan = plan_query(_t(("operator", "minimum")), artifacts.db)
    assert plan.aggregate == ("minimum", "depart_min")


def test_plan_errors_are_typed(artifacts):
    for pair, message in [
            (("subject", "party"), "no table rule for subject 'party'"),
            (("question", "why"), "no rule for question value 'why'"),
            (("operator", "median"), "no rule for operator value 'median'"),
            (("depart-time", "dusk"), "no time convention for 'dusk'"),
            (("origin", "NARNIA"), "unknown city 'NARNIA'"),
            (("frobnicate", "x"), "no compilation rule for keyword 'frobnicate'")]:
        with pytest.raises(ChronusError, match=f"^{message}$"):
            plan_query(_t(pair), artifacts.db)


def test_render_sql_is_debug_only(artifacts):
    plan = plan_query(_t(("subject", "fare"), ("origin", "BBOS"),
                         ("operator", "minimum")), artifacts.db)
    sql = plan.render_sql()
    assert sql.startswith("SELECT") and "WHERE" in sql and sql.endswith(";")
    assert "JOIN fare" in sql and "MIN(one_way_cost)" in sql


# ---------------------------------------------------------------------------
# Execution

def test_no_predicates_returns_all_flights_sorted(artifacts):
    answer = _run(artifacts.db, ("question", "display"))
    assert answer.kind == "rows" and len(answer.rows) == 10
    numbers = [row[1] for row in answer.rows]
    # primary-key order is deterministic
    assert numbers == [101, 102, 201, 202, 301, 302, 401, 402, 103, 203]


def test_restriction_filters_rows(artifacts):
    answer = _run(artifacts.db, ("origin", "BBOS"), ("destin", "DDFW"))
    assert answer.rows == [("AA", 101, "BBOS", "DDFW", 480, 720)]


def test_no_match_yields_empty_rows(artifacts):
    answer = _run(artifacts.db, ("origin", "OOAK"), ("destin", "BBOS"))
    assert answer.kind == "rows" and answer.rows == []


@pytest.mark.parametrize("line,message", [
    ("reject-threshold\thigh", "reject-threshold 'high' is not a number"),
    ("reject-threshold\t1.5", "reject-threshold 1.5 is not in [0.0, 1.0]"),
])
def test_conventions_reject_bad_threshold(tmp_path, line, message):
    path = tmp_path / "conventions.txt"
    path.write_text(f"[time]\nmorning\t0\t720\n[defaults]\n{line}\n")
    with pytest.raises(DataFormatError) as info:
        Conventions.load(path)
    assert str(info.value) == f"{path}:4: {message}"


@pytest.mark.parametrize("line,message", [
    ("morning\t0\tnoon", "time bound 'noon' is not a number"),
    ("morning\t0\t1500", "time bound 1500 is not in [0, 1440]"),
    ("morning\t720\t720", "time range morning is empty"),
])
def test_conventions_reject_bad_time_bound(tmp_path, line, message):
    path = tmp_path / "conventions.txt"
    path.write_text(f"# header\n[time]\n{line}\n")
    with pytest.raises(DataFormatError) as info:
        Conventions.load(path)
    assert str(info.value) == f"{path}:3: {message}"


def test_minimum_fare_query(artifacts):
    answer = _run(artifacts.db, ("subject", "fare"), ("origin", "BBOS"),
                  ("destin", "DDFW"), ("operator", "minimum"))
    assert answer.rows == [("AA", 101, "ECONOMY", 250)]


def test_aggregate_keeps_ties():
    conv = Conventions({})
    db = MiniDb({
        "flight": [
            {"flight_id": "f01", "airline": "AA", "number": 1,
             "from_city": "BBOS", "to_city": "DDFW", "depart_min": 480,
             "arrive_min": 700, "aircraft": "DC9", "meal": "NONE"},
            {"flight_id": "f02", "airline": "UA", "number": 2,
             "from_city": "BBOS", "to_city": "DDFW", "depart_min": 480,
             "arrive_min": 710, "aircraft": "DC9", "meal": "NONE"},
        ],
        "fare": [], "city": [], "airport": [],
    }, conv)
    answer = _run(db, ("operator", "minimum"))
    assert len(answer.rows) == 2


def test_existence_answers(artifacts):
    yes = _run(artifacts.db, ("question", "yes-no"), ("subject", "breakfast"),
               ("origin", "BBOS"))
    no = _run(artifacts.db, ("question", "yes-no"), ("subject", "breakfast"),
              ("origin", "OOAK"))
    assert yes.kind == "boolean" and yes.value is True
    assert no.kind == "boolean" and no.value is False
    assert yes.render_lines() == ["YES"] and no.render_lines() == ["NO"]


def test_execute_refuses_an_unknown_comparator(artifacts):
    # plan_query writes only =, >= and <; a hand-built plan may hold another
    plan = plan_query(_t(("origin", "BBOS")), artifacts.db)
    plan.predicates.append(("depart_min", "<=", 600))
    with pytest.raises(ChronusError, match="^unknown comparator '<='$"):
        execute(plan, artifacts.db)


def test_time_interval_execution(artifacts):
    answer = _run(artifacts.db, ("origin", "BBOS"), ("depart-time", "morning"))
    assert answer.rows == [("AA", 101, "BBOS", "DDFW", 480, 720)]


# ---------------------------------------------------------------------------
# Answers and scoring

def test_answer_kind_validation():
    with pytest.raises(ChronusError):
        Answer(kind="rows", value=3)
    with pytest.raises(ChronusError):
        Answer(kind="boolean", rows=[("x",)])
    with pytest.raises(ChronusError):
        Answer(kind="maybe")
    # no plan yields a number, so no answer or reference is one
    with pytest.raises(ChronusError, match="^unknown answer kind 'number'$"):
        Answer(kind="number", value="3")


def test_canonical_ignores_row_order_and_types():
    a = Answer(kind="rows", rows=[("AA", 101), ("UA", 202)])
    b = Answer(kind="rows", rows=[("UA", "202"), ("AA", "101")])
    assert a.canonical() == b.canonical()


def _rows(*rows):
    return Answer(kind="rows", rows=list(rows))


def test_score_answer_window():
    minimal = _rows(("AA", 101))
    maximal = _rows(("AA", 101), ("UA", 202))
    assert score_answer(_rows(("AA", 101)), minimal, maximal) == "correct"
    assert score_answer(_rows(("AA", 101), ("UA", 202)),
                        minimal, maximal) == "correct"
    assert score_answer(_rows(), minimal, maximal) == "incorrect"
    assert score_answer(_rows(("AA", 101), ("DL", 301)),
                        minimal, maximal) == "incorrect"


def test_score_answer_requires_matching_kind():
    boolean = Answer(kind="boolean", value=True)
    assert score_answer(boolean, _rows(), _rows()) == "incorrect"
    assert score_answer(boolean, Answer(kind="boolean", value=True),
                        Answer(kind="boolean", value=True)) == "correct"


def test_empty_reference_window_accepts_only_empty():
    assert score_answer(_rows(), _rows(), _rows()) == "correct"
    assert score_answer(_rows(("AA", 101)), _rows(), _rows()) == "incorrect"
