"""The filter-table implementations answer every routing query alike.

A broker asks its subscription and advertisement tables who receives a
notification, whether a neighbour's forwarded filters already cover a
filter, and what a withdrawn filter was masking.  Under random
add/remove churn of stored and forwarded filters, the linear scans, the
indexed table and the indexed table over a sharded match index must
give the same answers to all of them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.broker import Subscribe, Unsubscribe
from repro.events.filter_table import IndexedFilterTable, LinearFilterTable
from repro.events.filters import Filter, eq, exists, gt, lt, ne, prefix
from repro.events.model import Notification, make_event

TYPES = ["presence", "weather", "gps"]
ROOMS = ["lab", "cafe", "atrium"]
SOURCES = [1, 2, 3, 4]
NEIGHBOURS = [1, 2, 3]

constraints = st.one_of(
    st.sampled_from(TYPES).map(lambda t: eq("type", t)),
    st.just(exists("type")),
    st.sampled_from(ROOMS).map(lambda r: eq("room", r)),
    st.sampled_from(ROOMS).map(lambda r: ne("room", r)),
    st.just(exists("room")),
    st.just(prefix("room", "c")),
    st.integers(0, 4).map(lambda v: gt("level", v)),
    st.integers(0, 4).map(lambda v: lt("level", v)),
    st.integers(0, 4).map(lambda v: eq("level", v)),
)
filters = st.lists(constraints, min_size=1, max_size=3, unique_by=lambda c: c.name).map(
    lambda cs: Filter(*cs)
)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(SOURCES), filters),
        st.tuples(st.just("remove"), st.sampled_from(SOURCES), filters),
        st.tuples(st.just("forward"), st.sampled_from(NEIGHBOURS), filters),
        st.tuples(st.just("drop"), st.sampled_from(NEIGHBOURS), filters),
        st.tuples(st.just("forget"), st.sampled_from(NEIGHBOURS), st.none()),
    ),
    max_size=40,
)
# Notifications with and without each attribute, including one with no
# ``type`` (the sharded index's absent-subject bucket).
NOTIFICATIONS = [
    make_event(t, room=r, level=level)
    for t in TYPES
    for r in ROOMS
    for level in (0, 2, 5)
] + [
    make_event("weather"),
    make_event("gps", level=3),
    Notification({"room": "lab", "level": 1}),
]


def tables():
    return [
        LinearFilterTable(Subscribe, Unsubscribe),
        IndexedFilterTable(Subscribe, Unsubscribe),
        IndexedFilterTable(Subscribe, Unsubscribe, shards=3),
    ]


def apply(table, op) -> None:
    kind, who, filter = op
    if kind == "add":
        if not table.has(who, filter):
            table.add(who, filter, ())
    elif kind == "remove":
        table.discard(who, filter)
    elif kind == "forward":
        if not table.is_forwarded(who, filter):
            table.add_forwarded(who, filter, ())
    elif kind == "drop":
        if table.is_forwarded(who, filter):
            table.drop_forwarded(who, filter)
    else:
        table.forget(who)


def answers(table, probes: list[Filter]) -> dict:
    return {
        "receivers": [table.receivers(n) for n in NOTIFICATIONS],
        "receivers_batch": table.receivers_batch(NOTIFICATIONS),
        "covers_any": [
            [table.covers_any(neighbour, f) for f in probes] for neighbour in NEIGHBOURS
        ],
        "covered_by": [set(table.covered_by(f)) for f in probes],
        "intersects": [
            [table.intersects(source, f) for f in probes] for source in SOURCES
        ],
        "covered_by_other": [
            [table.covered_by_other(source, f) for f in probes] for source in SOURCES
        ],
        "by_source": table.by_source,
        "forwarded": table.forwarded,
    }


@settings(max_examples=150, deadline=None)
@given(script=ops, probes=st.lists(filters, min_size=1, max_size=4))
def test_tables_agree_under_churn(script, probes):
    linear, indexed, sharded = tables()
    for step, op in enumerate(script):
        for table in (linear, indexed, sharded):
            apply(table, op)
        # Probe mid-script too: the indexed table builds its per-source
        # posets on first query and must keep them in step afterwards.
        if step % 5 == 0 or step == len(script) - 1:
            touched = [op[2]] if op[2] is not None else []
            expected = answers(linear, probes + touched)
            assert answers(indexed, probes + touched) == expected, op
            assert answers(sharded, probes + touched) == expected, op


def test_covered_by_lists_every_masked_entry():
    """The withdrawn filter's ``covered_by`` names each stored entry it
    covers, per source, and nothing it does not cover."""
    broad = Filter(exists("type"))
    narrow = Filter(eq("type", "weather"))
    other = Filter(eq("room", "lab"))
    for table in tables():
        table.add(1, narrow, ())
        table.add(2, narrow, ())
        table.add(2, other, ())
        table.add(3, broad, ())
        assert set(table.covered_by(broad)) == {(1, narrow), (2, narrow), (3, broad)}
        table.discard(1, narrow)
        assert set(table.covered_by(broad)) == {(2, narrow), (3, broad)}
