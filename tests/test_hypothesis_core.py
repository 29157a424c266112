"""Property-based tests on core data structures and invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deps.events import ANY, EventDescriptor
from repro.deps.graph import DependencyGraph
from repro.groovy import parse
from repro.groovy.lexer import tokenize
from repro.model.state import ModelState

_IDENT = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
_VALUE = st.one_of(st.integers(-1000, 1000), _IDENT, st.booleans(),
                   st.none())


# ---------------------------------------------------------------------------
# ModelState
# ---------------------------------------------------------------------------


_WRITES = st.lists(st.tuples(_IDENT, _IDENT, _VALUE), max_size=20)


class TestModelStateProperties:
    @given(_WRITES)
    def test_copy_preserves_key(self, writes):
        state = ModelState()
        for device, attribute, value in writes:
            state.set_attribute(device, attribute, value)
        assert state.copy().canonical_key() == state.canonical_key()

    @given(_WRITES)
    def test_copy_isolation(self, writes):
        state = ModelState()
        for device, attribute, value in writes:
            state.set_attribute(device, attribute, value)
        key_before = state.canonical_key()
        clone = state.copy()
        clone.set_attribute("zzz_new", "switch", "on")
        clone.mode = "Vacation"
        clone.set_app_state("ZApp", {"x": 1})
        assert state.canonical_key() == key_before

    @given(_WRITES, _WRITES)
    def test_key_equality_iff_same_writes(self, writes_a, writes_b):
        def final(writes):
            state, content = ModelState(), {}
            for device, attribute, value in writes:
                state.set_attribute(device, attribute, value)
                content.setdefault(device, {})[attribute] = value
            for device, attrs in content.items():
                for attribute, value in attrs.items():
                    assert state.attribute(device, attribute) == value
            return state, content

        (a, content_a), (b, content_b) = final(writes_a), final(writes_b)
        same_content = content_a == content_b
        assert (a.canonical_key() == b.canonical_key()) == same_content

    @given(st.lists(st.tuples(_IDENT, _VALUE), max_size=12))
    def test_history_never_exceeds_limit(self, events):
        state = ModelState()
        for attribute, value in events:
            state.record_event("dev", attribute, value)
        assert len(state.device_history("dev")) <= ModelState.HISTORY_LIMIT


# ---------------------------------------------------------------------------
# event descriptors
# ---------------------------------------------------------------------------


_ATTR = st.sampled_from(["switch", "lock", "motion", "contact"])
_VAL = st.sampled_from([ANY, "on", "off", "locked", "unlocked", "active"])
_DESCRIPTORS = st.builds(EventDescriptor, _ATTR, _VAL)


class TestEventDescriptorProperties:
    @given(_DESCRIPTORS, _DESCRIPTORS)
    def test_overlap_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(_DESCRIPTORS, _DESCRIPTORS)
    def test_conflict_symmetric(self, a, b):
        assert a.conflicts(b) == b.conflicts(a)

    @given(_DESCRIPTORS)
    def test_self_overlap(self, d):
        assert d.overlaps(d)

    @given(_DESCRIPTORS)
    def test_no_self_conflict(self, d):
        assert not d.conflicts(d)

    @given(_DESCRIPTORS, _DESCRIPTORS)
    def test_conflict_implies_same_attribute(self, a, b):
        if a.conflicts(b):
            assert a.attribute == b.attribute


# ---------------------------------------------------------------------------
# dependency graph / related sets
# ---------------------------------------------------------------------------


_EDGE_LISTS = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12)


def _graph_from_edges(edges, vertex_count=6):
    attrs = ["a%d" % i for i in range(vertex_count)]
    graph = DependencyGraph()
    inputs = {v: [EventDescriptor("in%d" % v, ANY)]
              for v in range(vertex_count)}
    outputs = {v: [] for v in range(vertex_count)}
    for u, v in edges:
        outputs[u].append(EventDescriptor("in%d" % v, ANY))
    for v in range(vertex_count):
        graph.add_vertex([("App%d" % v, "h")], inputs[v], outputs[v])
    return graph.build_edges()


class TestGraphProperties:
    @given(_EDGE_LISTS)
    def test_merged_graph_is_acyclic(self, edges):
        merged = _graph_from_edges(edges).merge_sccs()
        # Kahn's algorithm must consume every vertex
        indegree = {v.id: len(merged.parents[v.id]) for v in merged.vertices}
        queue = [vid for vid, deg in indegree.items() if deg == 0]
        seen = 0
        while queue:
            current = queue.pop()
            seen += 1
            for child in merged.children[current]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    queue.append(child)
        assert seen == len(merged.vertices)

    @given(_EDGE_LISTS)
    def test_merge_preserves_handlers(self, edges):
        graph = _graph_from_edges(edges)
        merged = graph.merge_sccs()
        original = {m for v in graph.vertices for m in v.members}
        preserved = {m for v in merged.vertices for m in v.members}
        assert original == preserved

    @given(_EDGE_LISTS)
    def test_related_sets_subset_free(self, edges):
        from repro.deps.related import compute_related_sets

        graph = _graph_from_edges(edges)
        _merged, sets = compute_related_sets(graph)
        for a in sets:
            for b in sets:
                if a is not b:
                    assert not a < b

    @given(_EDGE_LISTS)
    def test_every_leaf_covered_by_some_set(self, edges):
        from repro.deps.related import compute_related_sets

        graph = _graph_from_edges(edges)
        merged, sets = compute_related_sets(graph)
        for leaf in merged.leaves():
            assert any(leaf.id in s for s in sets)


# ---------------------------------------------------------------------------
# lexer / parser robustness
# ---------------------------------------------------------------------------


from repro.groovy.lexer import KEYWORDS

_SAFE_IDENT = _IDENT.filter(lambda name: name not in KEYWORDS)


class TestFrontendRobustness:
    @given(_SAFE_IDENT, st.integers(0, 10 ** 6))
    def test_assignment_roundtrip(self, name, number):
        program = parse("%s = %d" % (name, number))
        stmt = program.statements[0]
        assert stmt.target.id == name
        assert stmt.value.value == number

    @given(st.lists(st.integers(0, 100), max_size=6))
    def test_list_literal_roundtrip(self, items):
        source = "x = %s" % items
        stmt = parse(source).statements[0]
        assert [i.value for i in stmt.value.items] == items

    @given(st.text(alphabet=string.ascii_letters + " _0-9", max_size=20))
    def test_single_quoted_string_roundtrip(self, text):
        token = tokenize("'%s'" % text)[0]
        assert token.value == text

    @given(st.integers(0, 2 ** 31))
    def test_numbers_lex_exactly(self, number):
        token = tokenize(str(number))[0]
        assert token.value == number
