from operator import itemgetter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import reference_render
from sleepcolor.errors import ProgramError, RunIncomplete
from sleepcolor.graph import build_graph
from sleepcolor.simcore import Action, Trace, run_simulation


class Scripted:
    """Runs a fixed per-node script: list of Action-producing callables."""

    def __init__(self, scripts):
        self.scripts = scripts

    def initial_state(self, ctx):
        return {"step": 0, "seen": [], "rounds": []}

    def on_round(self, ctx, inbox):
        st = ctx.state
        st["seen"].extend(inbox)
        st["rounds"].append(ctx.round)
        script = self.scripts[ctx.node_id]
        act = script[min(st["step"], len(script) - 1)]
        st["step"] += 1
        return act(ctx) if callable(act) else act


def test_single_node_immediate_terminate():
    g = build_graph([], [0])
    res = run_simulation(
        g, Scripted({0: [Action(terminate=True, output="done")]}),
        inputs=None, seed=1, round_cap=10,
    )
    assert res.outputs[0] == "done"
    assert res.awake_rounds[0] == 1
    assert res.termination_round[0] == 1
    assert res.termination_round == {0: 1} and res.rounds_executed == 1


def test_sleep_semantics_exact_rounds():
    # sleep(3) at round 2 -> absent rounds 3,4,5, awake again at round 6
    g = build_graph([], [0])
    script = [Action(), Action(sleep_rounds=3), Action(terminate=True)]
    trace = Trace()
    res = run_simulation(g, Scripted({0: script}), None, seed=1, round_cap=20, trace=trace)
    call_rounds = [rnd for rnd, v, act in trace.node_events if v == 0]
    assert call_rounds == [1, 2, 6]
    assert res.awake_rounds[0] == 3
    assert res.termination_round[0] == 6


def test_messages_to_sleeping_node_are_lost():
    # node 1 pings node 0 every round with the round number; node 0 sleeps
    # rounds 2..4 (sleep(3) at round 1) and terminates at round 6
    g = build_graph([(0, 1)], [0, 1])

    def ping(ctx):
        return Action(sends={0: ("ping", ctx.round)})

    scripts = {
        0: [Action(sleep_rounds=3), Action(), Action(terminate=True)],
        1: [ping] * 7 + [Action(terminate=True)],
    }
    prog = Scripted(scripts)
    res = run_simulation(g, prog, None, seed=1, round_cap=30)
    # node 0 was awake in rounds 1, 5, 6; messages sent in rounds 2,3,4
    # were lost; round-6 send happened in node 0's terminating round and
    # was delivered but never consumed (that is fine, it is unobservable)
    assert res.termination_round == {0: 6, 1: 8}


def test_sleeping_receiver_inbox_content():
    g = build_graph([(0, 1)], [0, 1])
    seen = {}

    class Recorder:
        def initial_state(self, ctx):
            return []

        def on_round(self, ctx, inbox):
            if ctx.node_id == 1:
                return Action(sends={0: ctx.round}) if ctx.round < 9 else Action(terminate=True)
            ctx.state.extend(inbox)
            seen[0] = list(ctx.state)
            if ctx.round == 1:
                return Action(sleep_rounds=3)      # sleeps rounds 2..4
            if ctx.round >= 7:
                return Action(terminate=True)
            return Action()

    run_simulation(g, Recorder(), None, seed=1, round_cap=30)
    # awake rounds of node 0: 1, 5, 6, 7; receives the messages of exactly
    # those rounds, consuming each one call later
    assert seen[0] == [1, 5, 6]


def test_terminated_sender_cannot_send_and_stays_silent():
    g = build_graph([(0, 1)], [0, 1])
    scripts = {
        0: [lambda ctx: Action(sends={1: "bye"}, terminate=True, output=1)],
        1: [Action(), Action(), Action(terminate=True)],
    }
    trace = Trace()
    res = run_simulation(g, Scripted(scripts), None, seed=1, round_cap=10, trace=trace)
    events_for_0 = [e for e in trace.node_events if e[1] == 0]
    assert events_for_0 == [(1, 0, "term")]
    sends_from_0 = [e for e in trace.msg_events if e[1] == 0]
    assert sends_from_0 == [(1, 0, 1, True)]     # the terminating-round send only
    assert res.termination_round[0] == 1


def test_send_to_non_neighbor_raises():
    g = build_graph([], [0, 1])

    class Bad:
        def initial_state(self, ctx):
            return None

        def on_round(self, ctx, inbox):
            return Action(sends={1: "x"})

    with pytest.raises(ProgramError):
        run_simulation(g, Bad(), None, seed=1, round_cap=5)


@pytest.mark.parametrize("script,round_cap,match", [
    (lambda ctx: Action(terminate=True, sleep_rounds=1), 5,
     "an action cannot both sleep and terminate"),
    (lambda ctx: Action(sleep_rounds=-1), 5, "sleep_rounds must be >= 1 when sleeping"),
    (Action(terminate=True), 0, "round_cap must be >= 1"),
], ids=["sleep_and_terminate", "negative_sleep", "round_cap_0"])
def test_contract_breaches_raise_program_error(script, round_cap, match):
    g = build_graph([], [0])
    with pytest.raises(ProgramError, match=match):
        run_simulation(g, Scripted({0: [script]}), None, seed=1, round_cap=round_cap)


def test_a_round_that_raises_records_no_event():
    # round 2: node 0 sends to 1, which is routed first, then the isolated
    # node 2 sends to 0; the trace keeps round 1 and nothing of round 2
    g = build_graph([(0, 1)], [0, 1, 2])
    scripts = {0: [Action(), Action(sends={1: "x"})], 1: [Action()],
               2: [Action(), Action(sends={0: "y"})]}
    trace = Trace()
    with pytest.raises(ProgramError, match="node 2 sent to non-neighbor 0"):
        run_simulation(g, Scripted(scripts), None, seed=1, round_cap=5, trace=trace)
    assert trace.node_events == [(1, 0, "cont"), (1, 1, "cont"), (1, 2, "cont")]
    assert trace.msg_events == []


def test_round_cap_raises_run_incomplete_with_partial():
    g = build_graph([], [0])

    class Forever:
        def initial_state(self, ctx):
            return "state"

        def on_round(self, ctx, inbox):
            return Action()

    with pytest.raises(RunIncomplete) as err:
        run_simulation(g, Forever(), None, seed=1, round_cap=4)
    partial = err.value.partial
    assert partial.rounds_executed == 4
    assert partial.final_states == {0: "state"}
    res = run_simulation(g, Forever(), None, seed=1, round_cap=4, on_incomplete="return")
    assert res.termination_round == {0: None} and res.awake_rounds[0] == 4


def test_fast_forward_over_silent_rounds():
    g = build_graph([], [0])
    script = [Action(sleep_rounds=1000), Action(terminate=True)]
    res = run_simulation(g, Scripted({0: script}), None, seed=1, round_cap=5000)
    assert res.termination_round[0] == 1002
    assert res.awake_rounds[0] == 2


def test_trace_determinism_and_awake_replay():
    g = build_graph([(0, 1), (1, 2)], [0, 1, 2])

    class Chatty:
        def initial_state(self, ctx):
            return None

        def on_round(self, ctx, inbox):
            if ctx.round >= 3:
                return Action(terminate=True, output=ctx.node_id)
            if ctx.node_id == 1:
                return Action(sends={0: "a", 2: "b"})
            if ctx.node_id == 0 and ctx.round == 1:
                return Action(sleep_rounds=1)
            return Action()

    t1, t2 = Trace(), Trace()
    r1 = run_simulation(g, Chatty(), None, seed=9, round_cap=10, trace=t1)
    r2 = run_simulation(g, Chatty(), None, seed=9, round_cap=10, trace=t2)
    assert t1.render() == t2.render()
    # replay invariant: awake counts equal per-node trace line counts
    for v in g.nodes:
        lines = [e for e in t1.node_events if e[1] == v]
        assert len(lines) == r1.awake_rounds[v]
    # messages to the sleeping node 0 at round 2 are marked undelivered
    assert (2, 1, 0, False) in t1.msg_events
    assert (2, 1, 2, True) in t1.msg_events


def test_scheduling_order_independence():
    g = build_graph([(0, 1), (1, 2), (2, 3), (0, 3)], [0, 1, 2, 3])

    class Randomish:
        def initial_state(self, ctx):
            return []

        def on_round(self, ctx, inbox):
            ctx.state.extend(inbox)
            if ctx.round == 4:
                return Action(terminate=True, output=(tuple(ctx.state), ctx.rng.next_u64()))
            return Action(sends={u: (ctx.node_id, ctx.round, ctx.rng.next_u64())
                                 for u in ctx.neighbors})

    base = run_simulation(g, Randomish(), None, seed=3, round_cap=10)
    for order_fn in (lambda r, ids: list(reversed(ids)),
                     lambda r, ids: ids[r % len(ids):] + ids[:r % len(ids)]):
        permuted = run_simulation(g, Randomish(), None, seed=3, round_cap=10,
                                  call_order=order_fn)
        assert permuted.outputs == base.outputs
        assert permuted.awake_rounds == base.awake_rounds


def test_no_causality_leak_from_undelivered_messages():
    # node 0 alternates sleep/wake; node 1 sends its round number every
    # round; node 0 must consume exactly the rounds it was awake for
    g = build_graph([(0, 1)], [0, 1])
    consumed = []

    class Alternator:
        def initial_state(self, ctx):
            return None

        def on_round(self, ctx, inbox):
            if ctx.node_id == 1:
                if ctx.round >= 12:
                    return Action(terminate=True)
                return Action(sends={0: ctx.round})
            consumed.extend(inbox)
            if ctx.round >= 11:
                return Action(terminate=True)
            return Action(sleep_rounds=1)

    run_simulation(g, Alternator(), None, seed=1, round_cap=40)
    # node 0 awake rounds: 1, 3, 5, 7, 9, 11 -> consumes 1,3,5,7,9 one call later
    assert consumed == [1, 3, 5, 7, 9]


def test_render_text_is_pinned():
    # each kind in ascending rounds, the kinds interleaved across rounds
    trace = Trace(round_offset=10)
    trace.messages(1, [0], [1], [1], [True])
    trace.messages(2, [1], [1], [0], [False])
    trace.nodes(1, [0], ["sleep:1"])
    trace.nodes(2, [1], ["send"])
    trace.nodes(2, [0], ["term"])
    assert trace.render() == (
        "t=11 v=0 status=A act=sleep:1\n"
        "msg t=11 0->1 delivered=1\n"
        "t=12 v=1 status=A act=send\n"
        "t=12 v=0 status=A act=term\n"
        "msg t=12 1->0 delivered=0\n"
    )
    assert Trace().render() == "" and list(Trace().chunks()) == []


_rounds = st.integers(0, 5)
_ids = st.integers(0, 2**70)


@given(
    st.lists(st.tuples(_rounds, _ids, st.sampled_from(["send", "cont", "term", "sleep:4"]))),
    st.lists(st.tuples(_rounds, _ids, _ids, st.booleans())),
)
def test_render_equals_the_grouping_reference(node_events, msg_events):
    # each kind recorded in ascending rounds, stably, so that events of one
    # round keep their generated order; both kinds in one round, rounds of
    # one kind only, and the empty trace
    trace = Trace()
    for e in sorted(node_events, key=itemgetter(0)):
        trace.nodes(e[0], [e[1]], [e[2]])
    for e in sorted(msg_events, key=itemgetter(0)):
        trace.messages(e[0], [e[1]], [1], [e[2]], [e[3]])
    text = trace.render()
    assert text == reference_render(trace)
    assert text == "".join(trace.chunks())


def test_a_round_past_one_piece_renders_in_pieces():
    # 2 * 4096 + 5 events of each kind in round 3, then one of each in round
    # 4; in round 3, sender 1 sends 4097 messages from the 4,095th on, so its
    # run straddles the first piece's end
    trace = Trace()
    big = 2 * 4096 + 5
    trace.nodes(3, list(range(big)), ["send"] * big)
    fanout = [1] * 4094 + [4097] + [1] * (big - 4094 - 4097)
    trace.messages(3, [0] * 4094 + [1] + list(range(2, 2 + big - 4094 - 4097)), fanout,
                   list(range(1, big + 1)), [k % 3 == 0 for k in range(big)])
    trace.nodes(4, [7], ["term"])
    trace.messages(4, [7], [1], [8], [False])
    pieces = list(trace.chunks())
    assert [p.count("\n") for p in pieces] == [4096, 4096, 5, 4096, 4096, 5, 1, 1]
    assert pieces[3].endswith("msg t=3 1->4096 delivered=1\n")
    assert pieces[4].startswith("msg t=3 1->4097 delivered=0\n")
    assert "".join(pieces) == reference_render(trace)


def test_event_views_read_the_columns():
    trace = Trace(round_offset=10)
    trace.nodes(1, [0], ["send"])
    trace.messages(1, [0], [1], [2**70], [True])
    trace.nodes(2, [0, 2**70], ["term", "sleep:3"])
    trace.messages(2, [2**70], [2], [0, 5], b"\0\1")
    nodes, msgs = trace.node_events, trace.msg_events
    assert len(nodes) == 3 and len(msgs) == 3
    assert list(nodes) == [(11, 0, "send"), (12, 0, "term"), (12, 2**70, "sleep:3")]
    assert list(msgs) == [(11, 0, 2**70, True), (12, 2**70, 0, False), (12, 2**70, 5, True)]
    assert (12, 2**70, 0, False) in msgs and (12, 2**70, 0, True) not in msgs
    assert nodes == list(nodes) and nodes == tuple(nodes) and nodes != list(nodes)[:2]
    assert msgs == trace.msg_events and nodes != msgs
    again = Trace()
    for e in nodes:
        again.nodes(e[0], [e[1]], [e[2]])
    assert again.node_events == nodes and again.msg_events == [] and not again.msg_events
    with pytest.raises(AttributeError):
        trace.node_events = []


def test_each_kind_refuses_a_round_below_its_last():
    trace = Trace(round_offset=10)
    trace.nodes(2, [0], ["send"])
    trace.messages(3, [0], [1], [1], [True])
    trace.nodes(2, [1], ["cont"])     # the same round again, below the messages' last
    trace.messages(3, [1], [1], [0], [False])
    columns = lambda: (list(trace.node_rounds), list(trace.node_ends), list(trace.node_id),
                       list(trace.node_act), list(trace.msg_rounds), list(trace.msg_ends),
                       list(trace.msg_sender), list(trace.msg_fanout),
                       list(trace.msg_receiver), bytes(trace.msg_delivered))
    before = columns()
    assert before[:2] == ([12], [2]) and before[4:6] == ([13], [2])
    with pytest.raises(ValueError, match="node events of round 11 recorded after round 12"):
        trace.nodes(1, [5], ["term"])
    with pytest.raises(ValueError, match="message events of round 12 recorded after round 13"):
        trace.messages(2, [5], [1], [6], [True])
    # a call with no events is refused below the last round too
    with pytest.raises(ValueError, match="node events of round 11"):
        trace.nodes(1, [], [])
    with pytest.raises(ValueError, match="message events of round 12"):
        trace.messages(2, [], [], [], [])
    trace.round_offset = 0                       # the offset counts: 12 is below 13
    with pytest.raises(ValueError, match="message events of round 12"):
        trace.messages(12, [5], [1], [6], [True])
    # so is a fanout that does not add up to the receivers
    with pytest.raises(ValueError, match="1 receivers for 2 messages"):
        trace.messages(13, [5], [2], [6], [True])
    assert columns() == before
    # and at or above it records nothing: no empty run, no text
    text = trace.render()
    trace.nodes(12, [], [])
    trace.nodes(20, [], [])
    trace.messages(13, [], [], [], b"")
    trace.messages(20, [], [], [], b"")
    assert columns() == before and trace.render() == text
    trace.messages(13, [5], [1], [6], [True])
    assert [e[0] for e in trace.msg_events] == [13, 13, 13] and trace.msg_rounds == [13]
