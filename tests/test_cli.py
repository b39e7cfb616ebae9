import argparse
import hashlib
import io
import os
import resource
import subprocess
import sys
import tracemalloc
import weakref

import pytest

import sleepcolor
from helpers import HUGE_ID_DIGITS, HUGE_ID_DLC, random_residual_instance
from sleepcolor import cli
from sleepcolor.cli import fit_line, main
from sleepcolor.coloring import PipelineConfig, phase3, run_pipeline
from sleepcolor.graph import (
    build_graph,
    generate,
    make_default_instance,
    make_instance,
    read_instance,
    write_instance,
)
from sleepcolor.metrics import write_csv
from sleepcolor.simcore import Trace


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_cycle_sweep_all_valid(tmp_path, capsys):
    out = tmp_path / "r.csv"
    code, _, err = run_cli(
        ["run", "--family", "cycle", "--n", "64", "--seeds", "10",
         "--out", str(out)], capsys,
    )
    assert code == 0 and err == ""
    lines = out.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0].startswith("seed,family,n,param,K,threshold,worst_awake")
    rows = data[1:]
    assert len(rows) == 10
    assert all(row.split(",")[9] == "1" for row in rows)      # valid column


@pytest.mark.parametrize("p", ["1e-17", "5.551115123125783e-17", "5e-324"])
def test_run_gnp_where_one_minus_p_rounds_to_one(tmp_path, capsys, p):
    # 1 - p rounds to 1.0 for p <= 2**-54, so log(1 - p) is 0.0 and the gaps
    # divide by log1p(-p); at 5e-324 the gap overflows a float
    out = tmp_path / "r.csv"
    code, _, err = run_cli(["run", "--family", "gnp", "--n", "100", "--param", p,
                            "--out", str(out)], capsys)
    assert code == 0 and err == ""
    row = [l for l in out.read_text().splitlines() if not l.startswith("#")][1]
    assert row.split(",")[9] == "1"                          # valid column
    for seed in (0, 1, 2**64 - 1):
        assert generate("gnp", 100, seed, float(p)).edge_count() == 0, seed


def test_run_inadmissible_instance_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.dlc"
    bad.write_text("dlc 1 2 1\nnode 0 1\nnode 1 2\nedge 0 1\n")
    code, _, err = run_cli(["run", "--instance", str(bad)], capsys)
    assert code == 1
    assert err.startswith("error: instance:")


def test_run_reads_the_instance_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "irr.dlc"
    write_instance(random_residual_instance(5), str(path))
    reads = []

    def counting_read(p):
        reads.append(p)
        return read_instance(p)

    monkeypatch.setattr(cli, "read_instance", counting_read)
    code, out, _ = run_cli(["run", "--instance", str(path), "--seeds", "3",
                            "--seed-base", "4"], capsys)
    assert code == 0
    assert reads == [str(path)]
    inst = read_instance(str(path))
    rows = []
    for seed in (4, 5, 6):
        config = PipelineConfig(seed=seed)
        resolved = config.resolve(inst.graph.node_count)
        _, metrics = run_pipeline(inst, config)
        rows.append(metrics.csv_row(seed, "file", inst.graph.node_count, None,
                                    resolved.k1, resolved.phase2_degree_threshold))
    expected = io.StringIO()
    write_csv(expected, rows)
    assert [l for l in out.splitlines() if not l.startswith("#")] == \
        expected.getvalue().splitlines()


def test_oracle_unreadable_instance_exits_one(tmp_path, capsys):
    code, _, err = run_cli(["oracle", "--instance", str(tmp_path / "missing.dlc")],
                           capsys)
    assert code == 1
    assert err.startswith("error: instance: cannot read")


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_non_ascii_byte_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "latin.dlc"
    path.write_bytes(b"dlc 1 1 0\nnode 1 \xff\n")
    code, _, err = run_cli([command, "--instance", str(path)], capsys)
    assert code == 1
    assert err.startswith("error: parse: line 2: non-ASCII byte 0xff")


# (instance text, the ids its error message must print in full) for each fault
# a .dlc can carry on ids past the interpreter's digit limit
_A, _B = HUGE_ID_DIGITS
_HUGE_ID_FAULTS = {
    "self-loop": (f"dlc 1 1 1\nnode {_A} 1 2\nedge {_A} {_A}\n", [_A]),
    "unknown-id": (f"dlc 1 1 1\nnode {_A} 1 2\nedge {_A} {_B}\n", [_A, _B]),
    "duplicate-edge": (f"dlc 1 2 2\nnode {_A} 1 2\nnode {_B} 1 2\n"
                       f"edge {_A} {_B}\nedge {_B} {_A}\n", [_A, _B]),
    "duplicate-color": (f"dlc 1 1 0\nnode {_A} 1 1\n", [_A]),
    "non-positive": (f"dlc 1 1 0\nnode {_A} 0\n", [_A]),
    "short-list": (f"dlc 1 2 1\nnode {_A} 1\nnode {_B} 1 2\nedge {_A} {_B}\n", [_A]),
}


@pytest.mark.parametrize("command", ["run", "oracle"])
@pytest.mark.parametrize("fault", sorted(_HUGE_ID_FAULTS))
def test_instance_errors_print_ids_past_the_digit_limit(tmp_path, capsys, command,
                                                          fault):
    text, ids = _HUGE_ID_FAULTS[fault]
    path = tmp_path / "huge.dlc"
    path.write_text(text)
    code, _, err = run_cli([command, "--instance", str(path)], capsys)
    assert code == 1
    assert err.startswith("error: instance:")
    assert all(digits in err for digits in ids)


def test_run_missing_family_usage_error(capsys):
    code, _, err = run_cli(["run", "--n", "10"], capsys)
    assert code == 1
    assert err.startswith("error: usage:")


@pytest.mark.parametrize("n", ["0", "-3"])
def test_run_n_below_one_is_an_instance_error(n, capsys):
    code, out, err = run_cli(["run", "--family", "path", "--n", n], capsys)
    assert code == 1 and out == ""
    assert err == "error: instance: n must be >= 1\n"


def test_run_n_past_the_list_limit_is_an_instance_error(capsys):
    code, out, err = run_cli(["run", "--family", "path", "--n", "99999999999999999999"],
                             capsys)
    assert code == 1 and out == ""
    assert err == f"error: instance: n must be at most {sys.maxsize}\n"


def test_parser_options_per_subcommand(capsys):
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(s for a in p._actions for s in a.option_strings
                            if s not in ("-h", "--help"))
               for name, p in subparsers.choices.items()}
    common = ["--family", "--k1", "--param", "--phase2-threshold", "--seed-base", "--seeds"]
    assert options == {
        "run": sorted(common + ["--n", "--instance", "--out", "--trace"]),
        "scaling": sorted(common + ["--sizes", "--out"]),
        "oracle": ["--instance"],
    }
    # scaling sweeps its own sizes on generated graphs
    for extra in (["--n", "5"], ["--instance", "f.dlc"]):
        code, out, err = run_cli(["scaling", "--sizes", "8,16", *extra], capsys)
        assert code == 1 and out == "" and err.startswith("error: usage:")


def test_run_out_and_trace_on_one_file_usage_error(tmp_path, capsys):
    # both are open during the sweep, so one would overwrite the other
    path = tmp_path / "o.txt"
    code, _, err = run_cli(["run", "--family", "path", "--n", "8", "--out", str(path),
                            "--trace", str(tmp_path / "." / "o.txt")], capsys)
    assert code == 1
    assert err.startswith("error: usage: --out and --trace name the same file")
    assert not path.exists()


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_run_output_on_the_instance_file_usage_error(flag, tmp_path, capsys):
    # opening the output truncates it, so the instance would be lost unread
    path = tmp_path / "g.dlc"
    write_instance(make_default_instance(generate("gnp", 12, 1, 0.3)), str(path))
    before = path.read_bytes()
    code, _, err = run_cli(["run", "--instance", str(path),
                            flag, str(tmp_path / "." / "g.dlc")], capsys)
    assert code == 1
    assert err.startswith(f"error: usage: {flag} and --instance name the same file")
    assert path.read_bytes() == before


@pytest.mark.parametrize("budget", [["--k1", "0"], ["--k1", "-3"]],
                         ids=["k1=0", "k1=-3"])
def test_run_unusable_phase1_budget_usage_error(budget, capsys):
    code, _, err = run_cli(["run", "--family", "path", "--n", "8", *budget], capsys)
    assert code == 1
    assert err.startswith("error: usage:")


def test_run_gnp_row_count(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code, _, _ = run_cli(
        ["run", "--family", "gnp", "--n", "256", "--param", "0.02",
         "--seeds", "5", "--out", str(out)], capsys,
    )
    assert code == 0
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#")][1:]
    assert len(rows) == 5


def test_run_phase_overrun_exits_two(monkeypatch, capsys):
    real = phase3.tournament_slot_count
    monkeypatch.setattr(phase3, "tournament_slot_count", lambda c: real(c) - 1)
    code, _, err = run_cli(
        ["run", "--family", "clique", "--n", "24", "--seeds", "2"], capsys,
    )
    assert code == 2
    assert err.startswith("error: incomplete:")


def test_byte_identical_reruns(tmp_path, capsys):
    outs, traces = [], []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        tr = tmp_path / f"{tag}.trace"
        code, _, _ = run_cli(
            ["run", "--family", "gnp", "--n", "128", "--param", "0.05",
             "--seeds", "3", "--seed-base", "11",
             "--out", str(out), "--trace", str(tr)], capsys,
        )
        assert code == 0
        outs.append(out.read_bytes())
        traces.append(tr.read_bytes())
    assert outs[0] == outs[1]
    assert traces[0] == traces[1]
    assert b"# run seed=11" in traces[0]


def test_run_streams_each_trace_before_the_next_run(tmp_path, capsys, monkeypatch):
    refs = []
    alive_at_build = []
    alive_at_start = []

    class TrackedTrace(Trace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    def alive():
        return sum(ref() is not None for ref in refs)

    def counting_generate(*args):
        alive_at_build.append(alive())
        return generate(*args)

    def counting_run_pipeline(instance, config, trace=None):
        alive_at_start.append(alive())
        return run_pipeline(instance, config, trace=trace)

    monkeypatch.setattr(cli, "Trace", TrackedTrace)
    monkeypatch.setattr(cli, "generate", counting_generate)
    monkeypatch.setattr(cli, "run_pipeline", counting_run_pipeline)
    path = tmp_path / "t.trace"
    code, _, _ = run_cli(
        ["run", "--family", "gnp", "--n", "128", "--param", "0.05",
         "--seeds", "3", "--seed-base", "11", "--trace", str(path)], capsys,
    )
    assert code == 0
    assert alive_at_build == [0, 0, 0]     # the last run's trace is gone
    assert alive_at_start == [1, 1, 1]
    expected = []
    for seed in (11, 12, 13):
        trace = Trace()
        inst = make_default_instance(generate("gnp", 128, seed, 0.05))
        run_pipeline(inst, PipelineConfig(seed=seed), trace=trace)
        expected.append(f"# run seed={seed}\n" + trace.render())
    assert path.read_text() == "".join(expected)


def test_scaling_output_shape(capsys):
    code, out, _ = run_cli(
        ["scaling", "--sizes", "16,32", "--seeds", "3", "--family", "gnp",
         "--param", "4"], capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("size n=")) == 2
    assert any(l.startswith("fit worst_awake_max") for l in lines)
    assert any(l.startswith("fit avg_awake_mean slope=") for l in lines)


def test_scaling_empty_sizes_exits_one(capsys):
    code, _, err = run_cli(["scaling", "--sizes", "", "--seeds", "2"], capsys)
    assert code == 1 and err.startswith("error: usage:")


def test_scaling_size_past_the_list_limit_is_an_instance_error(capsys):
    # the sizes before it run and print their line first
    code, out, err = run_cli(["scaling", "--sizes", "16,99999999999999999999"], capsys)
    assert code == 1 and out.startswith("size n=16 ") and out.count("\n") == 1
    assert err == f"error: instance: n must be at most {sys.maxsize}\n"


@pytest.mark.parametrize("extra", [[], ["--param", "-1"], ["--param", "nan"]])
def test_scaling_refuses_a_gnp_degree_outside_zero_to_n_before_any_run(extra, capsys):
    # p = degree / n (8 / 4 here by default) must be a probability for every
    # size, and that is checked before the first size runs
    code, out, err = run_cli(["scaling", "--sizes", "16,4", *extra], capsys)
    assert code == 1 and "size n=" not in out
    assert err.startswith("error: usage: gnp expected degree ") and err.count("\n") == 1


def test_scaling_bad_sizes_exits_one(capsys):
    code, _, err = run_cli(["scaling", "--sizes", "16,banana"], capsys)
    assert code == 1 and err.startswith("error: usage:")


@pytest.mark.parametrize("sizes", ["0", "16,-5"])
def test_scaling_sizes_below_one_usage_error(sizes, capsys):
    # size 0 once reached gnp's param / n and died with ZeroDivisionError
    code, _, err = run_cli(["scaling", "--sizes", sizes], capsys)
    assert code == 1 and err.startswith("error: usage:")


def test_sweep_holds_one_run_at_a_time(tmp_path, capsys):
    # a sweep keeps each run's CSV row and four figures, not its instance,
    # coloring or metrics: four seeds peak about as high as one (2.3 times
    # as high while every run's metrics stayed alive)
    def peak(seeds):
        tracemalloc.start()
        try:
            code = main(["run", "--family", "gnp", "--n", "4096", "--param", "0.001953125",
                         "--seeds", str(seeds), "--out", str(tmp_path / "o.csv")])
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)                                  # fills the caches a first run leaves
    (code1, one), (code4, four) = peak(1), peak(4)
    assert code1 == code4 == 0
    assert four < 1.2 * one


@pytest.mark.parametrize("args", [
    ["run", "--family", "path", "--n", "1_0"],
    ["run", "--family", "path", "--n", "+10"],
    ["run", "--family", "path", "--n", " 10"],
    ["run", "--family", "path", "--n", "\uff11\uff10"],      # full-width digits
    ["run", "--family", "path", "--n", "10", "--seeds", "+2"],
    ["run", "--family", "path", "--n", "10", "--seed-base", "0x1"],
    ["run", "--family", "path", "--n", "10", "--k1", "2_0"],
    ["run", "--family", "path", "--n", "10", "--phase2-threshold", "1-0"],
    ["scaling", "--sizes", "1_6,+32"],
    ["scaling", "--sizes", "16,3 2"],
    ["scaling", "--sizes", "16,--32"],
])
def test_integer_options_take_only_sign_and_ascii_digits(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == "" and err.startswith("error: usage:")


def test_integer_options_take_a_minus_sign_and_blanks_around_sizes(capsys):
    code, out, _ = run_cli(["run", "--family", "path", "--n", "010", "--seeds", "2",
                            "--seed-base", "-3"], capsys)
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")][1:]
    assert code == 0 and [(r[0], r[2]) for r in rows] == [("-3", "10"), ("-2", "10")]
    code, out, _ = run_cli(["scaling", "--sizes", " 16 , 32 ", "--seeds", "1"], capsys)
    assert code == 0
    assert [l.split()[1] for l in out.splitlines() if l.startswith("size")] == [
        "n=16", "n=32"]


_HUGE = HUGE_ID_DIGITS[0]          # more digits than int() and str() convert by default


@pytest.mark.parametrize("args,code,error", [
    (["scaling", "--sizes", "16,-" + _HUGE], 1, "error: usage: --sizes must all be >= 1, got -"),
    (["run", "--family", "path", "--n", "4", "--k1", "-" + _HUGE], 1,
     "error: usage: k1 must be >= 1, got -"),
    (["run", "--family", "path", "--n", "4", "--phase2-threshold", "-" + _HUGE], 0, ""),
    (["run", "--family", "path", "--n", "4", "--seed-base", _HUGE], 0, ""),
], ids=["sizes", "k1", "phase2-threshold", "seed-base"])
def test_integer_options_past_the_digit_limit_end_in_a_result_or_an_error_line(
        args, code, error, tmp_path, capsys):
    # each printed the option with str() and ended in a ValueError traceback
    trace = tmp_path / "t.trace"
    extra = ["--trace", str(trace)] if args[0] == "run" else []
    got, out, err = run_cli(args + extra, capsys)
    assert got == code
    if error:
        assert out == "" and err == f"{error}{_HUGE}\n"
        return
    assert err == ""
    comments = [l for l in out.splitlines() if l.startswith("# ")]
    header, row = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    fields = dict(zip(header, row))
    option, value = args[-2:]
    if option == "--seed-base":
        assert fields["seed"] == value
        assert f"# seed={value}" in comments
        assert trace.read_text().startswith(f"# run seed={value}\n")
    else:
        assert fields["threshold"] == value
        assert f"# phase2_degree_threshold={value}" in comments


@pytest.mark.parametrize("args", [
    lambda d: ["run", "--family", "path", "--n", "8", "--out", str(d / "no" / "o.csv")],
    lambda d: ["run", "--family", "path", "--n", "8", "--trace", str(d / "no" / "t")],
    lambda d: ["run", "--family", "path", "--n", "8", "--trace", str(d)],
    lambda d: ["scaling", "--sizes", "16", "--out", str(d / "no" / "o.csv")],
], ids=["run-out-missing-dir", "run-trace-missing-dir", "run-trace-is-a-dir",
        "scaling-out-missing-dir"])
def test_unwritable_output_path_is_an_error_line(args, tmp_path, capsys, monkeypatch):
    # --out and --trace are opened before the first run, so no run is wasted
    runs = []
    real = cli.run_pipeline
    monkeypatch.setattr(cli, "run_pipeline", lambda *a, **kw: runs.append(a) or real(*a, **kw))
    code, _, err = run_cli(args(tmp_path), capsys)
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert runs == []


@pytest.mark.parametrize("param", ["2.7", "inf", "nan"])
def test_regular_degree_that_is_not_an_integer_is_an_instance_error(param, capsys):
    code, _, err = run_cli(["run", "--family", "regular", "--n", "10", "--param", param],
                           capsys)
    assert code == 1
    assert err.startswith("error: instance:") and "Traceback" not in err


def test_regular_integral_float_degree_runs(capsys):
    code, out, _ = run_cli(["run", "--family", "regular", "--n", "10", "--param", "4.0"],
                           capsys)
    assert code == 0
    assert out.splitlines()[-1].startswith("0,regular,10,4.0,")


def test_oracle_catalog_exit_zero(capsys):
    code, out, _ = run_cli(["oracle"], capsys)
    assert code == 0
    assert "all-adoption-probabilities>=1/4: yes" in out


def test_oracle_instance_prints_exact_fraction(tmp_path, capsys):
    g = build_graph([(0, 1)], [0, 1])
    inst = make_instance(g, {0: (1, 2), 1: (1, 2)})
    path = tmp_path / "edge12.dlc"
    write_instance(inst, str(path))
    code, out, _ = run_cli(["oracle", "--instance", str(path)], capsys)
    assert code == 0
    assert "node 0 p=3/8" in out and "node 1 p=3/8" in out


def test_oracle_prints_ids_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "huge.dlc"
    path.write_text(HUGE_ID_DLC)
    code, out, _ = run_cli(["oracle", "--instance", str(path)], capsys)
    assert code == 0
    for digits in HUGE_ID_DIGITS:
        assert f"huge.dlc node {digits} p=1/2\n" in out


def test_oracle_isolated_prints_one_half(tmp_path, capsys):
    g = build_graph([], [0])
    inst = make_instance(g, {0: (1,)})
    path = tmp_path / "k1.dlc"
    write_instance(inst, str(path))
    code, out, _ = run_cli(["oracle", "--instance", str(path)], capsys)
    assert code == 0 and "node 0 p=1/2" in out


def test_run_k1_above_twelve_keeps_every_decay_column(capsys):
    # one decay column per iteration that ran (at least x1..x12); K keeps k1
    code, out, _ = run_cli(
        ["run", "--family", "path", "--n", "8", "--seeds", "2", "--k1", "13"], capsys
    )
    assert code == 0
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert data[0].endswith(",x11,x12")
    assert [l.count(",") for l in data[1:]] == [22, 22]
    assert [l.split(",")[4] for l in data[1:]] == ["13", "13"]


def test_run_huge_phase1_budget_allocates_only_what_runs():
    # a structure sized by the budget would hit the address-space cap and
    # fail the child, instead of exhausting the host's memory
    cap = 1 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    out = subprocess.run(
        [sys.executable, "-m", "sleepcolor.cli", "run", "--family", "path",
         "--n", "8", "--seeds", "2", "--k1", "1000000000"],
        capture_output=True, text=True, env=_child_env(), preexec_fn=limit,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    rows = [l for l in out.stdout.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 2 and all(r.split(",")[9] == "1" for r in rows)


def test_run_huge_ids_finish_phase3(tmp_path):
    # ids of 201 bits once sent palette_schedule into trial division near
    # 2**67, and ids of 1101 bits overflowed a float root; a hang fails here
    for bits in (200, 1100):
        a = 2**bits
        path = tmp_path / f"ids{bits}.dlc"
        path.write_text(f"dlc 1 2 1\nnode {a} 1 2\nnode {a + 1} 1 2\nedge {a} {a + 1}\n")
        out = subprocess.run(
            [sys.executable, "-m", "sleepcolor.cli", "run", "--instance", str(path),
             "--seeds", "4"],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        assert out.returncode == 0, (bits, out.stderr)
        rows = [l for l in out.stdout.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 4 and all(r.split(",")[9] == "1" for r in rows)


def test_run_ids_past_the_digit_limit_with_trace(tmp_path, capsys):
    path = tmp_path / "huge.dlc"
    path.write_text(HUGE_ID_DLC)
    trace = tmp_path / "huge.trace"
    code, out, err = run_cli(
        ["run", "--instance", str(path), "--seeds", "2", "--trace", str(trace)], capsys,
    )
    assert code == 0, err
    rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
    assert len(rows) == 2 and all(r.split(",")[9] == "1" for r in rows)
    text = trace.read_text()
    assert text.count("# run seed=") == 2
    for digits in HUGE_ID_DIGITS:
        assert f" v={digits} status=A act=" in text


def test_fit_line_exact():
    a, b, res = fit_line([1.0, 2.0, 3.0], [3.0, 5.0, 7.0])
    assert abs(a - 2.0) < 1e-12 and abs(b - 1.0) < 1e-12
    assert all(abs(r) < 1e-12 for r in res)


def _child_env():
    # the child imports the same sleepcolor, installed or not
    src = os.path.dirname(os.path.dirname(sleepcolor.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_entrypoint_subprocess(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "sleepcolor.cli", "run", "--family", "path",
         "--n", "8", "--seeds", "2"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1].count(",") == 22


# SHA-256 of the CSV and the --trace file of `run --family gnp --n 4096
# --param 0.001953125 --seeds 2`, recorded when phase outcomes were still
# id-keyed dicts; a change of layout must leave both files byte for byte
_PINNED = {
    "default": ([], "675c9bc42101df7f93f9aab67b30c57e04111e1bb2c73ec760221f271720ea3a",
                "25f9be58ede703cc0c89154db6ab490cc3ea9eb090c90cdfed4fca0aef2a12db"),
    "phases-2-and-3": (["--k1", "1", "--phase2-threshold", "10"],
                       "a1cd2c674f7eeef01bea6c8597e4ae2d420581ce23f571317fb76aae8d74455b",
                       "d8eae1fe36b2c292632806d14bef30c1ba6d6bbe3d79438fe80cad94e0fb9a48"),
}


@pytest.mark.parametrize("config", sorted(_PINNED))
def test_run_output_is_pinned(tmp_path, capsys, config):
    extra, csv_sha, trace_sha = _PINNED[config]
    out, trace = tmp_path / "run.csv", tmp_path / "run.trace"
    code, _, err = run_cli(["run", "--family", "gnp", "--n", "4096",
                            "--param", "0.001953125", "--seeds", "2", *extra,
                            "--out", str(out), "--trace", str(trace)], capsys)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_sha
