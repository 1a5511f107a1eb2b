"""Record parsing, synthetic generators and the command-line front end."""

import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
import typing
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from indisketch import (
    ConfigurationError,
    EstimatorOverrides,
    MalformedInputError,
    TupleStream,
    build_frequency_table,
    exact_statistical_distance,
    generate_synthetic,
    parse_records,
)
from indisketch import cli, estimator, stream as stream_mod
from indisketch.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    CountingReader,
    RunConfig,
    main,
    parse_lines,
    run,
)
from indisketch.hashing import counter_uniform, derive_key
from indisketch.stream import RECORD_BLOCK


def parsed(lines, k, n):
    """The records of ``parse_records`` as tuples, checking the block shape."""
    out = []
    for block in parse_records(lines, k, n):
        assert block.dtype == np.int64 and block.ndim == 2 and block.shape[1] == k
        assert 0 < len(block) <= RECORD_BLOCK
        out.extend(map(tuple, block.tolist()))
    return out


class TestParseRecords:
    def test_comma_separated(self):
        assert parsed(["1,1", "2,2"], 2, 2) == [(1, 1), (2, 2)]

    def test_whitespace_and_comments(self):
        lines = ["1 1", "# comment", "", "2 2"]
        assert parsed(lines, 2, 2) == [(1, 1), (2, 2)]

    def test_arity_error_names_line(self):
        with pytest.raises(MalformedInputError) as err:
            parsed(["1,2,3"], 2, 4)
        assert "record 1" in str(err.value)

    def test_non_integer_token(self):
        with pytest.raises(MalformedInputError) as err:
            parsed(["1,1", "1,x"], 2, 2)
        assert "record 2" in str(err.value)

    def test_out_of_range(self):
        with pytest.raises(MalformedInputError):
            parsed(["1,5"], 2, 4)

    def test_short_tokens_beside_long_ones(self):
        # a domain wide enough that a digit misread from a neighbour stays in range
        assert parsed(["3,2005", "2005,3", "7 1999"], 2, 10_000) == [
            (3, 2005), (2005, 3), (7, 1999)
        ]


def outcome(records):
    """Rows produced before any error, and the error as (type, message, index)."""
    rows = []
    try:
        for rec in records:
            rows.extend(map(tuple, np.atleast_2d(rec).tolist()))
    except MalformedInputError as e:
        return rows, (type(e), str(e), e.index)
    return rows, None


K, N = 3, 12
_separator = st.sampled_from([",", " ", "\t", ", ", ",,", " \t ", ",\t"])
_ending = st.sampled_from(["\n", "\r\n", "\r", "", "  \n"])
_unit = st.floats(0, 1, exclude_max=True)
# a token is drawn as (kind, u), its text a function of the domain size n
# (`_text`): the value u of the way through [1, n] ("plain"), through the
# values of n's own width ("wide"), the latter with one or two leading
# zeros ("zero", "zeros"), or a value above n, of n's width or one digit
# longer ("over")
_valid = st.tuples(st.sampled_from(["plain", "wide", "wide", "zero", "zeros"]), _unit)
_token = st.one_of(
    _valid,
    st.tuples(st.just("over"), _unit),
    # signs, non-ASCII digits, errors, over-long tokens; 2^64 + 5 wraps to 5 in int64
    st.sampled_from(
        ["+3", "\u0661", "1_0", "-1", "0", "x", "1.0", "0" * 20 + "7", str(2**64 + 5)]
    ),
)


def _token_text(token, n):
    kind, u = token
    low = 10 ** (len(str(n)) - 1)  # the least value of n's width
    if kind == "plain":
        return str(1 + int(u * n))
    if kind == "over":
        return str(n + 1 + int(u * 9 * low))
    wide = str(low + int(u * (n - low + 1)))
    return {"wide": "", "zero": "0", "zeros": "00"}[kind] + wide


def _text(line, n):
    """A drawn line's text at domain size n; a ``str`` line is its own text."""
    if isinstance(line, str):
        return line
    return "".join(p if isinstance(p, str) else _token_text(p, n) for p in line)


@st.composite
def _line(draw):
    """A line as a tuple of text parts and drawn tokens."""
    kind = draw(st.sampled_from(["record"] * 6 + ["odd", "blank", "comment", "commas"]))
    if kind == "blank":
        body = (draw(st.sampled_from(["", " ", "\t", " \t "])),)
    elif kind == "comment":
        body = (draw(st.sampled_from(["# note", "  #1,2,3", "#"])),)
    elif kind == "commas":
        body = (draw(st.sampled_from([",", " ,, ", ",\t,"])),)
    else:
        tokens = draw(st.lists(_valid, min_size=K, max_size=K))
        if kind == "odd":
            tokens = draw(st.lists(_token, min_size=K - 1, max_size=K + 1))
        separator = draw(_separator)
        body = tuple(p for t in tokens for p in (separator, t))[1:]
        if draw(st.booleans()):
            body = (draw(st.sampled_from([" ", "\t", ","])),) + body
    return body + (draw(_ending),)


# errors and odd lines land in the first block, on a block boundary, or past it
_padding = st.sampled_from(
    [0, 1, RECORD_BLOCK - 2, RECORD_BLOCK - 1, RECORD_BLOCK, RECORD_BLOCK + 3]
)


# n on either side of each change in how deep tokens of n's width are
# read (1, 2, 4, 8 or 16 digits: uint8, int16 to 4 digits, int32 to 8,
# int64 to 16, the per-line parser above), and n whose tokens would wrap
# in the accumulator below theirs
@pytest.mark.parametrize(
    "n", [9, 10, 12, 99, 100, 9_999, 10_000, 99_999, 10**8 - 1, 10**8, 10**9, 10**10 - 1,
          10**16 - 1, 10**16]
)
@given(_padding, st.lists(_line(), max_size=24), st.booleans())
@example(0, ["1 2 1", "1,5,6,7\n"], False)  # a line without a newline, then a digit
@example(RECORD_BLOCK, [f"1,{2**64 + 5},1\n"], False)
@example(0, [f"1,{10**18 + 7},1\n"], False)  # 19 digits, the last 18 of them in range
@example(0, [f"{2**16 + 5} 1 1\n", f"{2**32 + 5} 1 1\n"], False)  # 5 if read in int16, int32
@example(1, [" ,, \n", "1,2,3\n"], False)  # commas alone are no blank line
@example(0, ["1,2,3\n4,5,6\n"], False)  # one line holding a newline is one malformed record
@example(0, ["1 2 3 4\n", "5 6\n"], False)  # as many lines as records, but not one each
@example(0, ["1 2\n", "3 4 5 6\n"], False)
@example(0, ["1 2 3\n", "\t,\n"], False)  # no token, but a comma
@example(0, ["1 2 3\n", ","], True)  # a comma-only last line, no final newline
@example(0, ["1 2 3 \n", "1 2 3\t\n"], False)  # blanks between a k-th token and its newline
@example(0, ["1,2,3\n", "\n", "4,5,6\n"], False)  # a blank line between records
@example(0, ["1 2\n", "3 4 5 6\n", "7 8 9\n"], False)  # k tokens per line on average only
@settings(max_examples=60, deadline=None)
def test_block_parser_agrees_with_line_parser(n, pad, tail, missing_final_newline):
    lines = ["1,2,3\n", f"{n} 1\t4\n", "\n"] * (pad // 3) + ["4,4,4\n"] * (pad % 3)
    lines += [_text(line, n) for line in tail]
    if missing_final_newline and lines:
        lines[-1] = lines[-1].rstrip("\n")
    rows, err = outcome(parse_records(lines, K, n))
    ref_rows, ref_err = outcome(parse_lines(lines, K, n))
    assert err == ref_err
    if err is None:
        assert rows == ref_rows
    else:  # the blocks before the bad one were yielded
        assert rows == ref_rows[: len(rows)]


@pytest.mark.parametrize("buf,lines", [(b"\n", 1), (b" \t\n\n", 2), (b"", 0)])
def test_block_without_tokens(buf, lines):
    block, count = cli._parse_block(buf, K, N)
    assert block.dtype == np.int64 and block.shape == (0, K) and count == lines
    assert cli._parse_block(buf + b",\n", K, N) is None  # a comma is no blank line


def test_plain_blocks_skip_the_line_parser(monkeypatch):
    monkeypatch.setattr(cli, "parse_lines", None)
    lines = ["1,2\n", "\t03 ,, 4\n", "  \n", "", "2 1"] * (RECORD_BLOCK // 2)
    assert parsed(lines, 2, 4) == [(1, 2), (3, 4), (2, 1)] * (RECORD_BLOCK // 2)
    # 16 digits, the deepest the tokenizer reads
    wide = ["1000000000000003 0000000000000007\n", "9999999999999999,1\n"]
    assert parsed(wide, 2, 10**16 - 1) == [(10**15 + 3, 7), (10**16 - 1, 1)]


def _tally_file(path):
    """The frequency table of a k = 2, n = 16 record file, parsed and tallied."""
    with open(path, "rb") as fh:
        return build_frequency_table(TupleStream(2, 16, parse_records(fh, 2, 16)))


def test_block_parser_memory_stays_per_block(tmp_path):
    # 200k records parsed and tallied: temporaries are per block, not per input
    rng = np.random.default_rng(3)
    lines = [f"{a},{b}\n" for a, b in rng.integers(1, 17, (200_000, 2)).tolist()]
    path = tmp_path / "records.txt"
    path.write_text("".join(lines))
    for tally in (
        lambda: build_frequency_table(TupleStream(2, 16, parse_records(lines, 2, 16))),
        lambda: _tally_file(path),
    ):
        tracemalloc.start()
        table = tally()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert table.m == 200_000 and len(table.joint) == 256
        assert peak < 1 << 20


def test_plain_file_blocks_skip_the_line_parser(tmp_path, monkeypatch):
    path = tmp_path / "records.txt"
    path.write_text("1,2\n\t03 ,, 4\n  \n\n2 1\n" * 30_000 + "5,6")  # no final newline
    monkeypatch.setattr(cli, "parse_lines", None)
    assert _tally_file(path).m == 90_001


# bytes the text layer treats specially: line breaks of str.splitlines only,
# a byte-order mark, non-ASCII digits and a byte that is not UTF-8
_odd_bytes = st.sampled_from(
    [b"\x0b", b"\x0c", "\x85".encode(), "\u2028".encode(), "\ufeff".encode(),
     "\u0661".encode(), "\uff13".encode(), b"\xff"]
)


@st.composite
def _raw_line(draw):
    raw = _text(draw(_line()), N).encode("utf-8")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(_odd_bytes) + raw[at:]
    return raw


def text_mode_outcome(raw, path):
    """What the text-mode reference gives on ``raw``: ``parse_lines`` over the
    file opened with encoding="utf-8". Text-mode reading decodes ahead of the
    lines it hands out, so its UnicodeDecodeError is taken in line order: the
    lines before the one holding the first undecodable byte are read as
    text, then that line is the error."""
    try:
        raw.decode("utf-8")
        bad = None
        head = raw
    except UnicodeDecodeError as e:
        bad = e.start
        head = raw[: max(raw.rfind(b"\n", 0, bad), raw.rfind(b"\r", 0, bad)) + 1]
    path.write_bytes(head)
    with open(path, encoding="utf-8") as fh:
        rows, err = outcome(parse_lines(fh, K, N))
    if err is None and bad is not None:
        with open(path, encoding="utf-8") as fh:
            line = 1 + len(fh.readlines())
        err = (MalformedInputError, f"record {line}: invalid UTF-8 byte 0x{raw[bad]:02x}", line)
    return rows, err


@given(st.integers(0, 5), st.lists(_raw_line(), max_size=16), st.booleans())
@example(0, [b"1,2,3\r4,5,6\r5,9,1\n"], False)  # a lone carriage return ends a line
@example(0, [b"1,2,3\n", "\u0661".encode()[:1] + b",1,1\n"], True)  # a cut character
@settings(max_examples=150, deadline=None)
def test_binary_route_agrees_with_text_mode(tmp_path_factory, pad, tail, missing_final_newline):
    raw = b"1,2,3\n" * pad + b"".join(tail)
    if missing_final_newline:
        raw = raw.removesuffix(b"\n")
    base = tmp_path_factory.getbasetemp()
    ref_rows, ref_err = text_mode_outcome(raw, base / "reference.txt")
    path = base / "records.txt"
    path.write_bytes(raw)
    # reads of 1 and 7 bytes cut records, \r\n pairs and multi-byte characters
    for size in (1, 7, 64):
        with mock.patch.object(cli, "READ_BYTES", size), open(path, "rb") as fh:
            rows, err = outcome(parse_records(fh, K, N))
        assert err == ref_err
        if err is None:
            assert rows == ref_rows
        else:  # the buffers before the bad one were yielded
            assert rows == ref_rows[: len(rows)]


def test_sketch_run_does_not_import_numpy_ma():
    # np.median and a plain np.unique import numpy.ma on their first call,
    # which every command-line run would pay for
    code = (
        "import sys; from indisketch import cli; "
        "cli.run(cli.RunConfig(k=3, n=3, mode='sketch', generate='mixture(0.5)', m=200)); "
        "print('numpy.ma' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


class TestGenerateSynthetic:
    def test_diagonal(self):
        recs = list(generate_synthetic("diagonal", 2, 2, 10, seed=0))
        assert len(recs) == 10
        assert all(r[0] == r[1] for r in recs)

    def test_independent_distance_shrinks(self):
        recs = list(generate_synthetic("independent", 2, 4, 10_000, seed=1))
        t = build_frequency_table(TupleStream(2, 4, recs))
        assert float(exact_statistical_distance(t)) < 0.1

    def test_full_mixture_is_diagonal(self):
        a = list(generate_synthetic("mixture(1.0)", 2, 3, 25, seed=5))
        assert all(r[0] == r[1] for r in a)

    def test_deterministic_under_seed(self):
        a = list(generate_synthetic("mixture(0.5)", 3, 4, 50, seed=9))
        b = list(generate_synthetic("mixture(0.5)", 3, 4, 50, seed=9))
        assert a == b

    def test_bad_rho(self):
        from indisketch.errors import ConfigurationError

        gen = generate_synthetic("mixture(1.5)", 2, 2, 5, seed=0)  # lazy: nothing drawn yet
        with pytest.raises(ConfigurationError):
            next(gen)

    def test_generator_spec(self):
        assert cli.generator_spec("independent") == ("independent", 0.5)
        assert cli.generator_spec("mixture") == ("mixture", 0.5)
        assert cli.generator_spec("mixture(0.25)") == ("mixture", 0.25)

    @pytest.mark.parametrize(
        "spec",
        ["mixture(1.5)", "mixture(x)", "mixture(0.5", "mixture(0.5)x", "diagonal(0.5)", "mix"],
    )
    def test_bad_spec_rejected_before_the_plan(self, spec, monkeypatch):
        def no_plan(*_args):
            raise AssertionError("the plan was built before the spec was checked")

        monkeypatch.setattr(estimator, "_build_reduce_plan", no_plan)
        with pytest.raises(ConfigurationError):
            run(RunConfig(k=3, n=4, mode="sketch", generate=spec, m=10))

    @pytest.mark.parametrize("kind", ["mixture(0.3)", "independent", "diagonal"])
    def test_blocks_replay_per_record_draws(self, kind, monkeypatch):
        # blocks of 7 records, the last one partial, against the per-record definition
        monkeypatch.setattr(cli, "FOLD_BLOCK", 21)
        k, n, m, seed = 3, 5, 40, -4
        key = derive_key(seed, 0x6E0)

        def draw(*parts):
            return min(n, 1 + int(float(counter_uniform(derive_key(key, *parts), 0)) * n))

        expected = []
        for i in range(m):
            if kind == "mixture(0.3)":
                diag = float(counter_uniform(derive_key(key, i, 0xD0), 0)) < 0.3
            else:
                diag = kind == "diagonal"
            coords = [draw(i, 0xD1)] * k if diag else [draw(i, 0xD2, j) for j in range(k)]
            expected.append(tuple(coords))
        assert list(generate_synthetic(kind, k, n, m, seed)) == expected


class TestCountingReader:
    def test_counts_and_single_traversal(self):
        block = np.array([[1, 2], [2, 1], [2, 2]])
        r = CountingReader([(1, 1), block, (2, 2)])
        items = list(r)
        assert items[0] == (1, 1) and items[1] is block and items[2] == (2, 2)
        assert r.records_read == 5 and r.traversals == 1
        with pytest.raises(RuntimeError):
            list(r)


class TestRun:
    def test_both_mode_reports_exact_and_estimate(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("".join("1,1\n2,2\n" for _ in range(50)))
        cfg = RunConfig(k=2, n=2, mode="both", seed=4, input_path=str(path))
        rep = run(cfg)
        assert rep.exact_distance == pytest.approx(0.5)
        assert abs(rep.distance_estimate - 0.5) <= 0.3 * 0.5
        assert rep.diagnostics["records_read"] == 100

    def test_exact_mode_from_stdin(self):
        import io

        cfg = RunConfig(k=2, n=2, mode="exact", input_path="-")
        rep = run(cfg, stdin=io.StringIO("1,1\n2,2\n"))
        assert rep.exact_distance == pytest.approx(0.5)
        assert rep.mode == "exact"

    def test_sketch_mode_single_pass(self):
        cfg = RunConfig(k=2, n=4, mode="sketch", seed=1, generate="diagonal", m=200)
        rep = run(cfg)
        assert rep.diagnostics["reader_traversals"] == 1
        assert rep.diagnostics["records_read"] == 200 == rep.m

    @pytest.mark.parametrize("mode", ["exact", "sketch", "both"])
    def test_generated_records_reach_the_pass_as_blocks(self, mode, monkeypatch):
        """A generated stream is drawn as int64 blocks and counted as such:
        no record becomes a tuple to be batched back into an array."""

        def batched(records, *args):
            raise AssertionError(f"{len(records)} generated records were batched as tuples")

        monkeypatch.setattr(stream_mod, "_record_batch", batched)
        rep = run(RunConfig(k=3, n=4, mode=mode, seed=1, generate="mixture(0.5)", m=30_000))
        assert rep.m == rep.diagnostics["records_read"] == 30_000

    @pytest.mark.parametrize("k,n", [(2, 8), (3, 4)])
    def test_both_mode_is_the_exact_and_sketch_runs(self, k, n, tmp_path):
        path = tmp_path / "in.txt"
        recs = generate_synthetic("mixture(0.5)", k, n, 300, seed=k)
        path.write_text("".join(",".join(map(str, r)) + "\n" for r in recs))
        exact, sketch, both = (
            run(RunConfig(k=k, n=n, mode=mode, seed=3, input_path=str(path)))
            for mode in ("exact", "sketch", "both")
        )
        assert both.exact_distance.hex() == exact.exact_distance.hex()
        assert both.distance_estimate.hex() == sketch.distance_estimate.hex()
        norm = "tensor_norm_estimate"
        assert both.diagnostics[norm].hex() == sketch.diagnostics[norm].hex()

    def test_both_mode_reads_each_record_once(self, monkeypatch):
        """200k records at k = 2, n = 16: the oracle's tally counts each
        block as the sketch's pass pulls it, so the reader is traversed once
        and no list of the records is held (a traced peak of 15.3 MiB when
        one was)."""
        readers = []

        class Reader(CountingReader):
            def __init__(self, records):
                super().__init__(records)
                readers.append(self)

        monkeypatch.setattr(cli, "CountingReader", Reader)
        cfg = RunConfig(k=2, n=16, mode="both", seed=1, generate="mixture(0.5)", m=200_000)
        tracemalloc.start()
        rep = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert rep.m == rep.diagnostics["records_read"] == 200_000
        assert [r.traversals for r in readers] == [1]
        assert peak < 8 << 20

    def test_reports_identical_for_identical_inputs(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("1,1\n2,2\n1,2\n" * 30)
        cfg = dict(k=2, n=2, mode="both", seed=11, input_path=str(path), overrides={})
        a = run(RunConfig(**cfg)).to_json()
        b = run(RunConfig(**cfg)).to_json()
        assert a == b


class TestMain:
    def test_exact_empty_input_exit(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        code = main(["--k", "2", "--n", "2", "--mode", "exact", "--input", str(path)])
        assert code == EXIT_INPUT

    def test_malformed_input_exit(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,1\n1,9\n")
        code = main(["--k", "2", "--n", "2", "--mode", "exact", "--input", str(path)])
        assert code == EXIT_INPUT

    def test_missing_file_exit(self, tmp_path):
        code = main(
            ["--k", "2", "--n", "2", "--mode", "exact",
             "--input", str(tmp_path / "absent.txt")]
        )
        assert code == EXIT_INPUT

    @staticmethod
    def _input_argv(raw, via, tmp_path, monkeypatch):
        """``--input`` naming a file that holds ``raw``, or ``-`` with ``raw`` on
        stdin: a text stream over bytes, or with ``via == "text"`` an
        ``io.StringIO``, which has no byte layer."""
        if via == "file":
            path = tmp_path / "in.txt"
            path.write_bytes(raw)
            return ["--input", str(path)]
        if via == "text":
            stdin = io.StringIO(raw.decode("utf-8"), newline=None)
        else:
            stdin = io.TextIOWrapper(io.BytesIO(raw))
        monkeypatch.setattr(sys, "stdin", stdin)
        return ["--input", "-"]

    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_invalid_utf8_exit(self, via, tmp_path, monkeypatch, capsys):
        argv = self._input_argv(b"1,2\n\xff\xfe,3\n", via, tmp_path, monkeypatch)
        assert main(["--k", "2", "--n", "4", *argv]) == EXIT_INPUT
        assert capsys.readouterr().err == "input error: record 2: invalid UTF-8 byte 0xff\n"

    @pytest.mark.parametrize("via", ["file", "stdin", "text"])
    def test_records_read_as_bytes(self, via, tmp_path, monkeypatch, capsys):
        raw = b"# pairs\r\n1,1\r\n2 2\n\n1,1"
        argv = self._input_argv(raw, via, tmp_path, monkeypatch)
        assert main(["--k", "2", "--n", "2", *argv]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["m"] == 3 and out["exact_distance"] == pytest.approx(4 / 9)

    def test_bad_configuration_exit(self):
        code = main(["--k", "1", "--n", "2", "--generate", "diagonal", "--m", "5"])
        assert code == EXIT_CONFIG

    def test_generate_without_m_exit(self, capsys):
        assert main(["--k", "2", "--n", "2", "--generate", "diagonal"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error: --generate requires --m >= 1\n"

    def test_flags_set_run_config_fields(self):
        # an unset flag is left out, so the RunConfig default applies
        parser = cli.build_parser()
        assert vars(parser.parse_args(["--k", "2", "--n", "3"])) == {"k": 2, "n": 3}
        every = parser.parse_args(
            ["--input", "x", "--k", "2", "--n", "3", "--epsilon", "0.2", "--delta", "0.2",
             "--mode", "both", "--seed", "1", "--format", "tsv", "--override", "rho=2",
             "--generate", "diagonal", "--m", "5"]
        )
        assert set(vars(every)) == {f.name for f in dataclasses.fields(RunConfig)}

    def test_bad_override_exit(self):
        code = main(
            ["--k", "2", "--n", "2", "--generate", "diagonal", "--m", "5",
             "--mode", "sketch", "--override", "bogus=1"]
        )
        assert code == EXIT_CONFIG

    def test_override_without_equals_exit(self, capsys):
        code = main(
            ["--k", "2", "--n", "2", "--generate", "diagonal", "--m", "5",
             "--mode", "sketch", "--override", "rounds2"]
        )
        assert code == EXIT_CONFIG
        assert "'rounds2' is not KEY=VALUE" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override,message",
        [
            ("rounds=0", "rounds must be >= 1"),
            ("amplification=0", "amplification must be >= 1"),
            ("omega=0", "omega must be positive"),
            ("omega=-2.5", "omega must be positive"),
            ("omega=nan", "omega must be positive"),
            ("beta=nan", "beta must be finite and >= 1"),
            ("beta=inf", "beta must be finite and >= 1"),
            ("cover_epsilon=0", "cover_epsilon must lie in (0, 1)"),
            ("cover_epsilon=-1", "cover_epsilon must lie in (0, 1)"),
            ("cover_epsilon=nan", "cover_epsilon must lie in (0, 1)"),
            ("cover_epsilon=2", "cover_epsilon must lie in (0, 1)"),
            ("omega=inf", "omega must be finite"),
            ("value_bound=1", "unknown override key 'value_bound'"),
            ("rho_cap=5", "unknown override key 'rho_cap'"),
            ("max_chunk=0", "unknown override key 'max_chunk'"),
        ],
    )
    def test_override_that_would_zero_the_estimate_exit(self, override, message, capsys):
        code = main(
            ["--k", "2", "--n", "2", "--generate", "diagonal", "--m", "40",
             "--mode", "sketch", "--override", override]
        )
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {message}\n"

    def test_override_keys_are_the_estimator_fields(self):
        # the CLI takes its keys and types from EstimatorOverrides alone
        hints = typing.get_type_hints(EstimatorOverrides)
        names = [f.name for f in dataclasses.fields(EstimatorOverrides)]
        for name in names:
            value = getattr(cli.parse_overrides({name: "2"}), name)
            assert value == 2 and isinstance(value, hints[name])
        ov = cli.parse_overrides({"beta": "2", "rounds": "2"})
        assert type(ov.beta) is float and ov.beta == 2.0
        assert type(ov.rounds) is int and ov.rounds == 2
        with pytest.raises(ConfigurationError, match="bad value for override rounds: '2.5'"):
            cli.parse_overrides({"rounds": "2.5"})
        help_text = " ".join(cli.build_parser().format_help().split())
        listed = help_text.split("estimator override (repeatable): ")[1]
        assert listed.startswith(", ".join(names) + " ")

    def test_budget_exit(self):
        code = main(
            ["--k", "2", "--n", "8192", "--generate", "diagonal", "--m", "5",
             "--mode", "both"]
        )
        assert code == EXIT_BUDGET

    def test_json_output(self, capsys):
        code = main(
            ["--k", "2", "--n", "2", "--generate", "diagonal", "--m", "20",
             "--mode", "exact"]
        )
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "exact"
        assert out["m"] == 20
        assert 0.0 <= out["distance_estimate"] <= 1.0

    def test_tsv_output(self, capsys):
        code = main(
            ["--k", "2", "--n", "2", "--generate", "diagonal", "--m", "10",
             "--mode", "exact", "--format", "tsv"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert any(line.startswith("distance_estimate\t") for line in lines)

    def test_identical_invocations_byte_identical(self, capsys):
        argv = ["--k", "2", "--n", "4", "--generate", "mixture(0.5)", "--m", "120",
                "--mode", "sketch", "--seed", "13",
                "--override", "amplification=1"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second

    def test_overrides_land_in_diagnostics(self, capsys):
        argv = ["--k", "2", "--n", "4", "--generate", "diagonal", "--m", "60",
                "--mode", "sketch", "--seed", "3",
                "--override", "rounds=2", "--override", "amplification=1"]
        assert main(argv) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["diagnostics"]["rounds"] == 2
        assert out["diagnostics"]["amplification"] == 1
