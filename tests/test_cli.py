"""Record parsing, synthetic generators and the command-line front end."""

import json

import pytest

from indisketch import (
    MalformedInputError,
    TupleStream,
    build_frequency_table,
    exact_statistical_distance,
    generate_synthetic,
    parse_records,
)
from indisketch import cli
from indisketch.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    CountingReader,
    RunConfig,
    main,
    run,
)
from indisketch.hashing import counter_uniform, derive_key


class TestParseRecords:
    def test_comma_separated(self):
        assert list(parse_records(["1,1", "2,2"], 2, 2)) == [(1, 1), (2, 2)]

    def test_whitespace_and_comments(self):
        lines = ["1 1", "# comment", "", "2 2"]
        assert list(parse_records(lines, 2, 2)) == [(1, 1), (2, 2)]

    def test_arity_error_names_line(self):
        with pytest.raises(MalformedInputError) as err:
            list(parse_records(["1,2,3"], 2, 4))
        assert "record 1" in str(err.value)

    def test_non_integer_token(self):
        with pytest.raises(MalformedInputError) as err:
            list(parse_records(["1,1", "1,x"], 2, 2))
        assert "record 2" in str(err.value)

    def test_out_of_range(self):
        with pytest.raises(MalformedInputError):
            list(parse_records(["1,5"], 2, 4))


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
        r = CountingReader([(1, 1), (2, 2)])
        assert list(r) == [(1, 1), (2, 2)]
        assert r.records_read == 2 and r.traversals == 1
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

    def test_bad_configuration_exit(self):
        code = main(["--k", "1", "--n", "2", "--generate", "diagonal", "--m", "5"])
        assert code == EXIT_CONFIG

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
