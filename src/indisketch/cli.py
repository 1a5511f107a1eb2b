"""Batch command-line front end.

Reads k-tuple records (one per line, integers separated by commas or
whitespace, '#' comments allowed), or generates synthetic streams, and
reports the exact and/or sketched statistical distance as JSON or TSV.

Exit codes: 0 success, 1 input error, 2 configuration error, 3 budget
error, 4 internal error. Identical (input, configuration, seed) produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import asdict, dataclass, field, fields
from itertools import islice
from typing import (
    IO, BinaryIO, Dict, Iterable, Iterator, List, Optional, Tuple, Union, get_args, get_type_hints
)

import numpy as np

from .errors import (
    BudgetExceededError,
    ConfigurationError,
    EmptyStreamError,
    IndisketchError,
    MalformedInputError,
)
from .estimator import EstimatorOverrides, StreamDistanceEstimator
from .hashing import FOLD_BLOCK, counter_uniform, derive_key
from .stream import (
    MODES,
    RECORD_BLOCK,
    EstimateReport,
    TupleKey,
    TupleStream,
    TupleTally,
    build_frequency_table,
    checked_count,
    checked_domain,
    checked_unit,
    exact_statistical_distance,
    frequency_table,
    record_blocks,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

DENSE_MODE_BUDGET = 2**24
FORMATS = ("json", "tsv")
GENERATORS = ("independent", "diagonal", "mixture")


@dataclass
class RunConfig:
    """The settings of one run, declared and defaulted here only: the command
    line's flags set these fields, and a report's ``config`` echoes them."""

    k: int
    n: int
    epsilon: float = 0.3
    delta: float = 0.1
    mode: str = "exact"
    seed: int = 0
    input_path: Optional[str] = None
    output_format: str = "json"
    generate: Optional[str] = None
    m: Optional[int] = None
    overrides: Dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
        """Check every setting before any work; integral k, n, m and seed become ints."""
        self.k, self.n = checked_domain(self.k, self.n)
        self.seed = checked_count("seed", self.seed, least=None)
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}")
        if self.mode != "exact":
            checked_unit("epsilon", self.epsilon)
            checked_unit("delta", self.delta)
        if self.output_format not in FORMATS:
            raise ConfigurationError(f"unknown format {self.output_format!r}")
        if self.mode == "both" and self.n**self.k > DENSE_MODE_BUDGET:
            raise BudgetExceededError(
                f"mode=both requires n^k <= {DENSE_MODE_BUDGET}, got {self.n ** self.k}"
            )
        if self.generate is not None:
            generator_spec(self.generate)
            if self.m is None:
                raise ConfigurationError("--generate requires --m >= 1")
            self.m = checked_count("m", self.m)


class CountingReader:
    """Wraps a record iterator; counts records and forbids a second traversal.

    Items are single records or 2-D record blocks, which count one per row.
    """

    def __init__(self, records: Iterable):
        self._it = iter(records)
        self.records_read = 0
        self.traversals = 0
        self._consumed = False

    def __iter__(self) -> Iterator:
        if self._consumed:
            raise RuntimeError("single-pass reader was traversed twice")
        self._consumed = True
        self.traversals += 1
        for rec in self._it:
            is_block = isinstance(rec, np.ndarray) and rec.ndim == 2
            self.records_read += len(rec) if is_block else 1
            yield rec


def parse_lines(lines: Iterable[str], k: int, n: int, first: int = 1) -> Iterator[TupleKey]:
    """Parse text records one line at a time, numbering lines from ``first``.

    The reference parser: ``parse_records`` gives the same records and
    errors in blocks.
    """
    for lineno, line in enumerate(lines, start=first):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        tokens = body.replace(",", " ").split()
        if len(tokens) != k:
            raise MalformedInputError(
                f"expected {k} values, got {len(tokens)}", index=lineno
            )
        out: List[int] = []
        for tok in tokens:
            try:
                v = int(tok)
            except ValueError:
                raise MalformedInputError(
                    f"non-integer token {tok!r}", index=lineno
                ) from None
            if not 1 <= v <= n:
                raise MalformedInputError(
                    f"value {v} outside [1, {n}]", index=lineno
                )
            out.append(v)
        yield tuple(out)


_POW10 = 10 ** np.arange(18, dtype=np.int64)  # up to the longest token an int64 holds

# Binary sources are read this many bytes at a time; each read is cut after
# its last newline and the rest is carried into the next buffer.
READ_BYTES = 1 << 14


def _parse_block(buf: bytes, k: int, n: int) -> Optional[Tuple[np.ndarray, int]]:
    """The records of ``buf``, whole newline-terminated lines, as a (b, k)
    int64 array with the number of lines, or None when the buffer holds
    anything but valid records of ASCII digits, spaces, tabs, commas and
    newlines (which the per-line parser then handles)."""
    if buf.translate(None, b"0123456789 \t\n,"):
        return None
    data = np.frombuffer(buf, dtype=np.uint8)
    digit = data - 48  # wraps to 10 or more at every byte but a digit
    is_digit = digit < 10
    # digit runs are the tokens; edges marks the first byte of each run and
    # the byte after it (the buffer ends in a newline, so every run ends)
    edges = is_digit.copy()
    edges[1:] ^= is_digit[:-1]
    starts, ends = np.flatnonzero(edges).reshape(-1, 2).T
    lines = int(np.count_nonzero(data == 10))
    # k tokens per newline with a newline right after every k-th token put k
    # on each line; else lines are counted, and one without k holds no token or comma
    if len(starts) != k * lines or not (data[ends[k - 1 :: k]] == 10).all():
        newlines = np.flatnonzero(data == 10)
        tokens = np.diff(np.searchsorted(starts, newlines), prepend=0)
        if not (tokens == k).all():
            commas = np.diff(np.searchsorted(np.flatnonzero(data == 44), newlines), prepend=0)
            if not ((tokens == k) | ((tokens == 0) & (commas == 0))).all():
                return None
    longest = int((ends - starts).max(initial=0))
    # digit j of each token from its end; a shorter token reads the byte
    # before it, a separator or (at offset 0) the final newline, both 0
    digit *= is_digit
    values = digit[ends - 1].astype(np.int64)
    for j in range(1, min(longest, len(_POW10))):
        at = digit[np.maximum(ends - 1 - j, starts - 1)]
        values += np.multiply(at, _POW10[j], dtype=np.int64)  # numpy 1 would keep uint8
    if longest > len(_POW10) or len(values) and (values.min() < 1 or values.max() > n):
        return None
    return values.reshape(-1, k), lines


def _text_lines(buf: bytes) -> Tuple[List[str], Optional[str]]:
    """The lines of ``buf`` as text-mode reading gives them: decoded as
    UTF-8 and split at universal newlines (``\\n``, ``\\r\\n`` or a lone
    ``\\r``; never ``str.splitlines``, which also splits at ``\\x0b``,
    ``\\x85`` and more). Undecodable input ends the lines before the line
    that holds it, and comes with a message naming the byte."""
    try:
        return io.StringIO(buf.decode("utf-8"), newline=None).readlines(), None
    except UnicodeDecodeError as e:
        lines = io.StringIO(buf[: e.start].decode("utf-8"), newline=None).readlines()
        if lines and not lines[-1].endswith("\n"):
            lines.pop()  # the start of the line holding the bad byte
        return lines, f"invalid UTF-8 byte 0x{buf[e.start]:02x}"


def _byte_buffers(stream: BinaryIO) -> Iterator[Tuple[bytes, None]]:
    """Whole lines of a binary stream, about ``READ_BYTES`` at a time, each
    buffer with no line list; a last line without a newline gets one."""
    pending: List[bytes] = []
    while True:
        data = stream.read(READ_BYTES)
        if not data:
            break
        cut = data.rfind(b"\n") + 1
        if cut:
            pending.append(data[:cut])
            yield b"".join(pending), None
            pending = [data[cut:]]
        else:
            pending.append(data)
    tail = b"".join(pending)
    if tail:
        yield tail + b"\n", None


def _str_buffers(lines: Iterable[str]) -> Iterator[Tuple[bytes, List[str]]]:
    """Chunks of ``RECORD_BLOCK`` lines, each with its lines joined into one
    buffer, every line ending in a newline."""
    it = iter(lines)
    while True:
        chunk = list(islice(it, RECORD_BLOCK))
        if not chunk:
            return
        text = "".join(s if s.endswith("\n") else s + "\n" for s in chunk)
        yield text.encode("utf-8", "surrogatepass"), chunk


def parse_records(
    source: Union[BinaryIO, Iterable[str]], k: int, n: int
) -> Iterator[np.ndarray]:
    """Parse text records into validated (b, k) int64 blocks.

    ``source`` is a binary stream, read to its end in buffers of about
    ``READ_BYTES`` whole lines, or any iterable of ``str`` lines, taken
    ``RECORD_BLOCK`` lines to a buffer. A buffer of plain records is
    tokenized at once. Any other buffer (comments, signs, carriage returns,
    non-ASCII digits, over-long tokens or any error) goes through
    ``parse_lines``: a binary one split into lines as text-mode reading
    splits it, and a line list as given. So records and errors, with their
    absolute line numbers, are the same either way. Invalid UTF-8 in a
    binary stream is a ``MalformedInputError`` naming its line.
    """
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        buffers: Iterator[Tuple[bytes, Optional[List[str]]]] = _byte_buffers(source)
    else:
        buffers = _str_buffers(source)
    first = 1
    for buf, chunk in buffers:
        parsed = _parse_block(buf, k, n)
        # a line list with more newlines than lines has a line holding one
        if parsed is None or (chunk is not None and parsed[1] != len(chunk)):
            undecodable = None
            if chunk is None:
                chunk, undecodable = _text_lines(buf)
            rows = list(parse_lines(chunk, k, n, first))
            if undecodable is not None:
                raise MalformedInputError(undecodable, index=first + len(chunk))
            parsed = np.array(rows, dtype=np.int64).reshape(len(rows), k), len(chunk)
        block, count = parsed
        if len(block):
            yield block
        first += count


def generator_spec(spec: str) -> Tuple[str, float]:
    """(kind, rho) of ``independent``, ``diagonal``, ``mixture`` (rho 0.5) or
    ``mixture(RHO)``, RHO in [0, 1]; ConfigurationError for any other spec."""
    kind, paren, arg = spec.partition("(")
    if kind not in GENERATORS or (paren and kind != "mixture"):
        raise ConfigurationError(f"unknown generator kind {spec!r}")
    rho = 0.5
    if paren:
        try:
            if not arg.endswith(")"):
                raise ValueError(arg)
            rho = float(arg[:-1])
        except ValueError:
            raise ConfigurationError(f"cannot parse mixture kind {spec!r}") from None
    if not 0.0 <= rho <= 1.0:
        raise ConfigurationError("mixture rho must lie in [0, 1]")
    return kind, rho


def generate_synthetic(kind: str, k: int, n: int, m: int, seed: int) -> Iterator[TupleKey]:
    """Deterministic synthetic streams, checked at the first draw.

    independent: coordinates i.i.d. uniform on [1, n]; diagonal: constant
    tuples (i, ..., i) with i uniform; mixture(rho): each tuple diagonal
    with probability rho, otherwise independent; a bare mixture is
    mixture(0.5).
    """
    k, n = checked_domain(k, n)
    m = checked_count("m", m)
    kind, mixture_rho = generator_spec(kind)
    key = derive_key(seed, 0x6E0)

    def draw(i, *parts):
        """1 + floor(u * n), clamped to n, from the counter uniform of (key, i, parts)."""
        u = counter_uniform(derive_key(key, i, *parts), 0)
        return np.minimum(1 + (u * n).astype(np.int64), n)

    step = max(1, FOLD_BLOCK // k)
    for start in range(0, m, step):
        i = np.arange(start, min(start + step, m), dtype=np.uint64)
        if kind == "mixture":
            diag = counter_uniform(derive_key(key, i, 0xD0), 0) < mixture_rho
        else:
            diag = np.full(i.shape, kind == "diagonal")
        coords = np.empty((i.shape[0], k), dtype=np.int64)
        coords[diag] = draw(i[diag], 0xD1)[:, None]
        coords[~diag] = draw(i[~diag, None], 0xD2, np.arange(k, dtype=np.uint64))
        yield from map(tuple, coords.tolist())


def _split_override(pair: str) -> Tuple[str, str]:
    """One ``KEY=VALUE`` command-line pair as (key, value)."""
    if "=" not in pair:
        raise ConfigurationError(f"override {pair!r} is not KEY=VALUE")
    key, value = pair.split("=", 1)
    return key.strip(), value


def parse_overrides(values: Dict[str, str]) -> EstimatorOverrides:
    """Typed estimator overrides from their key -> value strings. The keys
    are the fields of ``EstimatorOverrides``, each parsed as the type it
    declares (``T`` of an ``Optional[T]``)."""
    names = {f.name for f in fields(EstimatorOverrides)}
    ov = EstimatorOverrides()
    for key, value in sorted(values.items()):
        if key not in names:
            raise ConfigurationError(f"unknown override key {key!r}")
        hint = get_type_hints(EstimatorOverrides)[key]  # per key: a run without overrides skips it
        parse = next(t for t in get_args(hint) or (hint,) if t is not type(None))
        try:
            ov = ov.replace(**{key: parse(value)})
        except ValueError:
            raise ConfigurationError(f"bad value for override {key}: {value!r}") from None
    return ov


def _file_records(path: str, k: int, n: int) -> Iterator[np.ndarray]:
    """The records of a file, opened at the first pull and closed at the end."""
    with open(path, "rb") as fh:
        yield from parse_records(fh, k, n)


def _tallied(blocks: Iterable[np.ndarray], tally: TupleTally) -> Iterator[np.ndarray]:
    """``blocks``, each counted into ``tally`` as it is pulled."""
    for block in blocks:
        tally.add(block)
        yield block


def run(cfg: RunConfig, stdin: Optional[IO] = None) -> EstimateReport:
    """Execute one run and return the report (raises on errors)."""
    cfg.validate()
    overrides = parse_overrides(cfg.overrides)

    if cfg.generate is not None:
        records: Iterable = generate_synthetic(cfg.generate, cfg.k, cfg.n, cfg.m, cfg.seed)
    else:
        if cfg.input_path in (None, "-"):
            # a stdin without a byte layer gives str lines, which parse_records also takes
            source = stdin if stdin is not None else getattr(sys.stdin, "buffer", sys.stdin)
            records = parse_records(source, cfg.k, cfg.n)
        else:
            records = _file_records(cfg.input_path, cfg.k, cfg.n)

    reader = CountingReader(records)
    diagnostics: Dict[str, object] = {"config": _config_dict(cfg)}

    if cfg.mode == "exact":
        table = build_frequency_table(TupleStream(cfg.k, cfg.n, reader))
        if table.m == 0:
            raise EmptyStreamError("input stream is empty")
        exact = exact_statistical_distance(table)
        diagnostics["records_read"] = reader.records_read
        return EstimateReport(
            distance_estimate=float(exact),
            exact_distance=float(exact),
            m=table.m,
            n=cfg.n,
            k=cfg.k,
            mode="exact",
            seed=cfg.seed,
            diagnostics=diagnostics,
        )

    est = StreamDistanceEstimator(
        cfg.k, cfg.n, cfg.epsilon, cfg.delta, seed=cfg.seed, overrides=overrides
    )
    # both: the sketch's one pass, each validated block also counted into the oracle's tally
    tally = TupleTally(cfg.k, cfg.n) if cfg.mode == "both" else None
    est.consume(reader if tally is None else _tallied(record_blocks(reader, cfg.k, cfg.n), tally))
    if est.m_seen == 0:
        raise EmptyStreamError("input stream is empty")
    diagnostics["records_read"] = reader.records_read
    if tally is None:
        diagnostics["reader_traversals"] = reader.traversals
        return est.report(diagnostics)
    exact = exact_statistical_distance(frequency_table(tally))
    return est.report(diagnostics, exact_distance=float(exact))


def _config_dict(cfg: RunConfig) -> Dict[str, object]:
    """The settings as a report shows them: ``input_path`` as ``input``, no format."""
    d = asdict(cfg)
    d["input"] = d.pop("input_path")
    del d["output_format"]
    return d


def format_report(report: EstimateReport, fmt: str) -> str:
    if fmt == "json":
        return report.to_json()
    rows = []
    d = report.to_dict()
    diagnostics = d.pop("diagnostics")
    for key in sorted(d):
        rows.append(f"{key}\t{d[key]}")
    for key in sorted(diagnostics):
        rows.append(f"diagnostics.{key}\t{json.dumps(diagnostics[key], sort_keys=True)}")
    return "\n".join(rows)


def build_parser() -> argparse.ArgumentParser:
    """The command line; each flag's dest is a ``RunConfig`` field, and an
    unset flag is left out, so the field's default applies."""
    p = argparse.ArgumentParser(
        prog="indisketch",
        description="Estimate the statistical distance between the joint and "
        "product distributions of a stream of k-tuples.",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument(
        "--input", dest="input_path", metavar="INPUT", help="record file, or '-' for stdin"
    )
    p.add_argument("--k", type=int, required=True, help="tuple arity (>= 2)")
    p.add_argument("--n", type=int, required=True, help="domain size per coordinate")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", dest="output_format", choices=FORMATS)
    p.add_argument(
        "--override",
        dest="overrides",
        action="append",
        metavar="KEY=VALUE",
        help="estimator override (repeatable): "
        + ", ".join(f.name for f in fields(EstimatorOverrides)),
    )
    p.add_argument("--generate", help="synthesize the input: independent | diagonal | mixture(RHO)")
    p.add_argument("--m", type=int, help="length of a generated stream")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = vars(build_parser().parse_args(argv))
    try:
        args["overrides"] = dict(map(_split_override, args.get("overrides", ())))
        cfg = RunConfig(**args)
        report = run(cfg)
    except (MalformedInputError, EmptyStreamError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as e:
        print(f"budget error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ConfigurationError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except IndisketchError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    print(format_report(report, cfg.output_format))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
