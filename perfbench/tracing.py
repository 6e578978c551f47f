"""Per-layer tracing of one in-process CLI session, and primitive
micro-timings.

The traced run calls the CLI path itself (``cli.parse_args`` then
``cli.main``) with the public functions of each ``duplexqkd`` module
temporarily replaced by timing wrappers.  Nothing under ``src/`` changes;
every wrapper is removed when the run ends.

Each wrapped call is one span: name, start, end and parent (the enclosing
span).  Spans inside one pair carry that pair's index.  Spans are folded into
per-name aggregates as they close (count, total time, self time, pairs
touched), so memory stays bounded however long the session is.  A span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import statistics
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = ["Tracer", "instrumented", "layer_metrics", "micro_timings", "timed_session", "traced_session"]


@dataclass
class SpanStats:
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0
    pairs: int = 0
    last_pair: int | None = None
    parents: dict = field(default_factory=dict)


class Tracer:
    """Collects spans around wrapped callables."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        # One [name, child_ns] frame per open span.
        self._stack: list[list] = []
        self.pair: int | None = None

    def wrap(self, name: str, fn, pair_arg: int | None = None):
        """Return ``fn`` wrapped in a span called ``name``.  With
        ``pair_arg``, that positional argument is the pair index the span
        (and everything under it) belongs to."""
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if pair_arg is not None:
                self.pair = args[pair_arg]
            frame = [name, 0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats.count += 1
                stats.total_ns += duration
                stats.self_ns += duration - frame[1]
                stats.parents[parent] = stats.parents.get(parent, 0) + 1
                if self.pair is not None and self.pair != stats.last_pair:
                    stats.pairs += 1
                    stats.last_pair = self.pair
                if stack:
                    stack[-1][1] += duration
                if pair_arg is not None:
                    self.pair = None

        return traced

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def dump(self) -> dict:
        """Aggregated spans as plain data (times in µs)."""
        return {
            name: {
                "count": s.count,
                "total_us": s.total_ns / 1e3,
                "self_us": s.self_ns / 1e3,
                "pairs": s.pairs,
                "parents": {str(p): n for p, n in s.parents.items()},
            }
            for name, s in sorted(self.stats.items())
        }


@contextmanager
def _patched(target, attr: str, value):
    original = getattr(target, attr)
    setattr(target, attr, value)
    try:
        yield
    finally:
        setattr(target, attr, original)


@contextmanager
def instrumented(tracer: Tracer):
    """Install span wrappers on every module boundary the CLI path crosses."""
    from contextlib import ExitStack

    from duplexqkd import attacks, cli, fourstate, protocol

    real_run_session = protocol.run_session
    real_build_report = cli.build_report

    def run_session(config, adversary=None):
        # The attack layer is built here, wrapped, and handed to the session
        # so its entry points are spans too.
        if adversary is None:
            adversary = attacks.build_adversary(config.attack)
        if adversary is not None:
            for method in ("relay_qubit", "hear", "end_pair"):
                setattr(adversary, method, tracer.wrap(f"attacks.{method}", getattr(adversary, method)))
        return real_run_session(config, adversary)

    def build_report(records, config):
        report = real_build_report(records, config)
        report.to_dict = tracer.wrap("analysis.to_dict", report.to_dict)
        return report

    json_shim = types.SimpleNamespace(dumps=tracer.wrap("analysis.json_dumps", json.dumps))

    with ExitStack() as stack:
        for target, attr, value in (
            (cli, "main", tracer.wrap("cli.main", cli.main)),
            (cli, "run_session", tracer.wrap("protocol.run_session", run_session)),
            (cli, "build_report", tracer.wrap("analysis.build_report", build_report)),
            (cli, "records_to_csv", tracer.wrap("cli.records_to_csv", cli.records_to_csv)),
            (cli, "_atomic_write", tracer.wrap("cli.write", cli._atomic_write)),
            (cli, "json", json_shim),
            (protocol, "run_pair", tracer.wrap("protocol.run_pair", protocol.run_pair, pair_arg=2)),
            (
                fourstate,
                "run_modified_pair",
                tracer.wrap("fourstate.run_modified_pair", fourstate.run_modified_pair, pair_arg=2),
            ),
            (protocol, "measure_qubit", tracer.wrap("quantum.measure_qubit", protocol.measure_qubit)),
            (protocol, "bell_measure", tracer.wrap("quantum.bell_measure", protocol.bell_measure)),
            (protocol, "tensor", tracer.wrap("quantum.tensor", protocol.tensor)),
        ):
            stack.enter_context(_patched(target, attr, value))
        yield


def timed_session(argv: list[str]) -> tuple[float, int]:
    """Untraced in-process CLI session; returns (wall s, exit code)."""
    from duplexqkd import cli

    spec = cli.parse_args(argv)
    start = time.perf_counter()
    code = cli.main(spec)
    return time.perf_counter() - start, code


def traced_session(argv: list[str]) -> tuple[Tracer, int]:
    """One traced in-process CLI session; returns (tracer, exit code)."""
    from duplexqkd import cli

    tracer = Tracer()
    with instrumented(tracer):
        spec = tracer.wrap("cli.parse_args", cli.parse_args)(argv)
        code = cli.main(spec)
    return tracer, code


def layer_metrics(tracer: Tracer, pairs: int) -> dict[str, float]:
    """Per-pair layer numbers from one traced session."""

    def self_us(name: str) -> float:
        return tracer.get(name).self_ns / 1e3 / pairs

    def calls(name: str) -> float:
        return tracer.get(name).count / pairs

    attack_spans = ("attacks.relay_qubit", "attacks.hear", "attacks.end_pair")
    return {
        "quantum.measure_qubit.calls_per_pair": calls("quantum.measure_qubit"),
        "quantum.measure_qubit.self_us_per_pair": self_us("quantum.measure_qubit"),
        "quantum.bell_measure.calls_per_pair": calls("quantum.bell_measure"),
        "quantum.bell_measure.self_us_per_pair": self_us("quantum.bell_measure"),
        "quantum.tensor.calls_per_pair": calls("quantum.tensor"),
        "quantum.tensor.self_us_per_pair": self_us("quantum.tensor"),
        "protocol.run_session.self_us_per_pair": self_us("protocol.run_session"),
        "protocol.run_pair.self_us_per_pair": self_us("protocol.run_pair"),
        "attacks.relay_qubit.self_us_per_pair": self_us("attacks.relay_qubit"),
        "attacks.hear.self_us_per_pair": self_us("attacks.hear"),
        "attacks.end_pair.self_us_per_pair": self_us("attacks.end_pair"),
        "attacks.calls_per_pair": sum(calls(name) for name in attack_spans),
        "fourstate.run_modified_pair.self_us_per_pair": self_us("fourstate.run_modified_pair"),
        "analysis.build_report.us_per_pair": tracer.get("analysis.build_report").total_ns / 1e3 / pairs,
        "analysis.report_json_ms": (
            tracer.get("analysis.to_dict").total_ns + tracer.get("analysis.json_dumps").total_ns
        )
        / 1e6,
        "cli.parse_args.ms": tracer.get("cli.parse_args").total_ns / 1e6,
        "cli.records_to_csv.us_per_pair": tracer.get("cli.records_to_csv").total_ns / 1e3 / pairs,
        "cli.write_ms": tracer.get("cli.write").total_ns / 1e6,
        # Whatever no wrapped span covers inside the CLI's main().
        "other.self_us_per_pair": self_us("cli.main"),
    }


# ---------------------------------------------------------------------------
# Micro-timings of the primitives, on fixed inputs.

MICRO_SAMPLES = 9
MICRO_SAMPLE_S = 0.02


def _per_call_us(fn) -> float:
    """Median µs per call of ``fn()`` over several samples, each long
    enough (about 20 ms) to swamp the clock's resolution."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - start >= MICRO_SAMPLE_S:
            break
        calls *= 2
    samples = []
    for _ in range(MICRO_SAMPLES):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def micro_timings() -> dict[str, float]:
    from duplexqkd import protocol
    from duplexqkd.quantum import Basis, BellStateId, bell_measure, bell_state, measure_qubit, tensor

    two = bell_state(BellStateId.PSI_PLUS)
    other = bell_state(BellStateId.PHI_MINUS)
    four = tensor(two, other)
    obs = Basis.X.observable
    keys = iter(range(1 << 62))
    return {
        "quantum.micro.measure_qubit_2q_us": _per_call_us(lambda: measure_qubit(two, 0, obs, 0.3)),
        "quantum.micro.measure_qubit_4q_us": _per_call_us(lambda: measure_qubit(four, 2, obs, 0.3)),
        "quantum.micro.bell_measure_2q_us": _per_call_us(lambda: bell_measure(other, 0, 1, 0.3)),
        # Qubits 0 and 3: one half of each pair, the entanglement-swap shape.
        "quantum.micro.bell_measure_4q_us": _per_call_us(lambda: bell_measure(four, 0, 3, 0.3)),
        "quantum.micro.tensor_us": _per_call_us(lambda: tensor(two, other)),
        "protocol.micro.pair_stream_us": _per_call_us(lambda: protocol.pair_stream(7, next(keys))),
    }
