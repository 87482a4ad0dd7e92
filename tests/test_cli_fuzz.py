"""Fuzz the command line: every argument list ends in an exit code of the
contract (0 ok, 1 mismatch, 2 usage, 3 abort) and prints no traceback.

Accepted runs stay cheap: dimensions up to 6, at most 3 samples and pairs.
Huge values appear only where they are refused before any work: past the
size limit, in a range that starts past it, or as a diagram range.
"""

import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kduncd.cli import main

_HUGE = 10**12


def _mostly(valid, invalid):
    """``valid`` nine times in ten, else ``invalid``, so that most examples
    get past the parser."""
    return st.integers(0, 9).flatmap(lambda k: invalid if k == 0 else valid)


def _range(lo, hi):
    return st.tuples(lo, hi).map(lambda t: f"{t[0]}..{t[1]}")


_SMALL = st.integers(1, 6)
_LARGE = st.sampled_from([13, 99, 10**11, _HUGE])
_JUNK = st.sampled_from(
    ["", "abc", "nan", "inf", "-inf", "1.5", "1e3", "..", "3..", "..3", "1..2..3", "0", "-2",
     "0..3", "5..2", "-inf..4"]
)
_ONE = _SMALL.map(str)
_SPAN = st.tuples(_SMALL, _SMALL).map(sorted).map(lambda t: f"{t[0]}..{t[1]}")
# refused by the parser, or at their first dimension past the size limit
_BAD = _JUNK | _LARGE.map(str) | _range(_LARGE, _LARGE)
_ENGINE = _mostly(st.sampled_from(["auto", "exact", "numeric", "both"]), st.just("fast"))
_COUNT = _mostly(st.sampled_from(["1", "2", "3"]), st.sampled_from(["0", "-1", "abc"]))
_BUDGET = _mostly(st.sampled_from(["1", "3", str(_HUGE)]), st.sampled_from(["0", "-1", "abc"]))
_SEED = _mostly(st.sampled_from(["0", "7", str(_HUGE), str(2**70)]), st.sampled_from(["-1", "nan"]))
_EPS = _mostly(
    st.sampled_from(["1e-10", "0.5", "1e308"]),
    st.sampled_from(["0", "-1", "nan", "inf", "abc"]),
)
_BAD_POINT = st.sampled_from(["0", "7", "-1", str(_HUGE)])


def _points(d):
    point = _mostly(st.integers(1, d).map(str), _BAD_POINT)
    return st.tuples(st.just(str(d)), point, point)


# witness --d D N_A N_B, mostly with the point inside 1..D
_WITNESS_AT = _mostly(
    _SMALL.flatmap(_points), st.tuples(_LARGE.map(str) | _JUNK, _ONE | _BAD_POINT, _ONE)
).map(list)


def _words(*words):
    return st.just(list(words))


def _opt(flag, values):
    """An option left out, or given one of ``values``."""
    return st.just([]) | values.map(lambda v: [flag, v])


def _flag(flag):
    return st.sampled_from([[], [flag]])


def _command(*parts, state=st.none()):
    """One argument list, the parts' words in order, and the text of the
    state file it reads, if any."""
    return st.tuples(st.tuples(*parts), state).map(
        lambda t: ([w for p in t[0] for w in p], t[1])
    )


_SEARCH = (_opt("--engine", _ENGINE), _opt("--max-checks", _BUDGET))
_CACHE = _opt("--cache", st.just("{tmp}/cache"))


def _diagram(dims, *flags):
    return _command(
        _words("diagram", *flags, "--d"),
        dims.map(lambda d: [d]),
        *_SEARCH,
        _flag("--allow-partial"),
        _opt("--out", st.just("{tmp}/d.json")),
        _CACHE,
    )


def _verify(rules, dims):
    return _command(
        _words("verify"),
        rules.map(lambda r: [r, "--d"]),
        dims.map(lambda d: [d]),
        _COUNT.map(lambda n: ["--samples", n]),
        _COUNT.map(lambda n: ["--pairs", n]),
        *_SEARCH,
        _opt("--seed", _SEED),
        _CACHE,
    )


_WITNESS = _command(
    _words("witness", "--d"),
    _WITNESS_AT,
    *_SEARCH,
    _opt("--seed", _SEED),
    _opt("--eps-support", _EPS),
    _opt("--eps-classical", _EPS),
    _opt("--out", st.just("{tmp}/w.json")),
)

_PART = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-310, 5e-324, 1e-200, 1e308, 1.7e308])
_PART |= st.floats(allow_nan=False, allow_infinity=False)
_STATE = st.integers(1, 6).flatmap(
    lambda d: st.lists(st.tuples(_PART, _PART).map(list), min_size=d, max_size=d).map(
        lambda amps: json.dumps({"d": d, "amps_a": amps})
    )
)
_STATE_TEXT = _mostly(
    _STATE,
    st.sampled_from(
        ["", "[1, 2]", "NaN", '{"d": 2}', '{"d": 2, "amps_a": [[1, 0]]}', '{"d": 0, "amps_a": []}',
         '{"d": 2, "amps_a": [[NaN, 0], [1, 0]]}', '{"d": 1, "amps_a": [[1e400, 0]]}']
    )
    | st.text(max_size=20),
)
_CLASSIFY = _command(
    _words("classify", "{tmp}/state.json"),
    _opt("--d", _mostly(_ONE, _JUNK)),
    _opt("--eps-support", _EPS),
    _opt("--eps-classical", _EPS),
    state=_STATE_TEXT,
)

_FAMILIES = [
    _diagram(_ONE | (_BAD | _range(_SMALL, _LARGE))),
    _diagram(_mostly(_ONE, _JUNK | _SPAN), "--allow-large"),
    *(_verify(st.just(rule), _mostly(_ONE | _SPAN, _BAD)) for rule in ("T1", "C1", "T2", "t3", "T4")),
    _verify(st.just("T5"), _mostly(_ONE | _SPAN, _JUNK)),
    _verify(st.just("L3"), (_ONE | _SPAN) | (_BAD | _range(_SMALL, _LARGE))),
    _verify(st.just("X9"), _ONE),
    _WITNESS,
    _CLASSIFY,
]


@pytest.mark.filterwarnings("ignore:state norm")
@settings(derandomize=True, deadline=None, max_examples=10)
@given(st.tuples(*_FAMILIES))
@example([(["diagram", "--d", "1..99999999999"], None)])
@example([(["verify", "L3", "--d", "2..99999999999"], None)])
@example([(["verify", "T2", "--d", "13..99999999999"], None)])
def test_cli_exits_with_a_contract_code_and_no_traceback(commands):
    # each example runs one command of every family, so all of them are fuzzed
    for args, state in commands:
        with tempfile.TemporaryDirectory() as tmp:
            if state is not None:
                Path(tmp, "state.json").write_text(state, encoding="utf-8")
            result = CliRunner().invoke(main, [a.replace("{tmp}", tmp) for a in args])
        assert result.exit_code in {0, 1, 2, 3}, (args, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            args,
            repr(result.exception),
        )
        assert "Traceback" not in result.output, args
