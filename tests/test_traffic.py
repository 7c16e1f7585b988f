"""The traffic report in tools/ lists each statement of which no line ran."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "traffic.py"
_SPEC = importlib.util.spec_from_file_location("traffic", _PATH)
traffic = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(traffic)

SOURCE = '''"""Module docstring."""
import math


def f(x, y):
    """Function docstring."""
    if x < 0:
        raise ValueError("x")
    total = (x +
             y)
    try:
        total = math.sqrt(total)
    except ValueError:
        total = 0.0
    while True:
        if total:
            return total
        total = 1.0


def g():
    return 1
'''


def test_a_traced_call_leaves_the_statements_it_skipped():
    ran, namespace, previous = set(), {}, sys.gettrace()
    code = compile(SOURCE, "sample.py", "exec")
    sys.settrace(traffic._tracer({"sample.py": ran}))
    try:
        exec(code, namespace)
        namespace["f"](1, 2)
    finally:
        sys.settrace(previous)
    # the except body, the statement after an early return, g's body; the
    # raise never ran either, but is not listed
    assert traffic.unreached(SOURCE, ran) == [14, 18, 22]


def test_a_statement_runs_when_any_line_or_inner_statement_does():
    # no line of the try: or while True: headers, the sum reported on its
    # second line, the if: header missing but its body present
    ran = {2, 5, 7, 10, 12, 17, 21}
    assert traffic.unreached(SOURCE, ran) == [14, 18, 22]
