"""The value rules of numeric settings, and the errors that name a broken
setting or a broken line of an input file.

Every config checks its own fields here, so each rule is written once.  A
SettingError carries the field's name, its value and the rule's text; the
command line reports it under the flag of the same name.  A FormatError
carries the reason a file breaks its format and the line to blame, if one is;
the command line reports it as 'PATH:LINE: REASON', or 'PATH: REASON'.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple


class Rule(NamedTuple):
    text: str
    holds: Callable[[float], bool]


RATE = Rule("finite and >= 0", lambda x: 0.0 <= x < math.inf)
AT_LEAST_0 = Rule(">= 0", lambda x: x >= 0)
AT_LEAST_1 = Rule(">= 1", lambda x: x >= 1)
AT_LEAST_2 = Rule(">= 2", lambda x: x >= 2)
UNIT_INTERVAL = Rule("in (0, 1]", lambda x: 0 < x <= 1)
# The largest side of an `assoc-debug --random` instance: 500,500 solves in
# about 4 s on a 2-core x86 host, and the time grows with the square of the
# smaller side times the larger.
AT_MOST_500 = Rule("<= 500", lambda x: x <= 500)
# The largest channels and resolution of a search space: the dearest nominal
# cost is then about 1.4e9 ms, so neither it nor any sum of such costs that
# the search forms can overflow.
AT_MOST_4096 = Rule("<= 4096", lambda x: x <= 4096)

# The largest magnitude of a box coordinate, an association score, a score
# weight and a latency table statistic.  A difference of two coordinates is
# then at most 2**511, a box area at most 2**1022 and the sum of two areas at
# most 2**1023, all finite; so are the sums of scores that association forms
# and the sums of latencies that the search forms, however many a file holds.
MAGNITUDE_LIMIT = 2.0 ** 510
BOUNDED = Rule("at most 2**510 in magnitude", lambda x: abs(x) <= MAGNITUDE_LIMIT)


class SettingError(ValueError):
    """A setting broke its rule: 'NAME must be RULE, got VALUE'."""

    def __init__(self, name: str, value, rule: str):
        super().__init__(f"{name} must be {rule}, got {value!r}")
        self.name = name
        self.value = value
        self.rule = rule


def check(name: str, value, rule: Rule):
    """The value itself if it keeps the rule; otherwise a SettingError."""
    if not rule.holds(value):
        raise SettingError(name, value, rule.text)
    return value


class FormatError(ValueError):
    """An input file broke its format: 'line N: REASON', or 'REASON' when no
    one line is to blame."""

    def __init__(self, reason: str, lineno: int | None = None):
        super().__init__(reason if lineno is None else f"line {lineno}: {reason}")
        self.reason = reason
        self.lineno = lineno
