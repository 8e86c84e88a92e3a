"""Measurement-campaign calendar (Section 3.2.2 of the paper).

The paper measures weekly over IPv4 from CW 15/2022 through CW 20/2023,
with IPv6 measurements in selected weeks.  Zonelist scans run Wednesday
through Friday, toplist scans Friday into Saturday; this module models
the calendar so longitudinal analyses (Figure 2) can select ``n``
measurement days spread across the campaign exactly as the paper does.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

__all__ = ["CalendarWeek", "Campaign", "DEFAULT_CAMPAIGN"]


@dataclass(frozen=True, order=True)
class CalendarWeek:
    """One ISO calendar week."""

    year: int
    week: int

    def __post_init__(self) -> None:
        if not 1 <= self.week <= 53:
            raise ValueError(f"invalid ISO week {self.week}")

    @property
    def label(self) -> str:
        """Stable label used to seed weekly scans, e.g. ``"cw20-2023"``."""
        return f"cw{self.week:02d}-{self.year}"

    @property
    def serial(self) -> int:
        """Weeks elapsed since CW 1, 2022 (the stack-churn epoch base)."""
        origin = _dt.date.fromisocalendar(2022, 1, 1)
        return (self.start_date() - origin).days // 7

    @classmethod
    def from_label(cls, label: str) -> "CalendarWeek":
        """Parse a ``"cwWW-YYYY"`` label back into a week."""
        if not label.startswith("cw") or "-" not in label:
            raise ValueError(f"not a calendar week label: {label!r}")
        week_part, _, year_part = label[2:].partition("-")
        return cls(year=int(year_part), week=int(week_part))

    def start_date(self) -> _dt.date:
        """Monday of this ISO week."""
        return _dt.date.fromisocalendar(self.year, self.week, 1)

    def next(self) -> "CalendarWeek":
        """The following calendar week."""
        following = self.start_date() + _dt.timedelta(weeks=1)
        iso = following.isocalendar()
        return CalendarWeek(year=iso.year, week=iso.week)


@dataclass(frozen=True)
class Campaign:
    """A measurement campaign: one scan per calendar week, first to last."""

    first: CalendarWeek
    last: CalendarWeek

    def __post_init__(self) -> None:
        if self.last < self.first:
            raise ValueError("campaign ends before it starts")

    def weeks(self) -> list[CalendarWeek]:
        """All IPv4 measurement weeks, in order."""
        result = [self.first]
        while result[-1] < self.last:
            result.append(result[-1].next())
        return result

    def select_spread_weeks(self, n: int) -> list[CalendarWeek]:
        """``n`` measurement weeks spread evenly across the campaign.

        This is the paper's Figure 2 selection ("first select n
        measurement days spread across our measurement campaign"); the
        first and last week are always included.
        """
        weeks = self.weeks()
        if n < 2 or n > len(weeks):
            raise ValueError(f"n must be between 2 and {len(weeks)}")
        if n == len(weeks):
            return weeks
        step = (len(weeks) - 1) / (n - 1)
        indices = sorted({round(index * step) for index in range(n)})
        return [weeks[index] for index in indices]


#: The paper's campaign: CW 15, 2022 through CW 20, 2023.
DEFAULT_CAMPAIGN = Campaign(
    first=CalendarWeek(2022, 15), last=CalendarWeek(2023, 20)
)
