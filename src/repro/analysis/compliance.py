"""Repeated-scan counting — Figure 2 and the Section 6 follow-up.

RFC 9000 mandates that endpoints actively using the spin bit "MUST"
disable it on at least one in every 16 connections (one in eight per
RFC 9312).  The paper probes this longitudinally: select ``n = 12``
measurement weeks, keep the domains that spun at least once and had a
working connection in every week, and histogram in how many weeks each
domain spun.  Reference curves computed from probability theory show how
often a compliant, always-spinning endpoint would be expected to spin in
``k`` of ``n`` one-shot weekly measurements: Binomial(n, 15/16) for
RFC 9000 and Binomial(n, 7/8) for RFC 9312.  The paper's Section 6
follow-up asks the same over ``n = 16`` probes within one week, which
holds the deployment fixed and measures the disable rate itself.

Both count ``n`` per-scan ``{domain: flags}`` maps — the map a service
week file stores as ``domains`` — with one :class:`ComplianceFold`, and
:func:`scan_flags` makes such maps from fresh scans.  The same maps
answer Tables 1, 3 and 4 (:func:`repro.analysis.adoption.domain_tables`):
:func:`connection_flags` is the one definition of a connection's bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from repro._util.stats import binomial_pmf
from repro.core.classify import SpinBehaviour

if TYPE_CHECKING:
    from repro.internet.population import DomainRecord
    from repro.web.scanner import DomainScanResult, Scanner

__all__ = [
    "FLAG_SEEN_ALL_ONE",
    "FLAG_SEEN_ALL_ZERO",
    "FLAG_SEEN_GREASE",
    "FLAG_SEEN_SPIN",
    "FLAG_SPIN",
    "FLAG_SUCCESS",
    "ComplianceFold",
    "ComplianceHistogram",
    "connection_flags",
    "domain_flags",
    "rfc_reference_shares",
    "scan_flags",
    "seen_behaviours",
]

#: Domain flag bits of one scan: some connection succeeded
#: (``DomainScanResult.quic_support``) / some connection saw both spin
#: values, i.e. its spin mask is 3 (``shows_spin_activity``).  A domain
#: *spun* in a scan when both bits are set.
FLAG_SUCCESS = 1
FLAG_SPIN = 2
#: One bit per :class:`SpinBehaviour` seen on a *successful* connection,
#: the set :func:`~repro.core.classify.classify_domain` reads (Table 3).
FLAG_SEEN_ALL_ZERO = 4
FLAG_SEEN_ALL_ONE = 8
FLAG_SEEN_SPIN = 16
FLAG_SEEN_GREASE = 32

#: Keyed by member value: the week indexer calls :func:`connection_flags`
#: per record, and an ``Enum`` member's hash is a Python-level call.
_SEEN = {"all_zero": FLAG_SEEN_ALL_ZERO, "all_one": FLAG_SEEN_ALL_ONE,
         "spin": FLAG_SEEN_SPIN, "grease": FLAG_SEEN_GREASE, "no_packets": 0}


def connection_flags(success: bool, mask: int, behaviour: SpinBehaviour) -> int:
    """One connection's flag bits (``mask``: the spin values it saw, as
    in the cbr column); a domain's flags are their OR."""
    flags = FLAG_SPIN if mask == 3 else 0
    if success:
        flags |= FLAG_SUCCESS | _SEEN[behaviour._value_]
    return flags


def domain_flags(results: Iterable[DomainScanResult]) -> dict[str, int]:
    """``{domain: flags}`` of scan results (a repeated domain: last wins)."""
    flags = {}
    for result in results:
        bits = 0
        for c in result.connections:
            bits |= connection_flags(c.success, 3 if c.shows_spin_activity else 0, c.behaviour)
        flags[result.domain.name] = bits
    return flags


def seen_behaviours(flags: int) -> list[SpinBehaviour]:
    """The behaviours a domain's successful connections showed."""
    return [SpinBehaviour(value) for value, bit in _SEEN.items() if flags & bit]


@dataclass(frozen=True)
class ComplianceHistogram:
    """Figure 2's data: k-of-n counts and the two RFC references.

    ``counts[k - 1]`` is the number of domains that spun in exactly
    ``k`` of the ``n_weeks`` scans (``k >= 1``, since the selection
    keeps only domains that spun at least once); the share lists are
    indexed the same way.
    """

    n_weeks: int
    counts: list[int]

    @property
    def considered_domains(self) -> int:
        return sum(self.counts)

    @cached_property
    def observed_shares(self) -> list[float]:
        considered = self.considered_domains
        return [count / considered if considered else 0.0 for count in self.counts]

    @cached_property
    def rfc9000_shares(self) -> list[float]:
        return rfc_reference_shares(self.n_weeks, 16)

    @cached_property
    def rfc9312_shares(self) -> list[float]:
        return rfc_reference_shares(self.n_weeks, 8)

    @property
    def share_spinning_every_week(self) -> float:
        """Observed share of domains with spin activity in all weeks."""
        return self.observed_shares[-1]

    @property
    def disable_rate(self) -> float:
        """The measured per-connection disable probability.

        One minus the share of the considered domains' scans that spun.
        Over in-week probes, a compliant RFC 9000 endpoint gives 1/16 =
        6.25 % (1/8 under the RFC 9312 reading), free of the deployment
        churn that week-spaced scans add.
        """
        considered = self.considered_domains
        if not considered:
            return 0.0
        spun = sum(k * count for k, count in enumerate(self.counts, 1))
        return 1.0 - spun / (self.n_weeks * considered)


def rfc_reference_shares(n_weeks: int, disable_one_in_n: int) -> list[float]:
    """Expected shares for a compliant endpoint, conditioned on k >= 1.

    A domain whose server spins every week except for the mandated
    1-in-N per-connection disable shows spin activity in a weekly
    one-shot measurement with probability ``1 - 1/N``; over ``n``
    independent weeks the spin-week count is binomial.  Shares are
    renormalized over ``k >= 1`` to match the paper's selection of
    domains that spun at least once.
    """
    p = 1.0 - 1.0 / disable_one_in_n
    raw = [binomial_pmf(k, n_weeks, p) for k in range(1, n_weeks + 1)]
    total = sum(raw)
    return [value / total for value in raw]


class ComplianceFold:
    """The k-of-n count over ``n_weeks`` per-scan flag maps.

    A domain counts when it connected in every scan and spun in at
    least one; its k is the number of scans it spun in.  A domain
    missing from a scan's map did not connect in it.
    """

    def __init__(self, n_weeks: int) -> None:
        self.n_weeks = n_weeks
        self._scans = 0
        self._connected: dict[str, int] = {}
        self._spun: dict[str, int] = {}

    def update_many(self, flag_maps: Iterable[Mapping[str, int]]) -> None:
        connected, spun = self._connected, self._spun
        for flags in flag_maps:
            self._scans += 1
            for name, value in flags.items():
                if value & FLAG_SUCCESS:
                    connected[name] = connected.get(name, 0) + 1
                    if value & FLAG_SPIN:
                        spun[name] = spun.get(name, 0) + 1

    def finish(self) -> ComplianceHistogram:
        if self._scans != self.n_weeks:
            raise ValueError(f"folded {self._scans} scans, expected {self.n_weeks}")
        counts = [0] * self.n_weeks
        connected = self._connected
        for name, k in self._spun.items():
            if connected[name] == self.n_weeks:
                counts[k - 1] += 1
        return ComplianceHistogram(n_weeks=self.n_weeks, counts=counts)


def scan_flags(
    scanner: Scanner,
    domains: Sequence[DomainRecord],
    scans: Iterable[tuple[str, int]],
) -> Iterator[dict[str, int]]:
    """One ``{domain: flags}`` map per ``(week label, probe)`` scan of
    ``domains``, each streamed through :meth:`Scanner.scan_stream`.

    Figure 2 passes spread weeks at probe 0; the follow-up passes one
    week at probes 1..16, which re-roll per-connection randomness while
    the week's deployment stays fixed.
    """
    for week, probe in scans:
        yield domain_flags(
            scanner.scan_stream(week_label=week, domains=domains, probe=probe)
        )
