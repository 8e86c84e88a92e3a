"""The reference k-of-n counts the compliance fold is checked against.

Two independent bodies count repeated scans of the same domains, each
over the scans' own domain results (anything with ``domain.name``,
``quic_support`` and ``shows_spin_activity``), never over flag maps:

* :func:`weekly_spin_activity` + :func:`reference_counts` — Figure 2's
  per-domain weekly activity rows and their histogram;
* :class:`FollowUpCounts` — the Section 6 follow-up's per-domain probe
  counters, active domains, disable rate and count distribution.

:class:`repro.analysis.compliance.ComplianceFold` must agree with both.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def weekly_spin_activity(scans) -> dict[str, list[bool]]:
    """Map domain name -> per-scan spin-activity flags.

    Only domains with a working connection in every scan are included,
    mirroring the paper's selection ("we then select the domains to
    which we could establish a connection in every week").
    """
    total_weeks = len(scans)
    activity: dict[str, list[bool]] = {}
    connected: dict[str, int] = {}
    for results in scans:
        for result in results:
            name = result.domain.name
            if not result.quic_support:
                continue
            connected[name] = connected.get(name, 0) + 1
            activity.setdefault(name, [False] * total_weeks)
    for week_index, results in enumerate(scans):
        for result in results:
            flags = activity.get(result.domain.name)
            if flags is not None:
                flags[week_index] = result.quic_support and result.shows_spin_activity
    return {
        name: flags
        for name, flags in activity.items()
        if connected.get(name, 0) == total_weeks
    }


def reference_counts(scans) -> list[int]:
    """Index ``k - 1``: domains that spun in exactly ``k`` scans."""
    counts = [0] * len(scans)
    for flags in weekly_spin_activity(scans).values():
        k = sum(flags)
        if k:  # never spun in the selected weeks: not in Fig. 2
            counts[k - 1] += 1
    return counts


@dataclass
class FollowUpCounts:
    """The repeated-probe counters of the Section 6 follow-up."""

    probes_per_domain: int
    #: Domain name -> number of probes with spin activity.
    spin_counts: dict[str, int] = field(default_factory=dict)
    #: Domain name -> number of probes with a working QUIC connection.
    connected_counts: dict[str, int] = field(default_factory=dict)

    @classmethod
    def of(cls, names, scans) -> "FollowUpCounts":
        """Count ``scans`` (one result list per probe) of ``names``."""
        counts = cls(probes_per_domain=len(scans))
        for name in names:
            counts.spin_counts[name] = 0
            counts.connected_counts[name] = 0
        for results in scans:
            for result in results:
                name = result.domain.name
                if result.quic_support:
                    counts.connected_counts[name] += 1
                if result.shows_spin_activity:
                    counts.spin_counts[name] += 1
        return counts

    def active_domains(self) -> list[str]:
        """Domains that spun in at least one probe and connected in
        every probe."""
        return [
            name
            for name, spins in self.spin_counts.items()
            if spins > 0
            and self.connected_counts.get(name, 0) == self.probes_per_domain
        ]

    def estimated_disable_rate(self) -> float:
        active = self.active_domains()
        if not active:
            return 0.0
        total_probes = len(active) * self.probes_per_domain
        total_spins = sum(self.spin_counts[name] for name in active)
        return 1.0 - total_spins / total_probes

    def observed_count_distribution(self) -> list[float]:
        """Observed share of active domains per spin-probe count."""
        active = self.active_domains()
        counts = [0] * (self.probes_per_domain + 1)
        for name in active:
            counts[self.spin_counts[name]] += 1
        total = len(active)
        return [count / total if total else 0.0 for count in counts]
