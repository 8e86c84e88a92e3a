"""Old name of :class:`~repro.internet.population.Population`, which draws
by index block; kept for ``bench/layers.py``'s import, then to go."""

from repro.internet.population import Population as StreamingPopulation

__all__ = ["StreamingPopulation"]
