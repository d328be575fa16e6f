"""Measurement utilities: statistics, collectors and delay breakdowns."""
