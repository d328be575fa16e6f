"""Packet model and wired network elements (links, queues, delay pipes)."""
