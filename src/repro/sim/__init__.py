"""Discrete-event simulation engine used by every substrate in the library."""
