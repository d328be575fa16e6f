"""Workload descriptions: which flows run on which UEs, and when."""
