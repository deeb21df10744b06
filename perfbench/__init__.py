"""Benchmark for onerel: seeded workloads, output checks and span tracing."""
