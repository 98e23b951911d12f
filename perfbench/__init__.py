"""Benchmark of the mdtaf program: workloads, tracer and statistics."""
