"""Benchmark harness for homotopylie; see README.md."""
