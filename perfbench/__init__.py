"""Serving benchmark of the transitive-GEMM serving stack (see README.md)."""
