"""Exact symbolic kernel for bi-graded Lie algebras over Q(zeta8)."""
