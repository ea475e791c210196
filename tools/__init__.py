"""Repo maintenance tooling: lints and the unified checks entry point.
``python -m tools.checks`` runs every lint.
"""
