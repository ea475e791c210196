"""Tests for the repo tooling (unified checks)."""
