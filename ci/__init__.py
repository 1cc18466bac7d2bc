"""Checks that CI jobs run on their artifacts, kept as code so tier-1 runs them too."""
