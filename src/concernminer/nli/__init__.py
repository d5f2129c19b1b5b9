"""Entailment scoring stage: backends, score matrices, and heuristic labeling."""
