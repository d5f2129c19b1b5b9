"""Toolkit for mining privacy-concern app reviews.

Pipeline: ingest and normalize review corpora, score them against privacy
hypothesis sets with a zero-shot entailment backend, convert score counts
into pseudo-labels with threshold heuristics, classify the surviving
candidates with a majority-voted LLM prompt, and confirm the results in a
terminal annotation session with inter-annotator agreement.
"""
