"""Shared pytest path anchoring; test modules import shared data and
oracles from helper modules in this directory (the paper's tables and
chain sets from paper_data, the pair rule from pair_rule, the CLI's
golden-output corpus from golden), so the tests directory must be on the
import path."""
