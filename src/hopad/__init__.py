"""Deterministic higher-order pushdown automata over data words, with
run classification, a run-descriptor type system, and brute-force
verification harnesses.

Import each name from the module that defines it.  Importing the package
loads no module, and importing one loads only those it builds on: the
modules in brackets and what they build on.

- `core`: stacks, stack operations, automata, `step` and recorded runs.
- `text`: the automaton, scenario, stack and data-word formats (`core`).
- `monoid`: finite monoids and the morphism of a run (`core`).
- `ulang`: the separating language, its oracle, w_k and its recognizer (`text`).
- `lineage`: copy lineage, the run classes and their derivations (`core`).
- `typesys`: run descriptors, saturation and stack typing (`lineage`, `monoid`).
- `srcsets`: source sets and the two transfer checks (`typesys`).
- `harness`: run enumeration and the nine suites (all but `cli`).
- `cli`: the `hopad` command (all of them).
"""
