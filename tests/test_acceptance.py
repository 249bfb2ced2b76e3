"""Acceptance gate: one test per shipped guarantee, at its stated budget.

Each test prints as a single pass/fail line under ``pytest -v``.  Time
budgets are asserted inside the tests themselves, so a pass certifies
both the result and the cost envelope.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

import formula_reference
from brute import brute_cube_sat
from chclab.cli import main as cli_main
from chclab.concrete import (
    GroundAtom,
    check_combined_closure,
    goal_atoms,
    ground_relation,
    lfp_backward_rel,
    lfp_combined_rel,
    lfp_forward_rel,
)
from chclab.domain import AbstractElement, clause_post, clause_pre_restricted
from chclab.linlogic import ConjCube, cube_is_sat
from chclab.qa import qa_transform
from chclab.solver import AnalysisConfig, alternate
from chclab.syntax import System
from chclab.trees import check_tree_props
from conftest import point_box
from randgen import (
    random_acyclic_system,
    random_cube,
    random_finite_system,
)

F = Fraction


def p(*args):
    return GroundAtom("p", tuple(F(a) for a in args))


class budget:
    """Assert the block finishes within the given number of seconds."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.started
            assert elapsed < self.seconds, f"took {elapsed:.2f}s, budget {self.seconds}s"


def test_c01_oracle_reproduces_exact_semantics(ladder):
    with budget(1.0):
        rel = ground_relation(ladder)
        goal = goal_atoms(ladder)
        assert lfp_forward_rel(rel) == {p(1), p(2), p(3), p(5)}
        assert lfp_backward_rel(rel, goal) == {p(1), p(2), p(3), p(4), p(5)}
        assert lfp_combined_rel(rel, goal) == {p(1), p(3), p(5)}


def test_c02_combined_strictly_sharper_than_intersection(ladder):
    with budget(1.0):
        rel = ground_relation(ladder)
        goal = goal_atoms(ladder)
        inter = lfp_forward_rel(rel) & lfp_backward_rel(rel, goal)
        combined = lfp_combined_rel(rel, goal)
        assert combined < inter and p(2) in inter - combined


def test_c03_combined_closure_on_500_random_systems():
    with budget(30.0):
        for seed in range(500):
            system = random_finite_system(seed)
            assert check_combined_closure(ground_relation(system), goal_atoms(system)), seed


def test_c04_corpus_models_pass_independent_check(corpus_paths, tmp_path, capsys):
    with budget(60.0):
        for path in corpus_paths:
            report_file = tmp_path / (path.stem + ".json")
            model_file = tmp_path / (path.stem + ".model")
            code = cli_main(
                [
                    "solve", str(path), "--mode", "alt",
                    "--json", str(report_file),
                    "--model-out", str(model_file),
                ]
            )
            assert code in (0, 10), path.name
            report = json.loads(report_file.read_text())
            assert report["certs"]["model_check"] is True, path.name
            assert report["certs"]["step_laws"] is True, path.name
            if report["verdict"] == "SAFE":
                assert report["certs"]["goal_disjoint"] is True, path.name
            assert cli_main(["check", str(path), str(model_file)]) == 0, path.name
        capsys.readouterr()


def test_c05_alternation_beats_single_pass_analyses(addition_loops):
    from chclab.qa import qa_two_step

    with budget(5.0):
        _, fwd = alternate(addition_loops, config=AnalysisConfig(max_rounds=1))
        assert fwd.status == "UNKNOWN"
        _, qa2 = qa_two_step(addition_loops)
        assert qa2.status == "UNKNOWN"
        _, alt = alternate(addition_loops)
        assert alt.status == "SAFE" and alt.rounds_used <= 3


def test_c06_query_answer_least_model_overshoots(ladder):
    with budget(1.0):
        qa = qa_transform(ladder)
        answers = lfp_forward_rel(ground_relation(qa.system))
        (pair,) = [pair for pair in qa.pairs if pair.orig == "p"]
        got = {a.args[0] for a in answers if a.pred == pair.answer}
        combined = {
            a.args[0] for a in lfp_combined_rel(ground_relation(ladder), goal_atoms(ladder))
        }
        assert F(2) in got and F(2) not in combined


def test_c07_tree_abstractions_agree_with_set_semantics(ladder):
    with budget(60.0):
        skipped = 0
        for seed in range(200):
            report = check_tree_props(random_acyclic_system(seed))
            assert "FAIL" not in report.verdicts.values(), seed
            skipped += sum(v == "SKIPPED" for v in report.verdicts.values())
        assert skipped == 0
        assert check_tree_props(ladder).all_pass


def _point_cover(system: System, atoms):
    """Smallest box element containing every given atom."""
    elem = AbstractElement.bottom(system)
    for atom in atoms:
        elem[atom.pred] = elem[atom.pred].join(point_box(atom.args))
    return elem


def _clause_instances(system: System, clause):
    """Ground instances as (env, body atoms, head atom) triples."""
    assert system.universe is not None
    vs = sorted(clause.vars)
    for values in itertools.product(system.universe, repeat=len(vs)):
        env = dict(zip(vs, values))
        if not formula_reference.eval_formula(clause.constraint, env):
            continue
        body = [GroundAtom(a.pred.name, tuple(env[v] for v in a.args)) for a in clause.body]
        head = GroundAtom(clause.head.pred.name, tuple(env[v] for v in clause.head.args))
        yield env, body, head


def test_c08_transformer_soundness_500_pairs():
    with budget(30.0):
        pairs = 0
        seed = 0
        while pairs < 500:
            system = random_finite_system(seed)
            rng = random.Random(seed ^ 0xABCDEF)
            seed += 1
            universe = system.universe
            atoms = [
                GroundAtom(d.name, args)
                for d in system.decls
                for args in itertools.product(universe, repeat=d.arity)
            ]
            for clause in system.clauses:
                sub = frozenset(a for a in atoms if rng.random() < 0.4)
                elem = _point_cover(system, sub)
                post_box = clause_post(clause, elem)
                pre_boxes = {
                    i: clause_pre_restricted(clause, i, elem, elem)
                    for i in range(len(clause.body))
                }
                for _, body, head in _clause_instances(system, clause):
                    if all(a in sub for a in body):
                        assert point_box(head.args).leq(post_box), (seed - 1, str(clause))
                    if head in sub and all(a in sub for a in body):
                        for i, a in enumerate(clause.body):
                            atom_i = body[i]
                            assert point_box(atom_i.args).leq(pre_boxes[i]), (seed - 1, i)
                pairs += 1
        assert pairs >= 500


def test_c09_satisfiability_matches_brute_force_1000_cubes():
    with budget(30.0):
        for seed in range(1000):
            rng = random.Random(seed)
            cons = random_cube(rng)
            assert cube_is_sat(ConjCube.make(cons)) == brute_cube_sat(cons), seed


def test_c10_lower_round_caps_only_lose_safety(corpus_paths):
    assert AnalysisConfig().max_rounds == 5
    from chclab.parser import parse_system

    for path in corpus_paths:
        system = parse_system(path.read_text(encoding="utf-8"))
        verdicts = {
            k: alternate(system, config=AnalysisConfig(max_rounds=k))[1].status
            for k in (1, 3, 5, 7)
        }
        # once SAFE is reached it must persist for every larger cap
        ks = sorted(verdicts)
        for small, large in itertools.combinations(ks, 2):
            if verdicts[small] == "SAFE":
                assert verdicts[large] == "SAFE", (path.name, verdicts)
