import json
import random

import pytest

from sspforge import serialize
from sspforge.cli import main
from sspforge.core import DistanceMeasure, mask_of
from sspforge.gen import (
    random_comb_rr,
    random_lb,
    random_radjsat,
    random_source_for_edge,
)
from sspforge.problems import (
    KIND_SPECS,
    CnfInstance,
    ProblemKind,
    VertexCoverInstance,
    is_lop,
)
from sspforge.reductions import (
    ALL_EDGES,
    BLOWUP_EDGES,
    build_blowup,
    build_preserving,
    check_artifact,
)
from sspforge.problems.graphs import complete_edges
from sspforge.rr import (
    CombRrInstance,
    CostRrInstance,
    RAdjSatInstance,
    comb_to_cost_rr,
    radjsat_to_comb_rr,
)
from test_kernels import small_instances
from test_rr import _assert_cost_rr_equals_loop

HAM = DistanceMeasure.HAMMING
PHI = CnfInstance(3, ((3, 4, 2),))


@pytest.mark.parametrize("edge", ALL_EDGES)
def test_artifact_roundtrip(edge):
    rng = random.Random(repr((edge, "rt")))
    src = random_source_for_edge(edge, rng)
    if edge in ("sat-3sat", "3sat-vc", "3sat-is", "3sat-subsetsum",
                "3sat-dhampath", "3sat-2ddp", "3sat-steinertree"):
        art = build_blowup(edge, src, 0, HAM)
    else:
        params = {"k": 3} if edge == "2ddp-kddp" else None
        art = build_preserving(edge, src, params)
    doc = serialize.artifact_to_doc(art)
    again = serialize.artifact_from_doc(json.loads(serialize.dumps(doc)))
    assert again == art
    assert serialize.dumps(serialize.artifact_to_doc(again)) == serialize.dumps(doc)


def _json_dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _edge_artifacts(seed):
    rng = random.Random(repr(("writer", seed)))
    arts = []
    for edge in ALL_EDGES:
        src = random_source_for_edge(edge, rng)
        if edge in BLOWUP_EDGES:
            measure = rng.choice(list(DistanceMeasure))
            arts.append(build_blowup(edge, src, random_lb(rng, src), measure))
        else:
            params = {"k": rng.randint(2, 4)} if edge == "2ddp-kddp" else None
            arts.append(build_preserving(edge, src, params))
    return arts


def test_dumps_equals_json_on_instance_and_artifact_documents():
    kinds = set()
    for seed in range(3):
        for art in _edge_artifacts(seed):
            doc = serialize.artifact_to_doc(art)
            assert serialize.dumps(doc) == _json_dumps(doc), art.edge
            for kind, inst in ((art.source_kind, art.source),
                               (art.target_kind, art.target)):
                doc = serialize.instance_to_doc(kind, inst)
                assert serialize.dumps(doc) == _json_dumps(doc), kind
                kinds.add(kind)
    assert kinds == set(ProblemKind)


def test_dumps_equals_json_on_rr_documents():
    rng = random.Random(7)
    docs = []
    for _ in range(20):
        comb = random_comb_rr(rng)
        docs.append(serialize.comb_rr_to_doc(comb))
        if is_lop(comb.kind):
            docs.append(serialize.cost_rr_to_doc(comb_to_cost_rr(comb)))
        game = random_radjsat(rng, max_part=1, max_clauses=2, max_gamma=1)
        docs.append(serialize.radjsat_to_doc(game))
        pipe = radjsat_to_comb_rr(game, "3sat-subsetsum", HAM)
        docs.append(serialize.cost_rr_to_doc(comb_to_cost_rr(pipe)))
    assert {doc["type"] for doc in docs} == {"comb-rr", "cost-rr", "radjsat"}
    for doc in docs:
        assert serialize.dumps(doc) == _json_dumps(doc)


def test_dumps_equals_json_on_check_and_fuzz_reports(tmp_path):
    art = tmp_path / "a.json"
    art.write_text(serialize.dumps(serialize.artifact_to_doc(
        build_blowup("3sat-vc", PHI, mask_of([2, 5]), HAM)
    )))
    check = tmp_path / "check.json"
    assert main(["check", str(art), "--report", str(check)]) == 0
    fuzz = tmp_path / "fuzz.json"
    assert main(["fuzz", "--edges", "3sat-is,vc-sc", "--count", "2",
                 "--report", str(fuzz)]) == 0
    for path in (check, fuzz):
        text = path.read_text()
        assert text == _json_dumps(json.loads(text))


def test_dumps_rejects_values_no_document_holds():
    for bad in ({1: 2}, {"a": (1, 2)}, {"a": [object()]}, {"a": {"b": {3}}}):
        with pytest.raises(TypeError):
            serialize.dumps(bad)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    # text with escapes, controls and astral characters, as keys too
    _text = st.text(
        st.characters(blacklist_categories=("Cs",))
        | st.sampled_from('"\\/\b\f\n\r\t\x00\x7f\u2028\U0001f600'),
        max_size=8,
    )
    _scalars = (
        st.none()
        | st.booleans()
        | st.integers()
        | st.floats()
        | _text
    )
    # the writer's list shapes: ints, strings, int rows (some empty), and
    # near misses with bools among the ints
    _lists = (
        st.lists(st.integers(), max_size=6)
        | st.lists(_text, max_size=6)
        | st.lists(st.lists(st.integers(), max_size=3), max_size=4)
        | st.lists(st.lists(st.integers() | st.booleans(), min_size=1, max_size=3),
                   max_size=4)
        | st.lists(st.integers() | st.booleans(), max_size=6)
    )
    _values = st.recursive(
        _scalars | _lists,
        lambda inner: st.lists(inner, max_size=5)
        | st.dictionaries(_text, inner, max_size=5),
        max_leaves=10,
    )

    @given(doc=st.dictionaries(_text, _values, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_dumps_equals_json_on_random_trees(doc):
        assert serialize.dumps(doc) == _json_dumps(doc)
except ImportError:  # pragma: no cover - hypothesis is a test extra
    pass


def test_instance_roundtrip_all_kinds():
    rng = random.Random(2024)
    for edge in ALL_EDGES:
        src = random_source_for_edge(edge, rng)
        for kind in ProblemKind:
            try:
                doc = serialize.instance_to_doc(kind, src)
            except Exception:
                continue
            k2, inst2 = serialize.instance_from_doc(doc)
            if type(inst2) is type(src):
                assert inst2 == src
                break
    # every kind, targets included, through JSON and back
    assert set(KIND_SPECS) == set(ProblemKind)
    instances = small_instances()
    assert {kind for kind, _ in instances} == set(ProblemKind)
    for kind, inst in instances:
        text = serialize.dumps(serialize.instance_to_doc(kind, inst))
        k2, inst2 = serialize.instance_from_doc(json.loads(text))
        assert (k2, inst2) == (kind, inst)
        assert serialize.dumps(serialize.instance_to_doc(k2, inst2)) == text


def test_dimacs_roundtrip():
    text = "c comment\np cnf 3 2\n1 -2 3 0\n-1 2 2 0\n"
    cnf = serialize.parse_dimacs(text)
    assert cnf.n_vars == 3
    assert cnf.clauses == ((0, 4, 2), (3, 1, 1))
    again = serialize.parse_dimacs(serialize.emit_dimacs(cnf))
    assert again == cnf


def test_dimacs_matches_json_import(tmp_path):
    cnf = PHI
    doc = serialize.instance_to_doc(ProblemKind.THREE_SAT, cnf)
    from_json = serialize.instance_from_doc(json.loads(serialize.dumps(doc)))[1]
    from_dimacs = serialize.parse_dimacs(serialize.emit_dimacs(cnf))
    assert from_json == from_dimacs


def test_comb_rr_doc_roundtrip():
    comb = CombRrInstance(
        ProblemKind.VERTEX_COVER,
        VertexCoverInstance(3, ((0, 1), (1, 2)), 2),
        mask_of([1]),
        1,
        2,
        HAM,
    )
    doc = json.loads(serialize.dumps(serialize.comb_rr_to_doc(comb)))
    assert serialize.comb_rr_from_doc(doc) == comb


def _write_cnf(tmp_path, cnf, name="f.cnf"):
    p = tmp_path / name
    p.write_text(serialize.emit_dimacs(cnf))
    return str(p)


def test_cli_reduce_and_check(tmp_path):
    src = _write_cnf(tmp_path, PHI)
    art = tmp_path / "artifact.json"
    rc = main([
        "reduce", src, "--edge", "3sat-vc", "--lb", "x3",
        "--artifact", str(art),
    ])
    assert rc == 0
    rc = main(["check", str(art), "--what", "all"])
    assert rc == 0


def test_cli_reduce_chain(tmp_path):
    src = _write_cnf(tmp_path, PHI)
    art = tmp_path / "artifact.json"
    rc = main([
        "reduce", src, "--chain", "3sat-vc,vc-ds", "--artifact", str(art),
    ])
    assert rc == 0
    doc = json.loads(art.read_text())
    assert doc["kind"] == "blowup"
    assert doc["target"]["kind"] == "ds"


def test_cli_reduce_rejects_wide_clause(tmp_path):
    wide = CnfInstance(4, ((0, 1, 2, 3),))
    src = _write_cnf(tmp_path, wide)
    rc = main(["reduce", src, "--edge", "3sat-vc"])
    assert rc == 2


def test_cli_reduce_rejects_bad_chain(tmp_path):
    src = _write_cnf(tmp_path, PHI)
    rc = main(["reduce", src, "--chain", "vc-ds,3sat-vc"])
    assert rc == 3


def test_cli_reduce_chain_names_the_source_kind_it_expects(tmp_path, capsys):
    src = _write_cnf(tmp_path, PHI)
    assert main(["reduce", src, "--chain", "3sat-vc,vc-ds,vc-hs"]) == 3
    err = capsys.readouterr().err
    assert err == "composition error: edge vc-hs expects a vc source, got ds\n"


def test_cli_reduce_takes_a_width_3_cnf_into_sat_3sat(tmp_path, capsys):
    # PHI reads as 3sat, and a CNF flows into either SAT edge
    src = _write_cnf(tmp_path, PHI)
    assert main(["reduce", src, "--edge", "sat-3sat"]) == 0
    assert "reduced 3sat -> 3sat" in capsys.readouterr().out


@pytest.mark.parametrize("spec", ["x1,abc", "1.5"])
def test_cli_reduce_bad_lb_token_is_format_error(tmp_path, capsys, spec):
    src = _write_cnf(tmp_path, PHI)
    assert main(["reduce", src, "--edge", "3sat-vc", "--lb", spec]) == 2
    err = capsys.readouterr().err
    bad = spec.split(",")[-1]
    assert "--lb" in err and repr(bad) in err and "Traceback" not in err


def test_cli_reduce_negative_beta_is_format_error(tmp_path, capsys):
    src = _write_cnf(tmp_path, PHI)
    assert main(["reduce", src, "--edge", "3sat-vc", "--beta", "-3"]) == 2
    err = capsys.readouterr().err
    assert "--beta -3" in err


def test_cli_fuzz_negative_injected_beta_is_format_error(capsys):
    rc = main(["fuzz", "--edges", "3sat-vc", "--count", "1", "--inject-beta", "-1"])
    assert rc == 2
    assert "--inject-beta -1" in capsys.readouterr().err


def test_cli_check_detects_tampering(tmp_path):
    art = build_blowup("3sat-vc", PHI, 0, HAM)
    doc = serialize.artifact_to_doc(art)
    doc["target"]["payload"]["k"] = 4
    p = tmp_path / "bad.json"
    p.write_text(serialize.dumps(doc))
    assert main(["check", str(p)]) == 1


def _preserving_doc():
    art = build_preserving("vc-sc", VertexCoverInstance(3, ((0, 1), (1, 2)), 1))
    return serialize.artifact_to_doc(art)


def _blowup_doc():
    return serialize.artifact_to_doc(build_blowup("3sat-vc", PHI, 0, HAM))


def _set_payload_k(doc):
    doc["target"]["payload"]["k"] = "x"


@pytest.mark.parametrize(
    "base, change, key",
    [
        (_preserving_doc, {"f": "ab"}, "'f'"),
        (_preserving_doc, {"f": [99]}, "'f'"),
        (_preserving_doc, _set_payload_k, "payload"),
        (_preserving_doc, {"l_b": [-1]}, "'l_b'"),
        (_preserving_doc, {"l_b": [99]}, "'l_b'"),
        (_preserving_doc, {"kind": 5}, "kind"),
        (_blowup_doc, {"beta": {"hamming": "x", "kappa_addition": 2,
                                "kappa_deletion": 2}}, "'beta'"),
        (_preserving_doc, {"f": [True, 1, 2]}, "'f'"),
        (_preserving_doc, {"f": [0, 1]}, "'f'"),
        (_preserving_doc, {"u_on": [3]}, "'u_on'"),  # one past the last
        (_preserving_doc, {"u_off": ["x"]}, "'u_off'"),
        (_blowup_doc, {"beta": {"hamming": 2}}, "'beta'"),
        (_blowup_doc, {"beta": {"hamming": -1, "kappa_addition": 2,
                                "kappa_deletion": 2}}, "'beta'"),
        (_preserving_doc, {"f": [0, 0, 2]}, "'f'"),
    ],
    ids=["f-str", "f-99", "payload-k-str", "l_b-neg", "l_b-99", "kind-5",
         "beta-str", "f-bool", "f-short", "u_on-3", "u_off-str",
         "beta-partial", "beta-neg", "f-repeat"],
)
def test_cli_check_malformed_artifact_is_format_error(tmp_path, capsys, base,
                                                      change, key):
    doc = base()
    p = tmp_path / "a.json"
    p.write_text(serialize.dumps(doc))
    assert main(["check", str(p)]) == 0
    capsys.readouterr()
    if callable(change):
        change(doc)
    else:
        doc.update(change)
    p.write_text(json.dumps(doc))
    assert main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "edge, key",
    [("vc-pcenter", "service"), ("vc-pmedian", "service"),
     ("vc-ufl", "open_costs"), ("uhamcycle-tsp", "weights")],
)
def test_cli_check_non_integer_payload_element_is_format_error(
    tmp_path, capsys, edge, key
):
    src = random_source_for_edge(edge, random.Random(edge))
    doc = serialize.artifact_to_doc(build_preserving(edge, src))
    field = doc["target"]["payload"][key]
    if type(field[0]) is list:
        field[0][0] = "x"
    else:
        field[0] = "x"
    p = tmp_path / "a.json"
    p.write_text(json.dumps(doc))
    assert main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert "Traceback" not in err


def test_cli_check_report_keeps_solution_counts(tmp_path, capsys):
    art = build_blowup("3sat-vc", PHI, mask_of([2, 5]), HAM)
    p = tmp_path / "a.json"
    p.write_text(serialize.dumps(serialize.artifact_to_doc(art)))
    r = tmp_path / "r.json"
    assert main(["check", str(p), "--report", str(r)]) == 0
    verdicts = json.loads(r.read_text())["verdicts"]
    want = dict(check_artifact(art))
    assert set(verdicts) == set(want)
    for name, v in want.items():
        assert verdicts[name]["source_solutions"] == v.source_solutions
        assert verdicts[name]["target_solutions"] == v.target_solutions
    assert verdicts["ssp"]["source_solutions"] > 0
    assert verdicts["ssp"]["target_solutions"] > 0
    assert main(["report", str(r)]) == 0
    assert '"target_solutions": ' in capsys.readouterr().out


def test_cli_check_capacity_exit(tmp_path):
    art = build_blowup("3sat-vc", PHI, 0, HAM)
    p = tmp_path / "a.json"
    p.write_text(serialize.dumps(serialize.artifact_to_doc(art)))
    assert main(["check", str(p), "--max-solutions", "1"]) == 4


def test_cli_zero_max_solutions_is_a_cap(tmp_path):
    # a cap of 0 admits no solution; it used to read as "no flag"
    args = ["fuzz", "--edges", "3sat-vc", "--count", "2"]
    assert main(args + ["--max-solutions", "1"]) == 4
    assert main(args + ["--max-solutions", "0"]) == 4
    art = build_blowup("3sat-vc", PHI, 0, HAM)
    p = tmp_path / "a.json"
    p.write_text(serialize.dumps(serialize.artifact_to_doc(art)))
    assert main(["check", str(p), "--max-solutions", "0"]) == 4


@pytest.mark.parametrize("flag", ["--max-universe", "--max-solutions"])
@pytest.mark.parametrize("command", ["check", "fuzz", "solve"])
def test_cli_negative_bound_flag_is_format_error(tmp_path, capsys, flag, command):
    art = build_blowup("3sat-vc", PHI, 0, HAM)
    p = tmp_path / "a.json"
    if command == "solve":
        p.write_text(serialize.dumps(serialize.instance_to_doc(art.target_kind, art.target)))
    else:
        p.write_text(serialize.dumps(serialize.artifact_to_doc(art)))
    head = ["fuzz", "--edges", "3sat-vc", "--count", "1"] if command == "fuzz" else [
        command, str(p)
    ]
    assert main(head + [flag, "-1"]) == 2
    err = capsys.readouterr().err
    assert f"{flag} -1 is negative" in err and "Traceback" not in err


def test_cli_solve_comb_rr(tmp_path, capsys):
    comb = CombRrInstance(
        ProblemKind.VERTEX_COVER,
        VertexCoverInstance(3, ((0, 1), (0, 2), (1, 2)), 2),
        0,
        0,
        0,
        HAM,
    )
    p = tmp_path / "comb.json"
    p.write_text(serialize.dumps(serialize.comb_rr_to_doc(comb)))
    assert main(["solve", str(p), "--problem", "comb-rr"]) == 0
    assert "answer: yes" in capsys.readouterr().out


def test_cli_solve_comb_rr_past_the_blocker_cap_exits_4(tmp_path, capsys):
    # 56 blockers of at most 2 of 10 blockable vertices, against a cap of 10
    star = VertexCoverInstance(10, tuple((0, v) for v in range(1, 10)), 1)
    comb = CombRrInstance(ProblemKind.VERTEX_COVER, star, (1 << 10) - 1, 2, 10, HAM)
    p = tmp_path / "comb.json"
    p.write_text(serialize.dumps(serialize.comb_rr_to_doc(comb)))
    args = ["solve", str(p), "--problem", "comb-rr"]
    assert main(args + ["--max-solutions", "10"]) == 4
    err = capsys.readouterr().err
    assert err == "capacity error: blocker count exceeds the enumeration cap\n"
    assert main(args + ["--max-solutions", "56"]) == 0
    assert "answer: no" in capsys.readouterr().out


def test_cli_fuzz_deterministic(tmp_path, capsys):
    args = ["fuzz", "--edges", "3sat-is,subsetsum-partition", "--count", "4",
            "--seed", "9", "--report", str(tmp_path / "r.json")]
    assert main(args) == 0
    first = (tmp_path / "r.json").read_text()
    assert main(args) == 0
    assert (tmp_path / "r.json").read_text() == first


def test_cli_fuzz_injected_beta_fails(tmp_path):
    rc = main([
        "fuzz", "--edges", "3sat-vc", "--count", "3", "--seed", "1",
        "--inject-beta", "0", "--replay", str(tmp_path / "cx.json"),
    ])
    assert rc == 1
    assert (tmp_path / "cx.json").exists()


def test_cli_fuzz_zero_count(tmp_path):
    assert main(["fuzz", "--edges", "3sat-vc", "--count", "0"]) == 0


def test_cli_fuzz_negative_count_is_format_error(capsys):
    # it used to run no case and report "fuzz: 0 cases passed"
    assert main(["fuzz", "--edges", "3sat-vc", "--count", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--count -1 is negative" in err and "Traceback" not in err


def test_cli_report(tmp_path, capsys):
    p = tmp_path / "r.json"
    p.write_text(json.dumps({"command": "fuzz", "cases_run": 3, "failures": []}))
    assert main(["report", str(p)]) == 0
    out = capsys.readouterr().out
    assert "fuzz" in out and "cases_run" in out


@pytest.mark.parametrize("text", ["[]", "3", '"fuzz"', "null"])
def test_cli_report_rejects_non_object(tmp_path, capsys, text):
    p = tmp_path / "r.json"
    p.write_text(text)
    assert main(["report", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_solve_nominal_and_games(tmp_path, capsys):
    cnf = CnfInstance(3, ((0, 1, 2),))
    p = tmp_path / "f.cnf"
    p.write_text(serialize.emit_dimacs(cnf))
    assert main(["solve", str(p), "--problem", "nominal"]) == 0
    assert "answer: yes" in capsys.readouterr().out

    from sspforge.rr import RAdjSatInstance

    game = RAdjSatInstance(cnf, (0,), (1,), (2,), 1)
    g = tmp_path / "game.json"
    g.write_text(serialize.dumps(serialize.radjsat_to_doc(game)))
    assert main(["solve", str(g), "--problem", "radjsat"]) == 0
    assert "answer: yes" in capsys.readouterr().out

    eae = {"cnf": serialize.instance_payload(ProblemKind.THREE_SAT, cnf),
           "x": [0], "y": [1], "z": [2]}
    e = tmp_path / "eae.json"
    e.write_text(serialize.dumps(eae))
    assert main(["solve", str(e), "--problem", "eae-sat"]) == 0

    from sspforge.rr import CombRrInstance, comb_to_cost_rr

    comb = CombRrInstance(
        ProblemKind.VERTEX_COVER,
        VertexCoverInstance(3, ((0, 1), (0, 2), (1, 2)), 2),
        mask_of([0]), 1, 2, DistanceMeasure.HAMMING,
    )
    c = tmp_path / "cost.json"
    c.write_text(serialize.dumps(serialize.cost_rr_to_doc(comb_to_cost_rr(comb))))
    assert main(["solve", str(c), "--problem", "cost-rr"]) == 0
    assert "answer: yes" in capsys.readouterr().out


def _solve_doc(tmp_path, doc, problem):
    p = tmp_path / f"{problem}.json"
    p.write_text(json.dumps(doc))
    return main(["solve", str(p), "--problem", problem])


def test_cli_solve_cost_rr_lists_feasible_sets_past_the_powerset_bound(
    tmp_path, capsys
):
    # c1 differs from c_lo, so F(I) is listed, not streamed: the covers of
    # K_26 within 25 vertices answer to the vertex bound of S(I), not to a
    # powerset bound of 24 below the universe.  A first stage of 25
    # vertices (50) recovers from any raised vertex by the 25 others (25)
    n = 26
    inst = CostRrInstance(
        ProblemKind.VERTEX_COVER,
        VertexCoverInstance(n, complete_edges(n), n - 1),
        (2,) * n, (1,) * n, (3,) * n, 75, 1, 2, DistanceMeasure.HAMMING,
    )
    assert _solve_doc(tmp_path, serialize.cost_rr_to_doc(inst), "cost-rr") == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "value: 75", "answer: yes (threshold 75)"
    ]
    _assert_cost_rr_equals_loop(inst)


@pytest.mark.parametrize("problem", ["radjsat", "eae-sat"])
def test_cli_solve_game_past_the_assignment_bound_exits_4(tmp_path, capsys,
                                                          problem):
    # both games walked all 2^18 assignments of an 18-variable formula with
    # no limit; they now answer to the 3SAT enumerator's variable guard
    cnf = CnfInstance(18, ((0, 6, 12),))
    x, y, z = [*range(6)], [*range(6, 12)], [*range(12, 18)]
    doc = {"cnf": serialize.instance_payload(ProblemKind.THREE_SAT, cnf),
           "x": x, "y": y, "z": z}
    if problem == "radjsat":
        doc = serialize.radjsat_to_doc(
            RAdjSatInstance(cnf, tuple(x), tuple(y), tuple(z), 1)
        )
    assert _solve_doc(tmp_path, doc, problem) == 4
    err = capsys.readouterr().err
    assert "18 variables exceed the assignment bound" in err
    assert "Traceback" not in err


def _rr_docs():
    cnf = CnfInstance(3, ((0, 1, 2),))
    comb = CombRrInstance(
        ProblemKind.VERTEX_COVER,
        VertexCoverInstance(3, ((0, 1), (0, 2), (1, 2)), 2),
        mask_of([0]), 1, 2, HAM,
    )
    return {
        "comb-rr": serialize.comb_rr_to_doc(comb),
        "cost-rr": serialize.cost_rr_to_doc(comb_to_cost_rr(comb)),
        "radjsat": serialize.radjsat_to_doc(
            RAdjSatInstance(cnf, (0,), (1,), (2,), 1)
        ),
        "eae-sat": {
            "cnf": serialize.instance_payload(ProblemKind.THREE_SAT, cnf),
            "x": [0], "y": [1], "z": [2],
        },
    }


@pytest.mark.parametrize(
    "problem, key",
    [("comb-rr", "blockable"), ("cost-rr", "c_hi"), ("radjsat", "y"),
     ("eae-sat", "z")],
)
def test_cli_solve_missing_key_is_format_error(tmp_path, capsys, problem, key):
    doc = _rr_docs()[problem]
    assert _solve_doc(tmp_path, doc, problem) == 0
    capsys.readouterr()
    del doc[key]
    assert _solve_doc(tmp_path, doc, problem) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(key) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("problem", ["eae-sat", "radjsat"])
@pytest.mark.parametrize(
    "parts",
    [{"x": ["a"]}, {"x": [-1]}, {"x": [0, 1, 2, 3]}, {"x": [0, 1]},
     {"y": [True]}, {"z": [2, 2]}],
    ids=["str", "negative", "extra", "overlap", "bool", "repeat"],
)
def test_cli_solve_parts_must_partition_the_variables(tmp_path, capsys, problem,
                                                      parts):
    # eae-sat took its parts as given: a traceback on "a", and an answer on
    # the rest; radjsat took a bool for a variable and a variable twice
    doc = _rr_docs()[problem]
    doc.update(parts)
    assert _solve_doc(tmp_path, doc, problem) == 2
    err = capsys.readouterr().err
    assert "X, Y, Z must partition the variables" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "blockable", [[-1], [True], [3], [0, "1"], 0],
    ids=["negative", "bool", "outside", "str", "int"],
)
def test_cli_solve_comb_rr_bad_blockable_is_format_error(tmp_path, capsys,
                                                         blockable):
    # a negative index used to exit 1, and true read as element 1
    doc = _rr_docs()["comb-rr"]
    doc["blockable"] = blockable
    assert _solve_doc(tmp_path, doc, "comb-rr") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad comb-rr document: 'blockable' must list")
    assert "Traceback" not in err


def test_cli_solve_subsetsum_without_target_is_format_error(tmp_path, capsys):
    doc = _rr_docs()["cost-rr"]
    doc["kind"] = "subsetsum"
    doc["payload"] = {"values": [1, 2, 3]}
    assert _solve_doc(tmp_path, doc, "cost-rr") == 2
    assert "'target'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "problem, key",
    [("comb-rr", "gamma"), ("comb-rr", "kappa"), ("cost-rr", "gamma"),
     ("cost-rr", "kappa"), ("radjsat", "gamma")],
)
def test_cli_solve_negative_budget_is_format_error(tmp_path, capsys, problem, key):
    doc = _rr_docs()[problem]
    doc[key] = -1
    assert _solve_doc(tmp_path, doc, problem) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("uhamcycle", {"n": 3, "edges": [[0, 1], [1, 2], [2, 9]]}),
        ("uhamcycle", {"n": 3, "edges": [[0, 1], [1, 2], [0, 0]]}),
        ("uhamcycle", {"n": 3, "edges": [[0, 1], [1, 2], [2, 0], [1, 0]]}),
        ("uhamcycle", {"n": 3, "edges": [[0, 1, 2], [1, 2], [2, 0]]}),
        ("2ddp", {"n": 5, "arcs": [[0, 1], [2, 3]], "pairs": [[0, 1, 4], [2, 3]]}),
        ("2ddp", {"n": 4, "arcs": [[0, 1], [2, 3]], "pairs": [[0, 9], [2, 3]]}),
        ("vc", {"n": 3, "edges": [[0, 1]], "k": [1]}),
        ("steinertree",
         {"n": 2, "edges": [[0, 1]], "costs": [1], "terminals": 0, "k": 1}),
        ("steinertree",
         {"n": 2, "edges": [[0, 1]], "costs": [1], "terminals": [0, 9], "k": 1}),
    ],
    ids=["uhc-range", "uhc-loop", "uhc-duplicate", "uhc-3-entry", "2ddp-3-entry",
         "2ddp-range", "vc-k-list", "steiner-terminals-int", "steiner-terminal-range"],
)
def test_cli_solve_malformed_instance_is_format_error(tmp_path, capsys, kind, payload):
    doc = {"schema_version": 1, "kind": kind, "payload": payload}
    assert _solve_doc(tmp_path, doc, "nominal") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_solve_2ddp_with_three_pairs_is_format_error(tmp_path, capsys):
    # a 2ddp document was solved whatever its pair count; kddp takes any
    pairs = [[0, 1], [2, 3], [4, 5]]
    doc = {"schema_version": 1, "kind": "2ddp",
           "payload": {"n": 6, "arcs": pairs, "pairs": pairs}}
    assert _solve_doc(tmp_path, doc, "nominal") == 2
    assert capsys.readouterr().err == "error: 3 terminal pairs, expected 2\n"
    doc["kind"] = "kddp"
    assert _solve_doc(tmp_path, doc, "nominal") == 0
    assert capsys.readouterr().out.startswith("answer: yes")


def test_cli_solve_cost_rr_on_a_kind_without_costs_is_format_error(tmp_path, capsys):
    # a SAT document reached the evaluator, which refused it with exit 1
    doc = _rr_docs()["cost-rr"]
    doc["kind"] = "sat"
    doc["payload"] = _rr_docs()["eae-sat"]["cnf"]
    for key in ("c1", "c_lo", "c_hi"):
        doc[key] = [0] * 6
    assert _solve_doc(tmp_path, doc, "cost-rr") == 2
    err = capsys.readouterr().err
    assert err == "error: cost recoverable robustness needs an LOP kind, got sat\n"


@pytest.mark.parametrize(
    "key, value",
    [("t_rr", "x"), ("t_rr", None), ("t_rr", 1.5), ("t_rr", True), ("gamma", True)],
)
def test_cli_solve_cost_rr_non_integer_is_format_error(tmp_path, capsys, key, value):
    doc = _rr_docs()["cost-rr"]
    doc[key] = value
    assert _solve_doc(tmp_path, doc, "cost-rr") == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err


def test_env_bounds(monkeypatch):
    from sspforge.core import Bounds

    monkeypatch.setenv("SSPFORGE_MAX_UNIVERSE", "10")
    monkeypatch.setenv("SSPFORGE_MAX_SOLUTIONS", "99")
    b = Bounds.from_env()
    assert b.max_universe == 10 and b.max_solutions == 99


@pytest.mark.parametrize("var", ["SSPFORGE_MAX_UNIVERSE", "SSPFORGE_MAX_SOLUTIONS"])
@pytest.mark.parametrize("value", ["abc", "-1"])
def test_bad_env_bounds_are_format_errors(monkeypatch, capsys, var, value):
    from sspforge.core import Bounds, FormatError

    monkeypatch.setenv(var, value)
    with pytest.raises(FormatError, match=var):
        Bounds.from_env()
    assert main(["fuzz", "--edges", "3sat-vc", "--count", "1"]) == 2
    err = capsys.readouterr().err
    assert var in err and "Traceback" not in err


def test_bad_env_bounds_do_not_break_import():
    import os
    import subprocess
    import sys

    import sspforge

    src = os.path.dirname(os.path.dirname(sspforge.__file__))
    env = dict(os.environ, SSPFORGE_MAX_UNIVERSE="abc", SSPFORGE_MAX_SOLUTIONS="x1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sspforge.core as c; print(c.DEFAULT_BOUNDS == c.Bounds())"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"


def test_cli_reduce_unknown_file(tmp_path):
    assert main(["reduce", str(tmp_path / "missing.cnf"), "--edge", "3sat-vc"]) == 2


@pytest.mark.parametrize(
    "command, name, content",
    [
        ("solve", "lit.cnf", b"p cnf 2 1\n1 x 0\n"),
        ("solve", "header.cnf", b"p cnf a 1\n1 0\n"),
        ("solve", "dir", None),
        ("solve", "bytes.json", b"\xff\xfe{}"),
        ("check", "bytes.json", b"\xff\xfe{}"),
    ],
    ids=["dimacs-literal", "dimacs-header", "directory", "solve-bytes",
         "check-bytes"],
)
def test_cli_unreadable_input_is_format_error(tmp_path, capsys, command, name,
                                              content):
    """A non-integer DIMACS token, a directory or bytes that are not text
    end in exit code 2 and one error line, not a traceback."""
    p = tmp_path / name
    if content is None:
        p.mkdir()
    else:
        p.write_bytes(content)
    assert main([command, str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("vc", {"n": -3, "edges": [], "k": 1}),
        ("fas", {"n": -1, "arcs": [], "k": 0}),
        ("3sat", {"n_vars": -1, "clauses": []}),
        ("tsp", {"n": -2, "weights": [1, 2, 3], "k": 5}),
        ("dhamcycle", {"n": -1, "arcs": []}),
        ("sc", {"ground_size": -1, "subsets": [], "k": 0}),
        ("hs", {"ground_size": -2, "subsets": [], "k": 0}),
        ("ufl", {"n_facilities": 0, "n_clients": -1, "open_costs": [],
                 "service": [], "k": 5}),
        ("pcenter", {"n_facilities": -1, "n_clients": 0, "service": [],
                     "p": 1, "k": 0}),
    ],
    ids=["vc", "fas", "3sat", "tsp", "dhamcycle", "sc", "hs", "ufl-clients",
         "pcenter-facilities"],
)
def test_cli_solve_negative_count_is_format_error(tmp_path, capsys, kind, payload):
    doc = {"schema_version": 1, "kind": kind, "payload": payload}
    assert _solve_doc(tmp_path, doc, "nominal") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be non-negative" in err
    assert "Traceback" not in err


# 3sat-subsetsum pipelines of 18 target elements and their cost-RR answers
# (value, answer, first-stage lines); the first stages tie on c1 with other
# exact subset sums, so the least mask among them is the witness
COST_RR_PIPELINES = [
    (
        RAdjSatInstance(CnfInstance(3, ((5, 0, 2), (4, 5, 5))), (2,), (1,), (0,), 2),
        DistanceMeasure.KAPPA_ADDITION,
        [
            "value: 2222222222288",
            "answer: yes (threshold 2222222222288)",
            "first-stage: [0, 4, 5, 10, 11, 12, 13, 15, 17]",
        ],
    ),
    (
        RAdjSatInstance(CnfInstance(3, ((4, 4, 2), (1, 2, 1))), (0,), (2,), (1,), 2),
        DistanceMeasure.KAPPA_DELETION,
        [
            "value: 2222222222345",
            "answer: no (threshold 2222222222288)",
            "first-stage: [0, 1, 2, 6, 7, 8, 9, 14, 15, 17]",
        ],
    ),
]


@pytest.mark.parametrize("game, measure, lines", COST_RR_PIPELINES, ids=["yes", "no"])
def test_cli_solve_cost_rr_pipeline_witness(tmp_path, capsys, game, measure, lines):
    comb = radjsat_to_comb_rr(game, "3sat-subsetsum", measure)
    doc = serialize.cost_rr_to_doc(comb_to_cost_rr(comb))
    assert _solve_doc(tmp_path, doc, "cost-rr") == 0
    assert capsys.readouterr().out.splitlines() == lines


def _mutation_bases():
    """(command, problem, valid document) for instances, artifacts and each
    rr problem, small enough that any mutation of them runs in
    milliseconds."""
    cnf = CnfInstance(3, ((0, 1, 2),))
    art = build_blowup("3sat-vc", cnf, 0, HAM)
    docs = [("check", None, serialize.artifact_to_doc(art))]
    rng = random.Random("mutation")
    for edge in ("vc-hs", "3sat-steinertree", "3sat-dhampath"):
        src = random_source_for_edge(edge, rng)
        if edge in BLOWUP_EDGES:
            art = build_blowup(edge, src, 0, HAM)
        else:
            art = build_preserving(edge, src)
            docs.append(("check", None, serialize.artifact_to_doc(art)))
        doc = serialize.instance_to_doc(art.target_kind, art.target)
        docs.append(("solve", "nominal", doc))
    for problem, doc in _rr_docs().items():
        docs.append(("solve", problem, doc))
    return docs


try:
    import copy
    import functools
    import operator

    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    def _positions(x, path=()):
        """The path of every dict value and list item in a document."""
        if type(x) is dict:
            items = x.items()
        else:
            items = enumerate(x) if type(x) is list else ()
        for key, v in items:
            yield path + (key,)
            yield from _positions(v, path + (key,))

    _MUTATION_BASES = _mutation_bases()
    _replacements = (
        st.integers(-3, 40)
        | st.booleans()
        | st.text(max_size=2)
        | st.lists(st.integers(-3, 40), max_size=3)
    )

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_cli_survives_mutated_documents(tmp_path, data):
        """Documents with dropped keys, or strings, lists, bools or small and
        negative integers in place of their values, end in an exit code,
        never in an escaping exception."""
        command, problem, doc = data.draw(st.sampled_from(_MUTATION_BASES))
        doc = copy.deepcopy(doc)
        for _ in range(data.draw(st.integers(1, 3))):
            positions = list(_positions(doc))
            if not positions:
                break
            *path, key = data.draw(st.sampled_from(positions))
            parent = functools.reduce(operator.getitem, path, doc)
            if type(parent) is dict and data.draw(st.booleans()):
                del parent[key]
            else:
                parent[key] = data.draw(_replacements)
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        argv = [command, str(p), "--max-solutions", "1000"]
        if problem:
            argv += ["--problem", problem]
        assert main(argv) in range(5)
except ImportError:  # pragma: no cover - hypothesis is a test extra
    pass
