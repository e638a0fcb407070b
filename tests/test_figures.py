"""benchmarks/figures: the table, the runner, the document and the compare.

Cheap by construction: only ``fig06`` (an 11-vertex graph) and ``fig08``
(degree statistics, no solve) are ever run; the full table is CI's
``paper-figures`` job.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from benchmarks.figures import FIGURES
from benchmarks.figures.__main__ import SCHEMA, main

ROOT = Path(__file__).resolve().parent.parent
NO_COUNTERS = hashlib.sha256(b"").hexdigest()


def run(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """Two ``--out`` runs of fig06 and fig08: (exit codes, stdouts, documents)."""
    tmp = tmp_path_factory.mktemp("figures")
    runs = [run("fig06", "fig08", "--out", tmp / f"{i}.json") for i in range(2)]
    docs = [json.loads((tmp / f"{i}.json").read_text(encoding="utf-8"))
            for i in range(2)]
    return [code for code, _ in runs], [text for _, text in runs], docs


class TestTable:
    def test_ids_are_the_ids_experiments_md_heads_its_sections_with(self):
        text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        headed = re.findall(r"^#{2,3} .*\(`([a-z0-9-]+)`\)$", text, re.MULTILINE)
        assert sorted(headed) == sorted(FIGURES)

    def test_ids_are_the_ids_design_section_4_names(self):
        text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        section = text[text.index("## 4. Experiment index"):text.index("## 5. ")]
        named = re.findall(r"\| `([a-z0-9-]+)` \|$", section, re.MULTILINE)
        assert set(named) == set(FIGURES) and len(named) >= len(FIGURES)

    def test_every_entry_states_a_claim_a_check_and_a_digest(self):
        for name, figure in FIGURES.items():
            assert len(figure.claim) > 40 and figure.claim.endswith("."), name
            assert callable(figure.tables) and callable(figure.check), name
            assert re.fullmatch(r"[0-9a-f]{64}", figure.counters), name
        # two figures print no integer column: their literal pins nothing,
        # their shape check and --compare are what hold them (MANIFEST.md)
        assert {n for n, f in FIGURES.items() if f.counters == NO_COUNTERS} == {
            "ablation-partition", "ablation-machine"}

    def test_list_prints_every_id(self):
        code, text = run("--list")
        assert code == 0
        assert [line.split()[0] for line in text.splitlines()] == list(FIGURES)

    def test_unknown_id_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["fig99"])
        assert exit_.value.code == 2 and "fig99" in capsys.readouterr().err


class TestDocument:
    def test_schema(self, documents):
        codes, _, (doc, _) = documents
        assert codes == [0, 0]
        assert doc["schema"] == SCHEMA == "figures/1"
        assert {"host", "commit", "cpus", "numpy"} <= set(doc["fingerprint"])
        assert doc["sizes"] == {"scale": 14, "vpr": 11}
        assert list(doc["figures"]) == ["fig06", "fig08"]
        for name, record in doc["figures"].items():
            assert record["claim"] == FIGURES[name].claim
            assert record["check"] == "holds" and record["pinned"] == "pinned"
            assert record["counters"] == FIGURES[name].counters
            assert all(isinstance(rows, list) and rows
                       for rows in record["tables"].values())

    def test_two_runs_differ_only_in_the_fingerprint(self, documents):
        _, texts, (first, second) = documents
        first, second = copy.deepcopy(first), copy.deepcopy(second)
        first.pop("fingerprint"), second.pop("fingerprint")
        assert first == second
        assert texts[0].split("fingerprint:")[0] == texts[1].split("fingerprint:")[0]

    def test_fig06_reads_exactly_40_against_20_relaxations(self, documents):
        _, texts, (doc, _) = documents
        (rows,) = doc["figures"]["fig06"]["tables"].values()
        assert [r["total_relaxations"] for r in rows] == [40, 20]
        assert [(r["bucket0"], r["bucket2"], r["bucket4"]) for r in rows] == [
            (5, 30, 5), (5, 10, 5)]
        assert "fig06: shape holds; counters pinned" in texts[0]


class TestCompare:
    @pytest.fixture()
    def compare(self, documents, tmp_path):
        parent = documents[2][0]

        def compare(doctor):
            change = copy.deepcopy(parent)
            doctor(change)
            paths = []
            for label, doc in (("parent", parent), ("change", change)):
                paths.append(tmp_path / f"{label}.json")
                paths[-1].write_text(json.dumps(doc), encoding="utf-8")
            return run("--compare", *paths)

        return compare

    @staticmethod
    def row(doc, figure, index):
        (rows,) = doc["figures"][figure]["tables"].values()
        return rows[index]

    def test_identical_documents_exit_0(self, compare):
        code, text = compare(lambda doc: doc["fingerprint"].update(host="elsewhere"))
        assert code == 0 and text.startswith("identical: 2 figures")

    def test_a_moved_integer_is_a_moved_counter(self, compare):
        code, text = compare(
            lambda doc: self.row(doc, "fig06", 1).update(total_relaxations=21))
        assert code == 1
        (line,) = text.splitlines()
        assert line.startswith("fig06 / Fig. 6") and "row 1: counter moved" in line
        assert "total_relaxations 20 -> 21" in line

    def test_a_moved_float_is_a_moved_value(self, compare):
        code, text = compare(
            lambda doc: self.row(doc, "fig08", 4).update(rmat1_skew=141.5))
        assert code == 1
        (line,) = text.splitlines()
        assert line.startswith("fig08 / Fig. 8") and "row 4: value moved" in line

    def test_a_missing_figure_and_a_missing_row_are_named(self, compare):
        code, text = compare(lambda doc: doc["figures"].pop("fig08"))
        assert code == 1 and text.splitlines() == ["fig08: missing from CHANGE"]
        code, text = compare(
            lambda doc: next(iter(doc["figures"]["fig08"]["tables"].values())).pop())
        assert code == 1
        (line,) = text.splitlines()
        assert "row 4: only in PARENT" in line

    def test_documents_at_different_sizes_are_not_compared(self, compare, capsys):
        with pytest.raises(SystemExit) as exit_:
            compare(lambda doc: doc["sizes"].update(scale=12))
        assert exit_.value.code == 2 and "different sizes" in capsys.readouterr().err


class TestVerdicts:
    def test_a_failing_check_exits_1_and_names_the_figure(self, monkeypatch):
        def check(tables):
            assert tables == "never", "the doctored claim"

        monkeypatch.setitem(
            FIGURES, "fig06", dataclasses.replace(FIGURES["fig06"], check=check))
        code, text = run("fig06")
        assert code == 1
        assert "fig06: shape FAILED at test_figures.py" in text
        assert "the doctored claim" in text and "counters pinned" in text
        assert "1 figures, red: fig06" in text

    def test_a_wrong_digest_exits_1_and_names_the_figure(self, monkeypatch):
        monkeypatch.setitem(
            FIGURES, "fig06", dataclasses.replace(FIGURES["fig06"], counters="0" * 64))
        code, text = run("fig06")
        assert code == 1
        assert "fig06: shape holds; counters MOVED" in text
        assert "1 figures, red: fig06" in text

    def test_the_digest_is_skipped_off_the_default_sizes(self, monkeypatch, tmp_path):
        monkeypatch.setitem(
            FIGURES, "fig08", dataclasses.replace(FIGURES["fig08"], counters="0" * 64))
        code, text = run("fig08", "--scale", 10, "--out", tmp_path / "small.json")
        assert code == 0
        assert "counters not compared off the default sizes" in text
        doc = json.loads((tmp_path / "small.json").read_text(encoding="utf-8"))
        assert doc["sizes"] == {"scale": 10, "vpr": 11}
        assert doc["figures"]["fig08"]["pinned"] == "skipped"
        (rows,) = doc["figures"]["fig08"]["tables"].values()
        assert [r["scale"] for r in rows] == [6, 7, 8, 9, 10]
