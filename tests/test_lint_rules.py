"""`repro.lint` rule engine: fixture pairs per rule, suppression
pragmas, unused-suppression detection, JSON round-trip, CLI exit codes,
and the repo-wide gate (``src`` lints clean — the same invariant CI
enforces)."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import lint_paths, lint_source
from repro.lint.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main
from repro.lint.effects import build_project, effects_report
from repro.lint.engine import (
    PARSE_ERROR_ID,
    build_project_for,
    module_name_for,
    resolve_lint_jobs,
)
from repro.lint.reporters import render_json, result_from_json, text_report

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "lint_fixtures"


def lint_fixture(name, modname, **kwargs):
    path = FIXTURES / name
    return lint_source(
        path.read_text(encoding="utf-8"), modname, path=str(path), **kwargs
    )


def rule_lines(result, rule):
    return sorted(f.line for f in result.findings if f.rule == rule)


# -- good/bad fixture pairs per rule ---------------------------------------

# (bad fixture, modname, rule, expected finding lines)
BAD_CASES = [
    ("rl001_bad.py", "repro.vector.kern", "RL001", [8, 12]),
    ("rl002_bad.py", "repro.experiments.figures", "RL002", [4, 7]),
    ("rl003_bad.py", "repro.vector.dp_vec", "RL010", [4, 10, 11, 12]),
    ("rl004_bad.py", "repro.vector.kern", "RL004", [8, 9, 10]),
    ("rl005_bad.py", "repro.vector.sim_vec", "RL011", [8, 11, 12]),
    ("rl006_bad.py", "repro.core.newtest", "RL012", [10, 11, 13]),
    ("rl006_service_bad.py", "repro.service.batcher", "RL012", [10, 11]),
    ("rl007_bad.py", "repro.core.newtest", "RL007", [4]),
    ("rl007_service_bad.py", "repro.incremental.newmod", "RL007", [5]),
    ("rl010_bad.py", "repro.vector.newkern", "RL010", [15, 19, 23]),
    ("rl011_bad.py", "repro.vector.sim_vec", "RL011", [16]),
    ("rl012_bad.py", "repro.core.newtest", "RL012", [16]),
    ("rl013_bad.py", "repro.service.newengine", "RL013", [15, 21]),
]

GOOD_CASES = [
    ("rl001_good.py", "repro.vector.kern"),
    ("rl002_good.py", "repro.experiments.figures"),
    ("rl003_good.py", "repro.gen.custom"),
    ("rl003_passed_generator.py", "repro.experiments.scoring"),
    ("rl004_good.py", "repro.vector.kern"),
    ("rl005_good.py", "repro.vector.sim_vec"),
    ("rl006_good.py", "repro.core.newtest"),
    ("rl006_service_good.py", "repro.service.clock"),
    ("rl007_good.py", "repro.core.newtest"),
    ("rl007_service_good.py", "repro.service.engine"),
    ("rl010_good.py", "repro.vector.newkern"),
    ("rl011_good.py", "repro.vector.sim_vec"),
    ("rl012_good.py", "repro.core.newtest"),
    ("rl013_good.py", "repro.service.newengine"),
]


@pytest.mark.parametrize("name,modname,rule,lines", BAD_CASES)
def test_bad_fixture_flags_rule_at_lines(name, modname, rule, lines):
    result = lint_fixture(name, modname)
    assert rule_lines(result, rule) == lines
    # No stray findings from other rules on these minimal snippets.
    assert {f.rule for f in result.findings} == {rule}


@pytest.mark.parametrize("name,modname", GOOD_CASES)
def test_good_fixture_is_clean(name, modname):
    result = lint_fixture(name, modname)
    assert result.clean, text_report(result)


def test_rules_scope_by_module_identity():
    # The same numpy-importing source is a finding inside repro.vector
    # and legal outside it (RL001), legal in xp.py and search.patterns.
    src = "import numpy as np\n"
    assert not lint_source(src, "repro.gen.custom").findings
    assert not lint_source(src, "repro.vector.xp").findings
    assert not lint_source(src, "repro.search.patterns").findings
    bad = lint_source(src, "repro.vector.kern")
    assert [f.rule for f in bad.findings] == ["RL001"]


def test_rl011_scope_is_the_kernel_pass_modules():
    src = "def f(xs):\n    for x in xs:\n        x.item()\n"
    for mod in ("repro.vector.sim_vec", "repro.vector.placement_vec"):
        assert [f.rule for f in lint_source(src, mod).findings] == ["RL011"]
    # Outside the pass-loop modules the idiom is not banned.
    assert not lint_source(src, "repro.vector.batch").findings


def test_rl007_layer_table_examples():
    # The contracts named in the rule: vector/core never import
    # experiments; model imports nothing above it.
    for mod in ("repro.vector.kern", "repro.core.newtest"):
        r = lint_source("import repro.experiments\n", mod)
        assert [f.rule for f in r.findings] == ["RL007"]
    r = lint_source("from repro.fpga.device import Fpga\n", "repro.model.custom")
    assert [f.rule for f in r.findings] == ["RL007"]
    # Downward is fine, and the scalar-twin exception holds: the
    # offsets module sits above repro.search by explicit table entry.
    assert not lint_source(
        "from repro.search.adaptive import adaptive_pattern_search\n",
        "repro.sim.offsets",
    ).findings
    # ... but the rest of repro.sim does not.
    assert lint_source(
        "from repro.search.adaptive import adaptive_pattern_search\n",
        "repro.sim.simulator",
    ).findings


def test_rl007_relative_imports_resolve():
    src = "from ..experiments import figures\n"
    r = lint_source(src, "repro.core.newtest")
    assert [f.rule for f in r.findings] == ["RL007"]
    # Package __init__ resolves level-1 to itself: repro/sim/__init__.py
    # importing .offsets (layer 7) is sanctioned by its own pin.
    assert not lint_source(
        "from . import offsets\n", "repro.sim", is_package=True
    ).findings


# -- transitive rules & effect fixpoint -------------------------------------

_TRANSITIVE_BAD = [
    ("rl010_bad.py", "repro.vector.newkern"),
    ("rl011_bad.py", "repro.vector.sim_vec"),
    ("rl012_bad.py", "repro.core.newtest"),
    ("rl013_bad.py", "repro.service.newengine"),
]


@pytest.mark.parametrize(
    "rule,modname,imports,call,loop,named",
    [
        ("RL010", "repro.vector.sim_vec", "", "x.uniform()", False,
         ".uniform(...)"),
        ("RL011", "repro.vector.sim_vec", "", "x.tolist()", True,
         ".tolist()"),
        ("RL012", "repro.core.newtest", "import time", "time.time()", False,
         "time.time"),
    ],
    ids=["rng", "host-sync", "wall-clock"],
)
def test_one_rule_reports_direct_and_chained_sites(
    rule, modname, imports, call, loop, named
):
    # A direct hit is a witness chain of length 0: one run of one rule
    # reports the call that performs the effect (line 10, the message
    # names the call) and the call that reaches it through a helper
    # (line 11, the message carries the chain).
    lines = [imports, "", "", "def _helper(x):", f"    return {call}", "", ""]
    lines.append("def f(xs):")
    if loop:
        lines += ["    for x in xs:", f"        y = {call}", "        _helper(x)"]
    else:
        lines += ["    x = xs", f"    y = {call}", "    return _helper(y)"]
    result = lint_source("\n".join(lines) + "\n", modname)
    by_line = {f.line: f for f in result.findings}
    assert {f.rule for f in result.findings} == {rule}
    # _helper's own call (line 5) is a direct hit too, unless the rule
    # only looks inside loops.
    assert sorted(by_line) == ([10, 11] if loop else [5, 10, 11])
    assert named in by_line[10].message and "via" not in by_line[10].message
    assert f"via {modname}._helper" in by_line[11].message


def test_transitive_findings_carry_witness_chains():
    result = lint_fixture("rl010_bad.py", "repro.vector.newkern")
    outer = next(f for f in result.findings if f.line == 19)
    assert "_indirect" in outer.message and "_draw" in outer.message
    result = lint_fixture("rl011_bad.py", "repro.vector.sim_vec")
    assert "_collect" in result.findings[0].message
    result = lint_fixture("rl012_bad.py", "repro.core.newtest")
    assert "_stamp" in result.findings[0].message


def test_import_time_calls_reach_the_transitive_rules(tmp_path):
    # Module-level code runs at import; a draw it reaches is as real as
    # one reached from a function body.
    pkg = tmp_path / "repro" / "vector"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "helper.py").write_text(
        "def jitter(rng):\n    return rng.uniform(0.0, 1.0)\n"
    )
    (pkg / "kern.py").write_text(
        "from repro.vector.helper import jitter\n\n"
        "SEEDED = jitter(None)\n\n\n"
        "def step(rng):\n    return jitter(rng)\n"
    )
    result = lint_paths([str(tmp_path)])
    assert [(f.rule, f.line) for f in result.findings] == [
        ("RL010", 3), ("RL010", 7),
    ]
    assert all("repro.vector.helper.jitter" in f.message
               for f in result.findings)
    # The import-time pseudo-caller never enters the effect summary.
    summary, _ = build_project_for([str(tmp_path)])
    assert "<module>" not in effects_report(summary)
    assert not any("<module>" in q for q in summary.functions)


def test_rl013_names_the_straddled_await():
    result = lint_fixture("rl013_bad.py", "repro.service.newengine")
    by_line = {f.line: f.message for f in result.findings}
    assert "self.resident" in by_line[15] and "await at line 14" in by_line[15]
    assert "self.version" in by_line[21] and "await at line 20" in by_line[21]


def _fixture_modules():
    out = []
    for name, modname in _TRANSITIVE_BAD:
        src = (FIXTURES / name).read_text(encoding="utf-8")
        out.append((modname, ast.parse(src), False))
    return out


def test_fixpoint_is_order_independent():
    modules = _fixture_modules()
    orders = [modules, list(reversed(modules)), modules[2:] + modules[:2]]
    summaries = [build_project(order) for order in orders]
    for s in summaries[1:]:
        assert s.functions == summaries[0].functions
        assert s.calls == summaries[0].calls
        assert effects_report(s) == effects_report(summaries[0])
    # Findings under the shared summary are identical for every order.
    per_order = [
        [
            lint_fixture(name, modname, project=s).findings
            for name, modname in _TRANSITIVE_BAD
        ]
        for s in summaries
    ]
    assert per_order[0] == per_order[1] == per_order[2]


def test_effects_report_matches_checked_in_baseline():
    summary, _ = build_project_for([str(REPO_ROOT / "src")])
    report = effects_report(summary)
    again, _ = build_project_for([str(REPO_ROOT / "src")])
    assert report == effects_report(again)  # byte-stable across runs
    baseline = (REPO_ROOT / "tests" / "lint_effects_baseline.json").read_text(
        encoding="utf-8"
    )
    assert report == baseline, (
        "effect summary drifted from tests/lint_effects_baseline.json; "
        "if intentional, regenerate it: PYTHONPATH=src python -m "
        "repro.lint --effects src --output tests/lint_effects_baseline.json"
    )


# -- suppression pragmas ----------------------------------------------------


def test_suppressed_fixture_is_clean_and_pragmas_all_used():
    result = lint_fixture("suppressed.py", "repro.vector.kern")
    assert result.clean, text_report(result)


def test_file_level_multi_id_suppression():
    result = lint_fixture("suppressed_file_level.py", "repro.vector.kern")
    assert result.clean, text_report(result)


def test_unused_pragmas_are_findings():
    result = lint_fixture("unused_pragma.py", "repro.vector.kern")
    assert [f.rule for f in result.findings] == ["RL008", "RL008"]
    assert rule_lines(result, "RL008") == [4, 6]
    assert "unused" in result.findings[0].message


def test_pragmas_naming_unknown_rules_are_findings():
    # A typo and an ID retired by the RL003/RL005/RL006 fold name no
    # rule at all: RL008 reports them whatever --select ran.
    src = (
        "x = 1  # repro-lint: disable=RL099 -- typo\n"
        "# repro-lint: disable=RL003 -- retired\n"
        "y = 2\n"
    )
    for select in (None, ["RL001", "RL008"]):
        result = lint_source(src, "repro.vector.kern", select=select)
        assert [(f.rule, f.line) for f in result.findings] == [
            ("RL008", 1), ("RL008", 2),
        ]
        assert "unknown rule RL099" in result.findings[0].message
        assert "unknown rule RL003" in result.findings[1].message
    # With RL008 itself deselected nothing reports them.
    assert lint_source(src, "repro.vector.kern", ignore=["RL008"]).clean


def test_pragmas_naming_meta_rules_are_findings():
    # RL008 findings are added after suppression and a parse error ends
    # the file before it, so a pragma for either meta-rule can never
    # match: it is an unused pragma whenever RL008 runs.
    src = (
        "x = 1  # repro-lint: disable=RL008 -- meta\n"
        "y = 2  # repro-lint: disable=RL009 -- meta\n"
    )
    for select in (None, ["RL001", "RL008"]):
        result = lint_source(src, "repro.vector.kern", select=select)
        assert [(f.rule, f.line) for f in result.findings] == [
            ("RL008", 1), ("RL008", 2),
        ]
        assert "unused suppression of RL008" in result.findings[0].message
        assert "unused suppression of RL009" in result.findings[1].message
    assert lint_source(src, "repro.vector.kern", ignore=["RL008"]).clean


def test_draw_on_any_receiver_is_rl010():
    # The method name decides, not the receiver's shape: a subscript or
    # a call result is as much a generator as a plain name.
    src = (
        "def f(rngs, make):\n"
        "    a = rngs[0].uniform()\n"
        "    b = make().uniform()\n"
        "    return a, b\n"
        "\n"
        "\n"
        "def g(rngs):\n"
        "    return f(rngs, None)\n"
    )
    result = lint_source(src, "repro.vector.sim_vec")
    assert rule_lines(result, "RL010") == [2, 3, 8]
    assert "via repro.vector.sim_vec.f" in result.findings[-1].message
    project = build_project([("repro.vector.sim_vec", ast.parse(src), False)])
    assert "RNG" in project.effects_of("repro.vector.sim_vec.f")


def test_pragma_in_string_is_inert():
    result = lint_fixture("pragma_in_docstring.py", "repro.vector.kern")
    assert result.clean, text_report(result)


def test_suppression_does_not_leak_across_lines():
    src = (
        "import numpy  # repro-lint: disable=RL001 -- this line only\n"
        "import numpy.random\n"
    )
    result = lint_source(src, "repro.vector.kern")
    assert [(f.rule, f.line) for f in result.findings] == [("RL001", 2)]


def test_syntax_error_reported_as_rl009():
    result = lint_fixture("rl009_syntax_error.py", "repro.vector.kern")
    assert [f.rule for f in result.findings] == [PARSE_ERROR_ID]
    assert "syntax error" in result.findings[0].message


# -- reporters --------------------------------------------------------------


def test_json_report_round_trips():
    result = lint_fixture("rl001_bad.py", "repro.vector.kern")
    rebuilt = result_from_json(render_json(result))
    assert rebuilt.findings == result.findings
    assert rebuilt.files_checked == result.files_checked
    assert not rebuilt.clean


def test_json_report_shape():
    obj = json.loads(render_json(lint_fixture("rl001_bad.py", "repro.vector.kern")))
    assert obj["version"] == 1
    assert obj["clean"] is False
    assert obj["counts_by_rule"] == {"RL001": 2}
    assert {"path", "line", "col", "rule", "message"} <= set(obj["findings"][0])


def test_text_report_location_format():
    result = lint_fixture("rl001_bad.py", "repro.vector.kern")
    first = text_report(result).splitlines()[0]
    assert first.startswith(f"{FIXTURES / 'rl001_bad.py'}:8:0: RL001 ")


# -- engine plumbing --------------------------------------------------------


def test_module_name_resolution_from_real_tree():
    assert module_name_for(str(REPO_ROOT / "src/repro/vector/xp.py")) == (
        "repro.vector.xp"
    )
    assert module_name_for(str(REPO_ROOT / "src/repro/sim/__init__.py")) == (
        "repro.sim"
    )
    assert module_name_for(str(REPO_ROOT / "scripts/regenerate_results.py")) == (
        "regenerate_results"
    )


def test_select_and_ignore():
    result = lint_fixture("rl003_bad.py", "repro.vector.dp_vec", select=["RL001"])
    assert result.clean  # the RL010 findings are deselected
    result = lint_fixture("rl003_bad.py", "repro.vector.dp_vec", ignore=["RL010"])
    assert result.clean
    with pytest.raises(ValueError, match="unknown rule"):
        lint_fixture("rl003_bad.py", "repro.vector.dp_vec", select=["RL999"])
    # --ignore validates too: a typo must not silently no-op (it used
    # to be subtracted without a registry check).
    with pytest.raises(ValueError, match="RL999"):
        lint_fixture("rl003_bad.py", "repro.vector.dp_vec", ignore=["RL999"])


def test_deselected_rules_pragmas_are_not_flagged_unused():
    # suppressed.py carries RL001/RL004 pragmas.  With those rules not
    # run, their pragmas cannot be proven unused — RL008 (active here)
    # must stay quiet rather than flag every deselected-rule pragma.
    result = lint_fixture(
        "suppressed.py", "repro.vector.kern", select=["RL012", "RL008"]
    )
    assert result.clean, text_report(result)


def test_parallel_jobs_matches_serial(tmp_path):
    src = _seed_tree(
        tmp_path,
        "import torch\n\n\ndef f():\n    import numpy\n    return numpy\n",
    )
    (tmp_path / "src" / "repro" / "vector" / "extra.py").write_text(
        "import time\n\n\ndef g():\n    return time.monotonic()\n"
    )
    serial = lint_paths([str(src)])
    for jobs in (2, 3):
        par = lint_paths([str(src)], jobs=jobs)
        assert par.findings == serial.findings
        assert par.files_checked == serial.files_checked
    assert not serial.clean  # the comparison is over real findings


def test_resolve_lint_jobs_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_LINT_JOBS", raising=False)
    assert resolve_lint_jobs() == 1
    monkeypatch.setenv("REPRO_LINT_JOBS", "3")
    assert resolve_lint_jobs() == 3
    assert resolve_lint_jobs(1) == 1  # explicit kwarg beats the env
    monkeypatch.setenv("REPRO_LINT_JOBS", "many")
    with pytest.raises(ValueError, match="REPRO_LINT_JOBS"):
        resolve_lint_jobs()
    with pytest.raises(ValueError, match=">= 1"):
        resolve_lint_jobs(0)


def test_repo_src_is_lint_clean():
    # The CI gate as a tier-1 invariant: the whole tree — library plus
    # benchmarks/examples/scripts — must stay clean.
    result = lint_paths(
        [
            str(REPO_ROOT / p)
            for p in ("src", "benchmarks", "examples", "scripts")
        ]
    )
    assert result.clean, text_report(result)
    assert result.files_checked > 100


# -- CLI --------------------------------------------------------------------


def _seed_tree(tmp_path, kernel_body="def f():\n    return 0\n"):
    pkg = tmp_path / "src" / "repro" / "vector"
    pkg.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "kern.py").write_text(kernel_body)
    return tmp_path / "src"


def test_cli_clean_tree_exits_zero(tmp_path, capsys):
    src = _seed_tree(tmp_path)
    assert main([str(src)]) == EXIT_CLEAN
    assert "clean" in capsys.readouterr().out


@pytest.mark.parametrize(
    "body,rule,line",
    [
        ("import torch\n", "RL002", 1),
        ("def f():\n    import numpy\n", "RL001", 2),
        ("from numpy.random import default_rng\nR = default_rng(0)\n", "RL010", 2),
    ],
)
def test_cli_seeded_violation_exits_nonzero_with_location(
    tmp_path, capsys, body, rule, line
):
    src = _seed_tree(tmp_path, body)
    assert main([str(src)]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    kern = src / "repro" / "vector" / "kern.py"
    assert f"{kern}:{line}:" in out
    assert rule in out


def test_cli_json_output_file(tmp_path, capsys):
    src = _seed_tree(tmp_path, "import torch\n")
    report = tmp_path / "lint-report.json"
    assert main([str(src), "--output", str(report)]) == EXIT_FINDINGS
    rebuilt = result_from_json(report.read_text())
    assert [f.rule for f in rebuilt.findings] == ["RL002"]
    # --format json writes the same report to stdout.
    capsys.readouterr()
    assert main([str(src), "--format", "json"]) == EXIT_FINDINGS
    assert json.loads(capsys.readouterr().out)["counts_by_rule"] == {"RL002": 1}


def test_cli_list_rules_and_errors(tmp_path, capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    listed = sorted(line.split()[0] for line in out.splitlines()
                    if line.startswith("RL"))
    assert listed == ["RL001", "RL002", "RL004", "RL007", "RL008", "RL009",
                      "RL010", "RL011", "RL012", "RL013"]
    # The rules folded into RL010/RL011/RL012 are unknown IDs now.
    assert main(["--select", "RL003", str(tmp_path)]) == EXIT_ERROR
    assert main([str(tmp_path / "missing_dir_or_file")]) == EXIT_ERROR
    assert main(["--select", "RL999", str(tmp_path)]) == EXIT_ERROR
    capsys.readouterr()  # drain before asserting on the next error
    assert main(["--ignore", "RL999", str(tmp_path)]) == EXIT_ERROR
    assert "RL999" in capsys.readouterr().err
    assert main([str(tmp_path), "--jobs", "0"]) == EXIT_ERROR


def test_cli_effects_report(tmp_path, capsys):
    src = _seed_tree(
        tmp_path,
        "import time\n\n\ndef stamp():\n"
        "    return time.monotonic()"
        "  # repro-lint: disable=RL012 -- seeded\n",
    )
    out_file = tmp_path / "effects.json"
    assert main(["--effects", str(src), "--output", str(out_file)]) == EXIT_CLEAN
    obj = json.loads(capsys.readouterr().out)
    assert obj["version"] == 1
    assert obj["functions"]["repro.vector.kern.stamp"] == ["WALL_CLOCK"]
    assert json.loads(out_file.read_text()) == obj


def test_python_dash_m_entry_point(tmp_path):
    src = _seed_tree(tmp_path, "import cupy\n")
    env_src = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(src)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == EXIT_FINDINGS
    assert "RL002" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", str(REPO_ROOT / "src")],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == EXIT_CLEAN, proc.stdout + proc.stderr
