"""Every rule family fires on its known-bad fixture and stays quiet on
the matching known-clean one.

Fixtures live in ``tests/analysis/fixtures/`` as real ``.py`` files (so
``compileall`` keeps them syntactically honest) but are excluded from
directory walks via ``AnalysisConfig.exclude_dir_names`` — these tests
feed them to :func:`repro.analysis.analyze_source` directly.
"""

import pathlib

import pytest

from repro.analysis import AnalysisConfig, analyze_source

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture_findings(name: str, module: str = "", config: AnalysisConfig | None = None):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    # Absolute-ish fixture path: keeps findings out of the tests/ warn cap.
    return analyze_source(source, path=f"fixture/{name}", module=module, config=config)


def rule_ids(findings) -> set[str]:
    return {f.rule for f in findings}


# -- DET --------------------------------------------------------------------

def test_det_fires_on_bad():
    findings = fixture_findings("det_bad.py")
    ids = rule_ids(findings)
    assert {"DET001", "DET002", "DET003", "DET004"} <= ids
    assert sum(1 for f in findings if f.rule == "DET001") == 2
    assert sum(1 for f in findings if f.rule == "DET002") == 2
    assert sum(1 for f in findings if f.rule == "DET003") == 3
    assert sum(1 for f in findings if f.rule == "DET004") == 2
    assert all(f.severity == "error" for f in findings if f.rule != "DET004")
    assert all(f.severity == "warn" for f in findings if f.rule == "DET004")


def test_det_quiet_on_clean():
    assert fixture_findings("det_clean.py") == []


def test_det003_reports_chain_once():
    findings = analyze_source(
        "import secrets\n\ndef token():\n    return secrets.token_hex(8)\n",
        path="one_chain.py",
    )
    assert [f.rule for f in findings] == ["DET003"]


def test_det005_flags_ambient_numpy_random():
    findings = analyze_source(
        "import numpy as np\n\ndef draw():\n    return np.random.random(8)\n",
        path="np_ambient.py",
    )
    assert [f.rule for f in findings] == ["DET005"]
    assert findings[0].severity == "error"


def test_det005_flags_unseeded_default_rng():
    findings = analyze_source(
        "import numpy as np\n\nrng = np.random.default_rng()\n",
        path="np_unseeded.py",
    )
    assert [f.rule for f in findings] == ["DET005"]


def test_det005_sees_through_import_aliases():
    findings = analyze_source(
        "from numpy.random import default_rng as mk\n\nrng = mk()\n",
        path="np_aliased.py",
    )
    assert [f.rule for f in findings] == ["DET005"]


def test_det005_sees_through_the_package_numpy_handle():
    findings = analyze_source(
        "from repro._numpy import np\n\nrng = np.random.default_rng()\n",
        path="np_handle.py",
    )
    assert [f.rule for f in findings] == ["DET005"]


def test_det005_sanctions_seeded_generator():
    # The vectorized cascade engine's spelling: explicit seed, drawn
    # through the returned Generator — no findings of any kind.
    findings = analyze_source(
        "import numpy as np\n\n"
        "rng = np.random.default_rng(42)\n"
        "x = rng.random(4)\n"
        "y = np.random.default_rng(seed=7).integers(0, 10)\n",
        path="np_seeded.py",
    )
    assert findings == []


def test_det006_flags_builtin_hash_outside_dunder_hash_under_src():
    findings = [f for f in fixture_findings("det_bad.py", module="repro.corpus.fixture")
                if f.rule == "DET006"]
    assert [f.context.split("#")[0].strip() for f in findings] == [
        "return hash(shingle) % buckets", "return hash(value) & 0xFFFF"]
    assert all(f.severity == "error" for f in findings)
    assert fixture_findings("det_clean.py", module="repro.corpus.fixture") == []


def test_det006_is_scoped_to_the_repro_package():
    # tests/, benchmarks/ and loose scripts may bucket by hash() for scratch work.
    for module in ("", "tests.corpus.fixture", "benchmarks.fixture"):
        assert "DET006" not in rule_ids(fixture_findings("det_bad.py", module=module))


# -- SIM --------------------------------------------------------------------

def test_sim_fires_inside_domain():
    findings = fixture_findings("sim_bad.py", module="repro.chain.fixture")
    assert sum(1 for f in findings if f.rule == "SIM001") == 3
    assert sum(1 for f in findings if f.rule == "SIM002") == 1
    assert all(f.severity == "error" for f in findings)


def test_sim_silent_outside_domain():
    # The identical source is fine in a module with no sim clock.
    findings = fixture_findings("sim_bad.py", module="repro.ml.fixture")
    assert not rule_ids(findings) & {"SIM001", "SIM002"}


def test_sim_exempt_module_allows_wall_time():
    # repro.obs deliberately measures host wall time.
    findings = fixture_findings("sim_bad.py", module="repro.obs.fixture")
    assert not rule_ids(findings) & {"SIM001", "SIM002"}


def test_sim_quiet_on_clean():
    assert fixture_findings("sim_clean.py", module="repro.chain.fixture") == []


# -- ALIAS ------------------------------------------------------------------

def test_alias_fires_on_bad():
    findings = fixture_findings("alias_bad.py")
    assert sum(1 for f in findings if f.rule == "ALIAS001") == 2
    assert sum(1 for f in findings if f.rule == "ALIAS002") == 2
    assert all(f.severity == "error" for f in findings if f.rule == "ALIAS001")
    assert all(f.severity == "warn" for f in findings if f.rule == "ALIAS002")


def test_alias_quiet_on_clean():
    # Copies, None defaults, and non-boundary classes are all fine.
    assert fixture_findings("alias_clean.py") == []


def test_alias003_flags_setattr_on_an_instance_the_method_does_not_own():
    findings = [f for f in fixture_findings("alias_bad.py", module="repro.chain.fixture")
                if f.rule == "ALIAS003"]
    assert [f.context.split("#")[0].strip() for f in findings] == [
        'object.__setattr__(tx, "_rwset_digest", digest)',
        'object.__setattr__(frozen, "_wire_size", (0, 0))',
        'object.__setattr__(block, "_merkle_cache", tree)',
    ]
    assert all(f.severity == "error" for f in findings)
    # self, a classmethod's cls(...) and replace(self, ...) are the class's own.
    assert fixture_findings("alias_clean.py", module="repro.chain.fixture") == []


def test_alias003_is_scoped_to_the_repro_package():
    for module in ("", "tests.chain.fixture", "benchmarks.fixture"):
        assert "ALIAS003" not in rule_ids(fixture_findings("alias_bad.py", module=module))


# -- PYF --------------------------------------------------------------------

def test_pyf_fires_on_bad():
    findings = fixture_findings("pyf_bad.py")
    assert sum(1 for f in findings if f.rule == "PYF001") == 1  # math
    assert sum(1 for f in findings if f.rule == "PYF002") == 2  # recods, math_pow
    assert sum(1 for f in findings if f.rule == "PYF003") == 1  # dup json
    assert sum(1 for f in findings if f.rule == "PYF004") == 1
    undefined = sorted(f.message for f in findings if f.rule == "PYF002")
    assert "math_pow" in undefined[0] and "recods" in undefined[1]


def test_pyf_quiet_on_clean():
    # Comprehensions, walrus, class scope, globals, decorators, lambdas,
    # try/except import fallbacks: all legal, none flagged.
    assert fixture_findings("pyf_clean.py") == []


def test_pyf_class_scope_not_visible_in_methods():
    source = (
        "class C:\n"
        "    LIMIT = 3\n"
        "    def ok(self):\n"
        "        return self.LIMIT\n"
        "    def bad(self):\n"
        "        return LIMIT\n"
    )
    findings = analyze_source(source, path="scope.py")
    assert [f.rule for f in findings] == ["PYF002"]
    assert "LIMIT" in findings[0].message


def test_pyf_star_import_bails_out():
    source = "from os.path import *\n\nprint(join('a', 'b'))\n"
    assert analyze_source(source, path="star.py") == []


def test_pyf_init_imports_are_reexports():
    source = "from repro.chain import Peer\n"
    assert analyze_source(source, path="pkg/__init__.py") == []
    assert rule_ids(analyze_source(source, path="pkg/mod.py")) == {"PYF001"}


def test_pyf_import_as_self_is_reexport():
    source = "import numpy as numpy\n"
    assert analyze_source(source, path="reexport.py") == []


# -- OBS --------------------------------------------------------------------

def test_obs_fires_on_bad():
    findings = fixture_findings("obs_bad.py")
    assert sum(1 for f in findings if f.rule == "OBS001") == 1
    assert sum(1 for f in findings if f.rule == "OBS002") == 1
    kind_conflict = next(f for f in findings if f.rule == "OBS001")
    assert "chain.commits" in kind_conflict.message
    assert kind_conflict.severity == "error"


def test_obs_quiet_on_clean():
    # Distinct names per kind, stable label keys, **splat skipped.
    assert fixture_findings("obs_clean.py") == []


# -- IMP --------------------------------------------------------------------

def test_imp_fires_on_bad():
    findings = fixture_findings("imp_bad.py", module="repro.ml.fixture")
    assert [f.context.split("#")[0].strip() for f in findings if f.rule == "IMP001"] == [
        "import sqlite3", "import numpy as np", "import numpy.random",
        "from numpy import uint64", "from sqlite3 import connect", "import numpy",
        "import numpy as lazy_np", "import sqlite3 as lazy_sqlite3"]
    assert all(f.severity == "error" for f in findings)


def test_imp_quiet_on_clean():
    # The handle and TYPE_CHECKING imports are the one paths.
    assert fixture_findings("imp_clean.py", module="repro.ml.fixture") == []


def test_imp_is_scoped_to_the_repro_package_outside_the_handle():
    for module in ("", "tests.ml.fixture", "benchmarks.fixture", "repro._numpy"):
        assert "IMP001" not in rule_ids(fixture_findings("imp_bad.py", module=module))


# -- severity cap outside src ----------------------------------------------

@pytest.mark.parametrize("root", ["tests", "benchmarks", "examples"])
def test_non_src_roots_are_warn_mode(root):
    source = "import math\n"  # unused import: PYF001, normally error
    findings = analyze_source(source, path=f"{root}/thing.py")
    assert [f.rule for f in findings] == ["PYF001"]
    assert findings[0].severity == "warn"


def test_src_keeps_error_severity():
    findings = analyze_source("import math\n", path="src/repro/thing.py")
    assert findings[0].severity == "error"
