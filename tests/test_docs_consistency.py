"""Keep the documentation honest: every experiment documented, benched and
registered consistently across DESIGN.md, the registry and benchmarks/."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from repro.harness.experiments import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent


def test_every_experiment_has_a_bench_file():
    bench_names = {p.name for p in (ROOT / "benchmarks").glob("bench_e*.py")}
    for exp_id in list(EXPERIMENTS) + ["e12"]:
        number = int(exp_id[1:])
        matches = [name for name in bench_names
                   if name.startswith(f"bench_e{number:02d}_")]
        assert matches, f"no bench file for {exp_id}"


def test_design_experiment_index_covers_registry():
    design = (ROOT / "DESIGN.md").read_text()
    for exp_id in list(EXPERIMENTS) + ["e12"]:
        token = f"| {exp_id.upper()} |"
        assert token in design, f"{exp_id} missing from DESIGN.md index"


def test_design_mentions_every_bench_target():
    design = (ROOT / "DESIGN.md").read_text()
    for path in (ROOT / "benchmarks").glob("bench_e*.py"):
        assert path.name in design, f"{path.name} not referenced in DESIGN.md"


def test_experiments_md_mentions_every_core_claim():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for needle in ("LCS", "BCS", "mixed", "GMEAN", "oracle",
                   "E9", "E11", "E20"):
        assert needle in text


def test_readme_examples_exist():
    readme = (ROOT / "README.md").read_text()
    for match in re.finditer(r"examples/(\w+\.py)", readme):
        assert (ROOT / "examples" / match.group(1)).exists(), match.group(0)


def test_readme_docs_links_exist():
    readme = (ROOT / "README.md").read_text()
    for match in re.finditer(r"docs/(\w+\.md)", readme):
        assert (ROOT / "docs" / match.group(1)).exists(), match.group(0)


def test_experiments_md_references_existing_results_files():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    matches = list(re.finditer(r"(?:docs/results/)?full_scale_results\d*\.txt",
                               text))
    assert matches, "EXPERIMENTS.md no longer mentions the results files"
    for match in matches:
        name = match.group(0).rsplit("/", 1)[-1]
        assert (ROOT / "docs" / "results" / name).exists(), match.group(0)


def test_all_public_exports_resolve():
    import repro
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


@pytest.mark.parametrize("module_name", [
    "repro.sim", "repro.mem", "repro.core", "repro.workloads",
    "repro.harness",
])
def test_subpackage_exports_resolve(module_name):
    import importlib
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_public_items_have_docstrings():
    import repro
    missing = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj) and not isinstance(obj, str):
            if not (obj.__doc__ or "").strip():
                missing.append(name)
    assert not missing, f"public items without docstrings: {missing}"


def _documented_command_lines():
    """``(where, argv)`` of every ``repro-*`` line in a fenced code
    block of README.md and docs/*.md, continuation lines joined."""
    found = []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        fenced, pending = False, ""
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                fenced, pending = not fenced, ""
                continue
            text = (pending + " " + line.strip().removeprefix("$ ")).strip()
            if not fenced or not text.startswith("repro-"):
                continue
            if text.endswith("\\"):
                pending = text[:-1]
                continue
            pending = ""
            argv = shlex.split(text, comments=True)
            found.append((f"{path.name}:{number}",
                          argv[:-1] if argv[-1] == "&" else argv))
    return found


def test_documented_command_lines_parse(capsys):
    # Parse only: each line goes through its CLI's parser, nothing runs.
    scripts = dict(re.findall(r'^(repro-[a-z]+) = "([\w.]+):main"$',
                              (ROOT / "pyproject.toml").read_text(),
                              re.MULTILINE))
    lines = _documented_command_lines()
    assert len(lines) > 30 and {argv[0] for _, argv in lines} <= set(scripts)
    refused = []
    for where, argv in lines:
        module = importlib.import_module(scripts[argv[0]])
        try:
            module.build_parser().parse_args(argv[1:])
        except SystemExit:
            refused.append(f"{where}: {' '.join(argv)}: "
                           f"{capsys.readouterr().err.splitlines()[-1]}")
    assert not refused, "\n".join(refused)


def test_documented_design_env_keys_are_the_accepted_ones():
    from repro.design import ENV_KEYS
    text = " ".join((ROOT / "docs" / "DESIGNS.md").read_text().split())
    pinned = re.search(r"`\[design\.env\]` may pin (.*?);", text).group(1)
    assert re.findall(r"`(\w+)`", pinned) == list(ENV_KEYS)
