"""Keep the documentation honest: every experiment documented, benched and
registered consistently across DESIGN.md, the registry and benchmarks/."""

import importlib
import inspect
import pkgutil
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


def _api_table_names():
    """``(row, dotted name, keyword names, modules)`` for every backticked
    name in the first cell of a docs/API.md table row; ``modules`` are
    the modules the row names in parentheses."""
    found = []
    for line in (ROOT / "docs" / "API.md").read_text().splitlines():
        cells = line.split("|")
        if not line.startswith("|") or set(cells[1]) <= set("- "):
            continue
        first = cells[1].strip()
        if first in ("name", "class"):
            continue
        named = re.findall(r"\(`(repro[\w.]*)`", first)
        for token in re.findall(r"`([^`]+)`", first):
            if token.startswith(".") or re.fullmatch(r"repro(\.\w+)+", token):
                continue
            dotted = re.match(r"\w+(?:\.\w+)*", token).group(0)
            call = re.search(r"\((.*)\)", token)
            keywords = re.findall(r"(\w+)=", call.group(1)) if call else []
            found.append((first, dotted, keywords, named))
    return found


def test_every_api_table_name_resolves():
    # A row's name resolves in the module it names, in repro, or in any
    # module of the package; each documented keyword is a parameter.
    import repro
    modules = [repro] + [importlib.import_module(info.name)
                         for info in pkgutil.walk_packages(repro.__path__,
                                                           "repro.")]
    rows = _api_table_names()
    assert len(rows) > 60
    stale = []
    for row, dotted, keywords, named in rows:
        for module in [*map(importlib.import_module, named), *modules]:
            obj = module
            try:
                for part in dotted.split("."):
                    obj = getattr(obj, part)
            except AttributeError:
                continue
            break
        else:
            stale.append(f"{dotted}: not found ({row})")
            continue
        if keywords:
            params = inspect.signature(obj).parameters
            if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
                stale += [f"{dotted}: no parameter {kw!r} ({row})"
                          for kw in keywords if kw not in params]
    assert not stale, "\n".join(stale)


def test_public_items_have_docstrings():
    import repro
    missing = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj) and not isinstance(obj, str):
            if not (obj.__doc__ or "").strip():
                missing.append(name)
    assert not missing, f"public items without docstrings: {missing}"


#: ``[VAR=value ...] python -m repro.<module>``, naming the module.
PYTHON_M = re.compile(r"(?:\w+=\S*\s+)*python -m (repro[\w.]*)")


def _documented_command_lines():
    """``(where, module, args)`` of every command line in a fenced code
    block of README.md, docs/*.md and the verify notes, continuation
    lines joined: a ``repro-*`` console script (``module`` is the one
    pyproject.toml names for it) or a ``python -m repro.<module>``."""
    scripts = dict(re.findall(r'^(repro-[a-z]+) = "([\w.]+):main"$',
                              (ROOT / "pyproject.toml").read_text(),
                              re.MULTILINE))
    found = []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
                 ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]:
        fenced, pending = False, ""
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                fenced, pending = not fenced, ""
                continue
            text = (pending + " " + line.strip().removeprefix("$ ")).strip()
            python_m = PYTHON_M.match(text)
            if not fenced or not (text.startswith("repro-") or python_m):
                continue
            if text.endswith("\\"):
                pending = text[:-1]
                continue
            pending = ""
            argv = shlex.split(text, comments=True)
            argv = argv[:-1] if argv[-1] == "&" else argv
            if python_m:
                module = python_m.group(1)
                args = argv[argv.index(module) + 1:]
            else:
                module, args = scripts[argv[0]], argv[1:]
            found.append((f"{path.name}:{number}", module, args))
    return found


def test_documented_command_lines_parse(capsys):
    # Parse only: each line goes through its CLI's parser, nothing runs.
    lines = _documented_command_lines()
    assert len(lines) > 40
    assert sum(where.startswith("SKILL.md:") for where, _, _ in lines) >= 9
    refused = []
    for where, module, args in lines:
        try:
            importlib.import_module(module).build_parser().parse_args(args)
        except SystemExit:
            refused.append(f"{where}: {module} {' '.join(args)}: "
                           f"{capsys.readouterr().err.splitlines()[-1]}")
    assert not refused, "\n".join(refused)


def test_documented_design_env_keys_are_the_accepted_ones():
    from repro.design import ENV_KEYS
    text = " ".join((ROOT / "docs" / "DESIGNS.md").read_text().split())
    pinned = re.search(r"`\[design\.env\]` may pin (.*?);", text).group(1)
    assert re.findall(r"`(\w+)`", pinned) == list(ENV_KEYS)


def _documented_store_layouts(doc: Path) -> list[set[str]]:
    """The file names of each fenced ``.repro-campaigns/<name>-<digest12>/``
    block in ``doc``."""
    blocks = re.findall(r"```\n\.repro-campaigns/<name>-<digest12>/\n(.*?)```",
                        doc.read_text(), re.S)
    return [{line.split()[0] for line in block.splitlines() if line.strip()}
            for block in blocks]


def test_documented_campaign_store_layout_is_a_real_store(tmp_path):
    # compact.lock exists only while a compaction runs.
    from repro.design import Campaign, Design, DesignEnv, Factor
    design = Design("layout", factors=[Factor.crossed("bench", ("kmeans",))])
    campaign = Campaign.open(design, DesignEnv(scale=0.02), root=tmp_path)
    assert campaign.run().ok
    assert campaign.store.compact(force=True)
    present = {path.name for path in campaign.path.iterdir()}
    for doc in ("DESIGNS.md", "ROBUSTNESS.md"):
        layouts = _documented_store_layouts(ROOT / "docs" / doc)
        assert layouts, f"docs/{doc} shows no campaign store layout"
        for names in layouts:
            assert names - {"compact.lock"} == present, f"docs/{doc}"
