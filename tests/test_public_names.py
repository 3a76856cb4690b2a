"""Names that code outside the package reaches by attribute, private
names the package reaches outside itself, private names no module of the
package takes from another, public names and dataclass fields that
something reads, and imports and parameters that their module and
function read.

A public name or dataclass field that only tests read is listed in
``ORACLES``; an entry that the package or ``bench/`` reads again fails
here, so the list holds only what tests alone keep.  Oracles that the
package need not hold at all live in ``tests/oracles.py``.

The benchmark's traced runs (``bench/spans.py``) replace the functions in
its ``TRACED`` list by module attribute, so moving or renaming one of them
must fail here rather than crash the traced benchmark.  The benchmark also
calls some of them positionally and reads fields of their results, so
those call shapes and fields are pinned here too.  ``evsynth.bf``
calls scipy's private lattice-QMC integrators, so a scipy release that
changes their call signature must fail here rather than in a simulation.
``evsynth.glm`` reads CSV bodies with ``np.loadtxt``, so a numpy release
that changes the reader's keywords must fail here rather than in
``evsynth analyze``.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import evsynth

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
PACKAGE = ROOT / "src" / "evsynth"

# public names and dataclass fields whose only readers are tests, each
# kept as an oracle, with the reason
ORACLES = {}


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    traced = load_spans().TRACED
    assert traced
    missing = [f"{mod}.{name}" for mod, name in traced
               if not callable(getattr(importlib.import_module(f"evsynth.{mod}"),
                                       name, None))]
    assert missing == []


def test_exported_names_resolve():
    missing = [name for name in evsynth.__all__ if not hasattr(evsynth, name)]
    assert missing == []


def test_pmps_live_in_synthesis():
    from evsynth import bf, synthesis

    assert evsynth.pmps is synthesis.pmps
    assert not hasattr(bf, "pmps") and not hasattr(bf, "_prior_probs")


def test_no_private_names_across_modules():
    # a private helper that a sibling module needs marks a decision made in
    # the wrong module; both spellings count: from .bf import _x, and bf._x
    paths, borrowed = sorted(PACKAGE.glob("*.py")), []
    assert len(paths) > 1
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        borrowed.append(f"{path.name}:{node.lineno} "
                                        f"{alias.name}")
                    elif node.module is None:
                        siblings.add(alias.asname or alias.name)
        borrowed += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and node.attr.startswith("_")
                     and isinstance(node.value, ast.Name)
                     and node.value.id in siblings]
    assert borrowed == []


def public_definitions(tree: ast.Module):
    """(qualified name, name) of each public function and class of a module
    and each public method of its public classes."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{sub.name}", sub.name)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not sub.name.startswith("_"))


def read_names(tree: ast.Module, strings: bool) -> set[str]:
    """Names read in ``tree`` as a name or an attribute, and with
    ``strings`` also as a string constant (the benchmark's tracer names
    the functions it wraps by strings)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant):
            found.add(node.value)
    return found


def dataclass_fields(tree: ast.Module):
    """(qualified name, name, written) of each field of a module's
    dataclasses; ``written`` when the class writes its instances out
    through ``asdict``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                (isinstance(d, ast.Name) and d.id == "dataclass")
                or (isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                    and d.func.id == "dataclass")
                for d in node.decorator_list):
            written = any(isinstance(sub, ast.Call)
                          and isinstance(sub.func, ast.Name)
                          and sub.func.id == "asdict"
                          for sub in ast.walk(node))
            yield from ((f"{node.name}.{sub.target.id}", sub.target.id, written)
                        for sub in node.body
                        if isinstance(sub, ast.AnnAssign)
                        and isinstance(sub.target, ast.Name))


def package_trees() -> list[tuple[str, ast.Module]]:
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.glob("*.py"))]


def bench_trees() -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "bench").rglob("*.py"))]


def test_oracles_name_definitions():
    defined = set()
    for _, tree in package_trees():
        defined |= {qualified for qualified, _ in public_definitions(tree)}
        defined |= {qualified for qualified, _, _ in dataclass_fields(tree)}
    assert set(ORACLES) <= defined


def public_name_reads() -> set[str]:
    """Names read in the package or in bench/, or exported; matching is by
    name, so a name that another definition shares counts as read."""
    read = set(evsynth.__all__)
    for _, tree in package_trees():
        read |= read_names(tree, strings=False)
    for tree in bench_trees():
        read |= read_names(tree, strings=True)
    return read


def field_reads() -> set[str]:
    """Attributes loaded in the package or in bench/ (tests do not
    count)."""
    return {node.attr
            for tree in [tree for _, tree in package_trees()] + bench_trees()
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_public_name_has_a_reader():
    # read in the package, in bench/, exported, or kept as a test oracle
    read = public_name_reads()
    assert [f"{module}.{qualified}" for module, tree in package_trees()
            for qualified, name in public_definitions(tree)
            if name not in read and qualified not in ORACLES] == []


def test_every_dataclass_field_has_a_reader():
    # read as an attribute in the package or in bench/, written out by its
    # class through asdict, or kept as a test oracle
    read = field_reads()
    assert [f"{module}.{qualified}" for module, tree in package_trees()
            for qualified, name, written in dataclass_fields(tree)
            if name not in read and not written
            and qualified not in ORACLES] == []


def test_oracles_have_no_reader_outside_tests():
    # an entry that the package or bench/ reads no longer needs its place;
    # fields count attribute loads, as above, other names any read
    fields = {qualified for _, tree in package_trees()
              for qualified, _, _ in dataclass_fields(tree)}
    fields_read, names_read = field_reads(), public_name_reads()
    assert [qualified for qualified in ORACLES
            if qualified.rpartition(".")[2] in (
                fields_read if qualified in fields else names_read)] == []


def loaded_names(node: ast.AST) -> set[str]:
    return {sub.id for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}


def test_every_import_is_read():
    # the package's own re-exports are exempt, as is from __future__
    unread = []
    for module, tree in package_trees():
        exported = set(evsynth.__all__) if module == "__init__" else set()
        read = loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.partition(".")[0]
                         for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unread += [f"{module}:{node.lineno} {name}" for name in bound
                       if name not in read and name not in exported]
    assert unread == []


def test_every_parameter_is_read():
    unread = []
    for module, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = [a.arg for a in args.posonlyargs + args.args
                          + args.kwonlyargs + [args.vararg, args.kwarg]
                          if a is not None]
                read = set().union(*(loaded_names(sub) for sub in node.body))
                unread += [f"{module}.{node.name} {name}" for name in params
                           if name not in read and name not in ("self", "cls")]
    assert unread == []


def positional(fn) -> list[str]:
    return [name for name, p in inspect.signature(fn).parameters.items()
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


def test_benchmark_call_shapes(tmp_path):
    from evsynth import bf, cli, glm, hypothesis, simgen

    assert len(positional(cli.run_iteration)) == 10
    assert positional(simgen.gen_dataset)[0] == "spec"
    # bench/workloads.py writes rows through a three-positional result
    result = cli.SimulationResult(cli.RESULT_COLUMNS, [{"sim_id": 1}], [])
    assert (result.columns, result.rows, result.skips) == (
        cli.RESULT_COLUMNS, [{"sim_id": 1}], [])
    cli.write_results_csv(result, tmp_path / "rows.csv")
    assert (tmp_path / "rows.csv").read_text(encoding="utf-8").splitlines() == [
        ",".join(cli.RESULT_COLUMNS), "1" + "," * (len(cli.RESULT_COLUMNS) - 1)]
    assert positional(hypothesis.transform_constraints) == [
        "h", "mean", "scale", "names", "df"]
    assert {"trace"} <= set(glm.FitResult.__dataclass_fields__)
    assert glm.SeparationError("separated", trace=[1]).trace == [1]
    assert {"mc_draws"} <= set(bf.EvidenceRecord.__dataclass_fields__)


def test_cli_choices_are_the_library_names():
    # the families and alternatives are stated in glm and bf alone, the
    # simulation ids in simgen alone
    from evsynth import bf, cli, glm, simgen

    subparsers = next(action for action in cli.build_parser()._actions
                      if action.dest == "command").choices
    choices = {action.dest: action.choices
               for action in subparsers["analyze"]._actions}
    assert choices["family"] is glm.FAMILIES
    assert choices["alternative"] is bf.ALTERNATIVES
    simulate = {action.dest: action.choices
                for action in subparsers["simulate"]._actions}
    assert simulate["sim"] is simgen.SIMULATION_IDS


def test_benchmark_synthesis_shapes():
    # bench/workloads.py replays synthesis with positional calls and reads
    # the running sums and PMPs as numpy arrays
    from evsynth import synthesis

    assert positional(synthesis.new_state)[0] == "labels"
    assert positional(synthesis.update)[:3] == ["state", "study_id", "log_bfs"]
    state = synthesis.new_state(["h", "unconstrained"])
    state = synthesis.update(state, "s1", {"h": 0.5, "unconstrained": 0.0})
    assert float(state.cum_log_bf[0]) == 0.5
    assert state.cum_log_bf.tolist() == [0.5, 0.0]
    p = state.pmps()
    assert abs(float(p.sum()) - 1.0) <= 1e-15
    assert p.tolist() == [float(p[0]), float(p[1])]


def test_scipy_lattice_qmc_signature():
    from scipy.stats._qmvnt import _qmvn, _qmvt

    assert list(inspect.signature(_qmvn).parameters)[:5] == [
        "m", "covar", "low", "high", "rng"]
    assert list(inspect.signature(_qmvt).parameters)[:6] == [
        "m", "nu", "covar", "low", "high", "rng"]
    corr = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.3], [0.2, 0.3, 1.0]])
    low, high = np.zeros(3), np.full(3, np.inf)
    for p, err, used in (_qmvn(100, corr, low, high, np.random.default_rng(0)),
                         _qmvt(100, 4.0, corr, low, high,
                               np.random.default_rng(0))):
        assert 0.0 < p < 1.0 and err >= 0.0 and 0 < used <= 100


def test_numpy_loadtxt_reader(tmp_path):
    assert {"delimiter", "comments", "usecols", "ndmin", "dtype"} <= set(
        inspect.signature(np.loadtxt).parameters)
    path = tmp_path / "two.csv"
    path.write_text("y,a,b\n1, 2.5,x\n-3,4e-3,y\n", encoding="utf-8")
    with open(path, newline="", encoding="utf-8") as fh:
        next(fh)
        table = np.loadtxt(fh, delimiter=",", comments=None, usecols=[1, 0],
                           ndmin=2, dtype=float)
    assert table.shape == (2, 2) and table.dtype == np.float64
    assert table.tolist() == [[2.5, 1.0], [0.004, -3.0]]
