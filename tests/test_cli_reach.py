"""Every function in the verdict modules is reached by some CLI command.

The commands run in process under sys.setprofile, which records each Python
frame entered.  The functions no command reaches must equal a short list,
each entry with its reason; code that no verdict needs belongs in the tests.
`polynomials` and `quotient` stay outside until the exact verdicts decide
which of their routines they use.
"""

import inspect
import sys
import types

from bicyclic_spectra import cli, enumeration, graphs, spectral, transforms, verify, weights

MODULES = (graphs, weights, spectral, transforms, enumeration, verify, cli)

COMMANDS = [
    ["tables", "appendix_n6"],
    ["tables", "extended_table1", "--json", "{tmp}/t.json", "--csv", "{tmp}/t.csv"],
    ["extremal", "--n", "4..6", "--f", "zagreb1,constant_one", "--rank", "1"],
    ["extremal", "--n", "4..6", "--f", "forgotten,extended", "--rank", "2"],
    ["extremal", "--n", "8..10", "--f", "forgotten", "--rank", "2", "--mode", "candidate"],
    ["extremal", "--n", "5..6", "--f", "exp_sum_connectivity:a=2,custom:(x+y)^2",
     "--mode", "exhaustive"],
    ["extremal", "--n", "6", "--f", "sombor:a=2,b=2", "--rank", "2", "--mode", "candidate"],
    ["kelmans", "--samples", "20", "--seed", "1", "--f", "zagreb1", "--n", "4..6"],
    ["theorem41", "--n", "12..13"],
    ["enumerate", "--n", "6", "--graph6"],
    ["enumerate", "--n", "7", "--max-degree", "6"],
    ["enumerate", "--n", "12", "--max-degree", "10"],
    ["spectral", "--graph", "Es\\o", "--f", "zagreb1", "--full-spectrum"],
    ["spectral", "--graph", "B:3,1,3", "--f", "extended"],
    ["spectral", "--graph", "P:2,1,2", "--f", "sombor:a=2,b=2"],
    ["spectral", "--graph", "G2:3", "--f", "zagreb1"],
    ["extremal", "--n", "4", "--f", "zorg"],
]

# never called by the commands above, and why each stays
UNREACHED = {
    "graphs.Graph.relabel": "test fixtures relabel graphs to check invariance",
    "graphs.Graph.degree_sequence": "test fixtures compare degree sequences",
    "graphs.Graph.has_edge": "test fixtures probe single edges",
    # the exact layer's helpers, outside the test with `quotient` itself
    "graphs._blocks": "builds the registry partitions that quotient.family_quotient reads",
    "graphs.refine_partition": "the one partition refinement, run by quotient.equitable_refine",
    "weights.rational_pstar_functions": "the weights of the sign ledger, which has no subcommand",
    # the kelmans campaign calls their cores on drawn neighbour masks, with no Graph
    "transforms.kelmans": "the public reroute of a Graph, swap image included, over the mask core",
    "transforms.pendant_shift": "the public pendant shift of a Graph, over shift_masks",
    "graphs.mask_edges": "the edge set of neighbour masks, which kelmans and the sampler's Graph read",
    "verify.random_connected_graph": "the Graph of random_masks, which test fixtures draw",
    # the campaign draws its samples in rounds of the same builder
    "verify.random_masks": "the one-sample view of the kelmans campaign's batched draw",
    # theorem41 and enumerate read the degree-(n-2) family as edge rows
    "enumeration.targeted_max_degree_family": "the Graphs of max_degree_rows, which test fixtures read",
}


def _functions(module):
    """{qualified name: code object} of every function defined in module,
    nested ones included; comprehensions and lambdas are left out, since
    which of them get code objects of their own depends on the Python version."""
    found = {}

    def walk(name, code):
        found[f"{module.__name__.rsplit('.', 1)[1]}.{name}"] = code
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                walk(f"{name}.{const.co_name}", const)

    def visit(prefix, namespace):
        for attr, obj in vars(namespace).items():
            obj = inspect.unwrap(getattr(obj, "__func__", getattr(obj, "fget", obj)))
            if inspect.isfunction(obj) and obj.__code__.co_filename == module.__file__:
                walk(prefix + attr, obj.__code__)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__ and not prefix:
                visit(f"{attr}.", obj)

    visit("", module)
    return found


def test_cli_reaches_every_verdict_function(tmp_path, capsys):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    for module in MODULES:  # a memoised call from an earlier test would hide its callees
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    sys.setprofile(profile)
    try:
        for argv in COMMANDS:
            try:
                cli.main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
            except SystemExit:
                pass
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    unreached = {name for module in MODULES
                 for name, code in _functions(module).items() if code not in called}
    assert unreached == set(UNREACHED)
