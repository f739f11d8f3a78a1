import ast
import inspect

import polarispec
from polarispec import bathmap, core, spectra, susceptibility


def test_namespace_is_the_union_of_the_module_lists():
    modules = (core, susceptibility, bathmap, spectra)
    expected = [name for mod in modules for name in mod.__all__]
    assert len(set(expected)) == len(expected)  # each name is declared once
    assert sorted(polarispec.__all__) == sorted(expected)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(polarispec, name) is getattr(mod, name)
    assert polarispec.TabulatedChi is polarispec.susceptibility.TabulatedChi
    assert polarispec.surrogate_bath is bathmap.surrogate_bath


def test_fileio_imports_only_core_at_run_time():
    # the bathmap containers it writes are named for annotations only
    tree = ast.parse(inspect.getsource(polarispec.fileio))
    runtime = [n for n in tree.body if isinstance(n, ast.ImportFrom) and n.level]
    assert {n.module for n in runtime} == {"core"}


def test_every_model_kind_lives_in_susceptibility_and_line_models_hold_one_way():
    kinds = ("TlsEnsemble", "DisorderedTls", "VibronicModel", "MultilevelModel", "TabulatedChi")
    assert all(getattr(polarispec, k).__module__ == "polarispec.susceptibility" for k in kinds)
    for cls in (*map(vars(susceptibility).get, kinds), bathmap.DiscretizedBath):
        source = inspect.getsource(cls)
        assert "_lines" not in source and "TransitionSet.from_arrays" not in source, cls
