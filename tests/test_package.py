import polarispec
from polarispec import bathmap, core, spectra, susceptibility


def test_namespace_is_the_union_of_the_module_lists():
    modules = (core, susceptibility, bathmap, spectra)
    expected = [name for mod in modules for name in mod.__all__] + ["TabulatedChi"]
    assert len(set(expected)) == len(expected)  # each name is declared once
    assert sorted(polarispec.__all__) == sorted(expected)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(polarispec, name) is getattr(mod, name)
    assert polarispec.TabulatedChi is polarispec.fileio.TabulatedChi
    assert polarispec.surrogate_bath is bathmap.surrogate_bath
