"""Hopf algebras of colored labeled posets and colored quasisymmetric
functions, with brute-force enumeration oracles for differential testing.

The working objects are colored compositions and permutations (combinat),
canonical-form labeled posets with their product, coproduct and antipode
(poset), QSym elements in the monomial, fundamental and peak bases along
with the generating-function maps from posets (qsym), characters and the
universal morphism into QSym (characters), and truncated-alphabet
enumeration oracles (oracle).

Importing the package runs none of these five layers.  Each is put in
sys.modules, and on the package, as a module that has not run yet, so
``from cqsym import poset`` binds it without running it.  Its first
attribute access of any kind (``__dict__`` and ``__spec__`` among them,
so ``vars()`` and ``import cqsym.poset`` too) compiles and runs it, after
which it is a plain module.  A first touch from several threads is safe:
one package-level lock is held while a layer runs, the thread running it
reads the partial module as an import would, and the other threads wait.
So a CLI call that reads only compositions compiles only combinat.  The
names re-exported here (``Poset``, ``multiply``, ``qsym_antipode``, ...)
are read from their layer on each access, through the module
``__getattr__`` (PEP 562), so reading one runs its own layer alone.  They
are listed in ``__all__`` and ``dir()``; ``import *`` runs every layer.
"""

import sys as _sys
import threading as _threading
import types as _types
from importlib.util import module_from_spec as _module_from_spec
from importlib.util import spec_from_file_location as _spec_from_file

__version__ = "0.1.0"

# Re-exported names by layer; "public:attribute" renames an attribute.
_LAYER_EXPORTS = {
    "combinat": """
        check_comp check_perm weight reverse rainbow_decompose refines
        refinements coarsenings star hat is_peak_composition
        descent_composition color_runs peak_set peak_composition
        standardize rep_chain conjugate shuffles enumerate_compositions
        peak_compositions count_peak_compositions ribbon_cells
        ribbon_decode conjugate_via_diagram""",
    "poset": """
        Poset PElt make_poset empty_poset chain_poset antichain_poset
        disjoint_union canonical_form equivalent labeled_orders
        canonical_posets natural_extension is_naturally_labeled
        is_monochromatic product_key product coproduct counit antipode
        antipode_key antipode_chains_key""",
    "qsym": """
        QElt BASES f_to_m m_to_f k_to_m k_to_m_key peak_function
        to_monomial multiply antipode_inductive antipode_inductive_key
        peak_projection ppartition_gf enriched_gf m_rank
        qsym_coproduct:coproduct qsym_counit:counit
        qsym_antipode:antipode""",
    "characters": """
        Domain Character poset_domain qsym_domain counit_character
        convolve inverse bar nu zeta_qsym zeta_poset zeta_qsym_all
        zeta_poset_all nu_qsym nu_poset nu_qsym_all nu_poset_all
        universal_morphism""",
    "oracle": """
        TPoly enumerate_ppartitions enumerate_enriched truncate
        split_alphabet_check product_law_check extension_partition_check""",
}

# public name -> (layer, attribute)
_EXPORTS = {entry.partition(":")[0]: (layer, entry.rpartition(":")[2])
            for layer, entries in _LAYER_EXPORTS.items()
            for entry in entries.split()}
__all__ = [*_EXPORTS, *_LAYER_EXPORTS, "terms"]


def __getattr__(name):
    """A re-exported name, read from its layer on every access."""
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    layer, attr = _EXPORTS[name]
    return getattr(globals()[layer], attr)


def __dir__():
    return sorted({*globals(), *__all__})


_lock = _threading.RLock()
_running = set()   # layers whose code is running, read by their own thread


def _run(module):
    """Run a layer that has not run yet, once, under the package lock."""
    with _lock:
        if type(module) is not _Layer or module in _running:
            return
        _running.add(module)
        try:
            spec = _types.ModuleType.__getattribute__(module, "__spec__")
            spec.loader.exec_module(module)
            object.__setattr__(module, "__class__", _types.ModuleType)
        finally:
            _running.discard(module)


class _Layer(_types.ModuleType):
    """A layer module that has not run yet; any attribute access runs it."""

    def __getattribute__(self, name):
        _run(self)
        return _types.ModuleType.__getattribute__(self, name)

    def __setattr__(self, name, value):
        _run(self)
        _types.ModuleType.__setattr__(self, name, value)

    def __delattr__(self, name):
        _run(self)
        _types.ModuleType.__delattr__(self, name)


def _register():
    folder = __path__[0]
    for layer in _LAYER_EXPORTS:
        name = __name__ + "." + layer
        module = _module_from_spec(
            _spec_from_file(name, "%s/%s.py" % (folder, layer)))
        module.__class__ = _Layer
        _sys.modules[name] = module
        globals()[layer] = module


_register()
