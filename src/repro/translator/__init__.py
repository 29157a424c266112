"""Translator: Groovy AST -> checkable IR (+ Promela emission).

The paper translates Groovy to Java (for Bandera) and onward to Promela,
solving three problems on the way (§6): SmartThings' DSL syntax (handled in
:mod:`repro.smartapp`), type inference for dynamically-typed Groovy (not
needed here: the interpreter runs Groovy's dynamic values directly, and
the Promela emitter declares its types from the device specs), and
*built-in utilities* like ``each`` / ``find`` / ``findAll`` / ``collect``
/ list ``+`` that the backend does not know
(:mod:`repro.translator.builtins`, applied by
:mod:`repro.translator.lowering`).

Our backend is the Python model checker in :mod:`repro.checker`, so the IR is
a *lowered Groovy AST* (C-style ``for`` desugared, increments desugared,
elvis desugared) executed by :mod:`repro.model.interpreter`.  A Promela
emitter (:mod:`repro.translator.promela`) regenerates Spin-style model text
and the line map used for Fig-7 style violation logs.
"""

from repro.translator.lowering import lower_program

__all__ = ["lower_program"]
