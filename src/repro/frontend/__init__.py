"""Front end: the DO-loop DSL and its compiler to schedulable loop IR.

Importing the package loads the AST and the compiler, which every
scheduled loop goes through.  The textual parser and printer and the
unrolling transform load on first use of one of their names (see
:mod:`repro._deferred`).
"""

from repro._deferred import deferred_exports
from repro.frontend.ast import (
    ArrayRef,
    Assign,
    BinOp,
    Compare,
    Const,
    DoLoop,
    ExitIf,
    Expr,
    Gather,
    If,
    Index,
    Scalar,
    Scatter,
    Stmt,
    Unary,
)
from repro.frontend.compiler import CompileError, LoopCompiler, compile_loop

__getattr__ = deferred_exports(globals(), {
    "repro.frontend.parser": ("ParseError", "parse_loop"),
    "repro.frontend.printer": ("render_expr", "render_loop", "save_corpus"),
    "repro.frontend.transforms": ("UnrollError", "unroll"),
})

__all__ = [
    "ArrayRef",
    "Assign",
    "BinOp",
    "Compare",
    "Const",
    "DoLoop",
    "ExitIf",
    "Expr",
    "Gather",
    "If",
    "Index",
    "Scalar",
    "Scatter",
    "Stmt",
    "Unary",
    "CompileError",
    "LoopCompiler",
    "compile_loop",
    "ParseError",
    "parse_loop",
    "render_expr",
    "render_loop",
    "save_corpus",
    "UnrollError",
    "unroll",
]
