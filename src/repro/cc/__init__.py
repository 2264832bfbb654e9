"""Mini compiler: the llvm -O0 / gcc -O3 / icc -O3 substitutes."""

from repro.cc.ast import (Assign, Bin, BinOp, Cast, Const, Function, Load,
                          Output, Param, Select, Store, Un, UnOp, Var,
                          params32)
from repro.cc.codegen_o0 import compile_o0
from repro.cc.codegen_opt import compile_opt
from repro.cc.interp import Memory, evaluate
from repro.cc.lower import lower_function

__all__ = ["Assign", "Bin", "BinOp", "Cast", "Const", "Function", "Load",
           "Memory", "Output", "Param", "Select", "Store", "Un", "UnOp",
           "Var", "compile_o0", "compile_opt", "evaluate",
           "lower_function", "params32"]
