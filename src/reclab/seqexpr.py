"""Tiny arithmetic language for integer sequences indexed by k.

Grammar (EBNF):

    expr   = term { ("+" | "-") term } ;
    term   = unary { ("*" | "mod") unary } ;
    unary  = "-" unary | power ;
    power  = atom [ "^" unary ] ;
    atom   = INT | "k" | "(" expr ")" ;
    INT    = digit { digit } ;

"^" is exponentiation (right-associative), "mod" the nonnegative remainder.
One left-to-right operator-precedence pass (Dijkstra's shunting yard) turns
the tokens into a postfix program, and one loop evaluates that program on a
stack.  Neither recurses, so only a formula's length limits its nesting.
Evaluation never touches eval().
"""

from __future__ import annotations

import re
from typing import Callable, Union

EBNF = """expr   = term { ("+" | "-") term } ;
term   = unary { ("*" | "mod") unary } ;
unary  = "-" unary | power ;
power  = atom [ "^" unary ] ;
atom   = INT | "k" | "(" expr ")" ;
INT    = digit { digit } ;"""

# a product or power of more bits is refused, so a typo cannot eat all memory;
# no intermediate value has more than twice as many
MAX_BITS = 1_000_000


class SeqExprError(ValueError):
    pass


_TOKEN = re.compile(r"\s*(?:(\d+)|(mod)|(k)|([+\-*^()]))")

# binding strengths; "neg" is unary minus, and "^" alone is right-associative
_BIND = {"+": 1, "-": 1, "*": 2, "mod": 2, "neg": 3, "^": 4}


def _tokenize(text: str) -> list[str]:
    text = text.rstrip()
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise SeqExprError(f"bad character at position {pos}: {text[pos]!r}")
        tokens.append(m.group(m.lastindex))
        pos = m.end()
    return tokens


def parse_expr(text: str) -> list[Union[int, str]]:
    """The formula as a postfix program of ints, "k" and operator names."""
    tokens = _tokenize(text)
    if not tokens:
        raise SeqExprError("empty expression")
    program: list[Union[int, str]] = []
    pending: list[str] = []  # operators not yet emitted, and each open "("
    depth = 0  # open "(" in pending
    want_operand = True
    for tok in tokens:
        if want_operand:
            if tok == "-":
                pending.append("neg")
            elif tok == "(":
                pending.append(tok)
                depth += 1
            elif tok == "k" or tok.isdigit():
                program.append(tok if tok == "k" else int(tok))
                want_operand = False
            else:
                raise SeqExprError(f"unexpected token {tok!r}")
        elif tok in _BIND:
            # emit what binds at least as tightly; "^" leaves an earlier "^" pending
            bind = _BIND[tok] + (tok == "^")
            while pending and _BIND.get(pending[-1], 0) >= bind:
                program.append(pending.pop())
            pending.append(tok)
            want_operand = True
        elif tok == ")" and depth:
            while (op := pending.pop()) != "(":
                program.append(op)
            depth -= 1
        elif depth:
            raise SeqExprError(f"expected ')', got {tok!r}")
        else:
            raise SeqExprError(f"trailing input from token {tok!r}")
    if want_operand or depth:
        raise SeqExprError("unexpected end of expression")
    program.extend(reversed(pending))
    return program


def _run(program: list[Union[int, str]], k: int) -> int:
    stack: list[int] = []
    for item in program:
        if type(item) is int:
            stack.append(item)
        elif item == "k":
            stack.append(k)
        elif item == "neg":
            stack[-1] = -stack[-1]
        else:
            right = stack.pop()
            left = stack[-1]
            if item == "+":
                stack[-1] = left + right
            elif item == "-":
                stack[-1] = left - right
            elif item == "*":
                # the product has bl(left) + bl(right) - 1 bits or one more
                if left.bit_length() + right.bit_length() - 1 > MAX_BITS:
                    raise SeqExprError("product too large")
                stack[-1] = _capped(left * right, "product too large")
            elif item == "mod":
                if right == 0:
                    raise SeqExprError("mod by zero")
                stack[-1] = left % right
            else:
                if right < 0:
                    raise SeqExprError("negative exponent")
                # |left| >= 2**(bl - 1), so the power has more than (bl - 1)*right
                # bits, and at most bl*right <= 2*MAX_BITS when that is below MAX_BITS
                if abs(left) > 1 and (left.bit_length() - 1) * right >= MAX_BITS:
                    raise SeqExprError("exponent too large")
                stack[-1] = _capped(left**right, "exponent too large")
    return stack[0]


def _capped(value: int, message: str) -> int:
    """value, or SeqExprError(message) when it has more than MAX_BITS bits."""
    if value.bit_length() > MAX_BITS:
        raise SeqExprError(message)
    return value


def compile_sequence(text: str) -> Callable[[int], int]:
    """Parse once; return k -> value."""
    program = parse_expr(text)
    return lambda k: _run(program, k)
