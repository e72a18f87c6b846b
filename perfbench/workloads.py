"""Seeded input generators and independent output checkers.

Nothing here imports ``hornsat``: inputs and their expected outcomes are
known by construction, so a wrong answer from the program cannot also
corrupt the expectation it is checked against.

An instance is a JSON-ready dict:

* ``id``, ``family``: a unique name, and the generator with its parameters.
* ``argv``: the ``hornsat`` arguments; ``{input}`` stands for the input file.
* ``name``, ``text``: the input file name and its contents.
* ``expect``: the outcome the construction guarantees, e.g.
  ``{"verdict": "SAT", "ones": [...]}`` (the least model's true atoms),
  ``{"verdict": "UNSAT"}``, ``{"verdict": "ERROR"}`` (exit 1 is correct),
  ``{"label": "Valid"}`` for ``classify``, plus ``steps`` for the golden
  traces.
* ``clauses`` or ``terms``: the formula as signed-literal lists
  (``"a"``/``"~a"``), read as a conjunction of clauses or a disjunction of
  terms.  DIMACS instances carry neither; their clauses are read back from
  ``text``.
"""

from __future__ import annotations

import random

# ---------------------------------------------------------------- families


def _planted_horn(rng, n_vars, n_clauses, unsat):
    """Random Horn 3-CNF over variables 1..n_vars with a planted least model.

    Half of the variables are derivable: a few are facts and each other one
    is the consequent of a clause whose antecedents were derived earlier.
    The remaining clauses are random definite or goal clauses that the
    derivable set satisfies, so they never derive anything new.  The least
    model is therefore exactly the derivable set; an unsatisfiable variant
    adds one goal clause over two derivable variables.
    """
    order = list(range(1, n_vars + 1))
    rng.shuffle(order)
    derived = order[: max(2, n_vars // 2)]
    facts = max(1, len(derived) // 10)
    clauses = [[v] for v in derived[:facts]]
    for i in range(facts, len(derived)):
        antecedents = rng.sample(derived[:i], min(i, rng.choice((1, 2))))
        clauses.append([-a for a in antecedents] + [derived[i]])
    model = set(derived)
    while len(clauses) < n_clauses:
        a, b, c = rng.sample(order, 3)
        if rng.random() < 0.7:
            if a in model and b in model and c not in model:
                continue
            clauses.append([-a, -b, c])
        elif not (a in model and b in model and c in model):
            clauses.append([-a, -b, -c])
    if unsat:
        # Over atoms derived last, so that an unsatisfiable instance costs
        # about as much as a satisfiable one of its size.
        clauses.append([-v for v in rng.sample(derived[-max(2, len(derived) // 10) :], 2)])
    rng.shuffle(clauses)
    return clauses, None if unsat else sorted(model)


def _reverse_chain(rng, links, unsat):
    """v1 as a fact and v(i) -> v(i+1), listed last link first, so a
    leftmost scan passes over every unfired link before each firing.  The
    unsatisfiable variant puts the goal ~v(links+1) first."""
    names = list(range(1, links + 2))
    rng.shuffle(names)
    clauses = [[-names[i], names[i + 1]] for i in reversed(range(links))]
    clauses.append([names[0]])
    if unsat:
        clauses.insert(0, [-names[-1]])
    return clauses, None if unsat else sorted(names)


def _dimacs_text(clauses):
    n_vars = max(abs(lit) for clause in clauses for lit in clause)
    lines = [f"p cnf {n_vars} {len(clauses)}"]
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in clauses)
    return "\n".join(lines) + "\n"


def _dimacs_instance(clauses, ones, command):
    expect = {"verdict": "UNSAT"} if ones is None else {"verdict": "SAT", "ones": [f"x{v}" for v in ones]}
    return {"argv": [command, "{input}", "--dimacs"] + (["--json"] if command == "trace" else []),
            "name": "input.cnf", "text": _dimacs_text(clauses), "expect": expect}


def _named(clauses, names):
    return [[("~" if lit < 0 else "") + names[abs(lit)] for lit in clause] for clause in clauses]


def _rule_text(clause):
    """A Horn clause written as a rule: ``a & b -> c``, a fact, or ``a -> false``."""
    positive = [lit for lit in clause if not lit.startswith("~")]
    negative = [lit[1:] for lit in clause if lit.startswith("~")]
    head = positive[0] if positive else "false"
    return f"({' & '.join(negative)} -> {head})" if negative else head


def _formula_instance(text, expect, argv=("solve", "{input}"), **check):
    return {"argv": list(argv), "name": "input.txt", "text": text, "expect": expect, **check}


def gen_planted_dimacs(rng, vars, clauses, unsat, command="solve"):
    return _dimacs_instance(*_planted_horn(rng, vars, clauses, unsat), command)


def gen_reverse_chain(rng, links, unsat, command="solve"):
    return _dimacs_instance(*_reverse_chain(rng, links, unsat), command)


def gen_horn_rules(rng, vars, clauses, unsat, non_horn=False):
    """Planted Horn clauses written as rule text; ``non_horn`` inserts one
    rule with a disjunctive head, which the program must reject."""
    numbers, ones = _planted_horn(rng, vars, clauses, unsat)
    names = {v: f"r{v}" for v in range(1, vars + 1)}
    named = _named(numbers, names)
    rules = [_rule_text(clause) for clause in named]
    if non_horn:
        a, b, c, d = rng.sample(sorted(names.values()), 4)
        rules.insert(rng.randrange(len(rules) + 1), f"({a} & {b} -> {c} | {d})")
        return _formula_instance(" & ".join(rules), {"verdict": "ERROR"})
    expect = {"verdict": "UNSAT"} if ones is None else {"verdict": "SAT", "ones": [names[v] for v in ones]}
    return _formula_instance(" & ".join(rules), expect, clauses=named)


def gen_blowup(rng, pairs, max_clauses=None):
    """``~((a0 | b0) & ... )``: distribution yields 2^pairs goal clauses.
    Satisfiable with the all-false least model, unless the clause budget
    given on the command line is smaller than 2^pairs."""
    names = [f"{p}{i}" for i in rng.sample(range(10 * pairs), pairs) for p in "ab"]
    text = "~(" + " & ".join(f"({names[i]} | {names[i + 1]})" for i in range(0, len(names), 2)) + ")"
    if max_clauses is not None and max_clauses < 2**pairs:
        return _formula_instance(text, {"verdict": "ERROR"},
                                 argv=("solve", "{input}", "--max-clauses", str(max_clauses)))
    terms = [[f"~{names[i]}", f"~{names[i + 1]}"] for i in range(0, len(names), 2)]
    return _formula_instance(text, {"verdict": "SAT", "ones": []}, terms=terms)


def gen_flat_facts(rng, atoms):
    """``p0 & p1 & ...``: a plain list of facts, satisfiable by all-true."""
    names = [f"p{i}" for i in rng.sample(range(10 * atoms), atoms)]
    return _formula_instance(" & ".join(names), {"verdict": "SAT", "ones": sorted(names)},
                             clauses=[[name] for name in names])


_GOLDEN = {
    # The three worked examples of the paper, with their verdicts and the
    # step counts of their early-stopping traces.
    "unsat_chain": ("p & (~r | s) & (r | ~p | ~q) & (~r | ~s) & q", "UNSAT", 6, None),
    "sat_chain": ("p & (~r | s) & (r | ~p | ~q) & (~r | ~s)", "SAT", 2, ["p"]),
    "unsat_short": ("p & (~r | s) & (r | ~p) & ~r", "UNSAT", 5, None),
}


def gen_golden(rng, which):
    text, verdict, steps, ones = _GOLDEN[which]
    expect = {"verdict": verdict, "steps": steps}
    if ones is not None:
        expect["ones"] = ones
    clauses = [clause.strip("() ").split(" | ") for clause in text.split(" & ")]
    return _formula_instance(text, expect, argv=("trace", "{input}", "--json"), clauses=clauses)


# ------------------------------------------------- formulas for ``classify``


def _random_tree(rng, names):
    """A random formula using each name once; leaves and subtrees may be negated."""
    if len(names) == 1:
        node = ("atom", names[0])
    else:
        cut = rng.randrange(1, len(names))
        op = rng.choice(("&", "|", "->", "<->"))
        node = (op, _random_tree(rng, names[:cut]), _random_tree(rng, names[cut:]))
    return ("~", node) if rng.random() < 0.3 else node


def _render(node):
    if node[0] == "atom":
        return node[1]
    if node[0] == "~":
        return "~" + _render(node[1])
    return f"({_render(node[1])} {node[0]} {_render(node[2])})"


def _truth(node, valuation):
    kind = node[0]
    if kind == "atom":
        return valuation[node[1]]
    if kind == "~":
        return not _truth(node[1], valuation)
    left, right = _truth(node[1], valuation), _truth(node[2], valuation)
    if kind == "&":
        return left and right
    if kind == "|":
        return left or right
    if kind == "->":
        return (not left) or right
    return left == right


# Each template is valid whatever the subformula R is.  x occurs only in
# the template, and R once, so that formulas of one symbol count cost
# about the same to classify.
_VALID = ("(({R} & {x}) -> {x})", "({x} -> ({R} -> {x}))", "(({x} -> {R}) | {x})", "(~{x} | ({R} -> {x}))")


def gen_classify(rng, symbols, label):
    """A formula over exactly ``symbols`` names whose truth-table verdict is
    known by construction.  Valid and contradictory ones come from the
    templates above; a satisfiable one is a random formula for which a
    model and a counter-model were found by evaluating sample rows."""
    names = [f"s{i}" for i in rng.sample(range(100), symbols)]
    expect = {"label": label}
    if label == "Satisfiable":
        while True:
            tree = _random_tree(rng, names)
            rows = [{n: rng.random() < 0.5 for n in names} for _ in range(64)]
            model = next((row for row in rows if _truth(tree, row)), None)
            counter = next((row for row in rows if not _truth(tree, row)), None)
            if model and counter:
                break
        expect["model"] = sorted(n for n in names if model[n])
        expect["counter_model"] = sorted(n for n in names if counter[n])
        text = _render(tree)
    else:
        valid = rng.choice(_VALID).format(R=_render(_random_tree(rng, names[1:])), x=names[0])
        text = valid if label == "Valid" else f"~{valid}"
    return _formula_instance(text, expect, argv=("classify", "{input}"))


FAMILIES = {
    "planted_dimacs": gen_planted_dimacs,
    "reverse_chain": gen_reverse_chain,
    "horn_rules": gen_horn_rules,
    "blowup": gen_blowup,
    "flat_facts": gen_flat_facts,
    "golden": gen_golden,
    "classify": gen_classify,
}


def generate(workload, mix, seed):
    """The instance pool of one workload: ``count`` instances of every entry
    of ``mix``, in a seeded order.  The same seed always gives the same pool."""
    rng = random.Random(f"{workload}/{seed}")
    pool = []
    for entry in mix:
        params = {k: v for k, v in entry.items() if k not in ("family", "count")}
        label = " ".join([entry["family"]] + [f"{k}={v}" for k, v in params.items()])
        for _ in range(entry.get("count", 1)):
            instance = FAMILIES[entry["family"]](rng, **params)
            instance["family"] = label
            pool.append(instance)
    rng.shuffle(pool)
    for index, instance in enumerate(pool):
        instance["id"] = f"i{index}"
    return pool


# ----------------------------------------------------------------- checks


def dimacs_clauses(text):
    """Clauses of generated DIMACS text as signed ``x<k>`` literal lists."""
    clauses = []
    for line in text.splitlines()[1:]:
        clauses.append([f"~x{-v}" if v < 0 else f"x{v}" for v in map(int, line.split()[:-1])])
    return clauses


def instance_clauses(instance):
    """The instance's clauses, or None when it is given as ``terms``."""
    if "clauses" in instance:
        return instance["clauses"]
    if "terms" in instance:
        return None
    with open(instance["path"], encoding="utf-8") as handle:
        return dimacs_clauses(handle.read())


def _literal_true(literal, model):
    if literal.startswith("~"):
        return model.get(literal[1:], 0) == 0
    return model.get(literal, 0) == 1


def model_problem(instance, model):
    """Why ``model`` (name -> 0/1) is not the expected least model of the
    instance, or None when it is."""
    ones = sorted(name for name, value in model.items() if value == 1)
    if ones != sorted(instance["expect"]["ones"]):
        return f"model is not the least model: {len(ones)} true atoms, expected {len(instance['expect']['ones'])}"
    clauses = instance_clauses(instance)
    if clauses is not None:
        for clause in clauses:
            if not any(_literal_true(lit, model) for lit in clause):
                return f"model falsifies clause {clause}"
    elif not any(all(_literal_true(lit, model) for lit in term) for term in instance["terms"]):
        return "model falsifies every term"
    return None


def parse_model_line(line):
    model = {}
    for field in line.split():
        name, _, value = field.partition("=")
        model[name] = int(value)
    return model


def _implication_parts(rendered):
    left, _, right = rendered.partition(" -> ")
    return set(left.split(" & ")), right


def _clause_of(implication):
    antecedent, consequent = implication
    literals = {"~" + atom for atom in antecedent if atom != "top"}
    return literals if consequent == "bot" else literals | {consequent}


def replay_problem(document, instance):
    """Replay a ``trace --json`` document as a certificate.  Its implications
    must be the instance's clauses, in order; each firing must use an
    implication whose antecedent is inside ``set_before`` and add exactly
    its consequent; an UNSAT verdict must derive ``bot``."""
    horn = [_implication_parts(text) for text in document["horn_form"]]
    if [_clause_of(implication) for implication in horn] != [set(c) for c in instance_clauses(instance)]:
        return "horn_form is not the input's clauses"
    current = {"top"}
    derived_bot = False
    for step in document["steps"]:
        before = set(step["set_before"])
        if before != current:
            return "set_before differs from the replayed set"
        if step["fired_index"] is None:
            continue
        antecedent, consequent = horn[step["fired_index"]]
        if not antecedent <= before:
            return f"fired implication {step['fired_index']} whose antecedent is not in set_before"
        if step["consequent_added"] != consequent:
            return "consequent_added does not match the fired implication"
        current = before | {consequent}
        if set(step["set_after"]) != current:
            return "set_after is not set_before plus the consequent"
        derived_bot = derived_bot or consequent == "bot"
    if sorted(current) != document["final_set"]:
        return "final_set differs from the replayed set"
    if document["step_count"] != len(document["steps"]):
        return "step_count differs from the number of steps"
    if (document["verdict"] == "UNSAT") != derived_bot:
        return "the verdict disagrees with whether bot was derived"
    return None
