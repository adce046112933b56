"""Seeded MiniC program generator with an independent Python oracle.

Every generated function is emitted twice from one statement tree: as
MiniC source for the compiler under test, and as Python that computes
the expected output without touching the compiler.  Programs have the
shape the paper's CMO cares about: a few hot modules that take most of
the dynamic calls, many cold ones, cross-module calls from each module
to later ones only (so the call graph is acyclic and call-tree depth
stays bounded whatever the module count), static helpers and static
constant tables for IPA, and biased branches for the profile.

All values stay non-negative and below 2**40, so MiniC's 64-bit
integers and Python's unbounded ones agree.
"""

import random

MASK16 = 65535
MASK20 = 1048575


class Config:
    """Shape of one program group, in the terms of the compiler's own
    workload personalities (lib/workload/suite.ml): module and hot
    module counts, functions per module, the hot modules' share of the
    dispatcher's calls (percent), the dispatcher's iteration count, the
    trip-count range of loop leaves and the share of tiny leaves
    (percent).  The seed only changes content, so build cost is steady
    across seeds."""

    def __init__(self, name, modules, hot, funcs, weight, iters, leaf, tiny):
        assert modules >= 2 and 1 <= hot <= modules
        self.name = name
        self.modules = modules
        self.hot = hot
        self.funcs = funcs
        self.weight = weight
        self.iters = iters
        self.leaf = leaf
        self.tiny = tiny

    def scale(self, f):
        """The personality with its module count scaled by `f` and the
        hot count in proportion (as Genprog.scale does)."""
        modules = max(2, round(self.modules * f))
        hot = min(modules, max(1, round(self.hot * modules / self.modules)))
        return Config(f"{self.name}x{f:g}", modules, hot, self.funcs, self.weight,
                      self.iters, self.leaf, self.tiny)

    def training_input(self):
        """Genprog.training_input: a fifth of the dispatcher's iterations."""
        return [max(50, self.iters // 5), 17]


# The personalities of lib/workload/suite.ml the workloads use, copied
# so that the benchmark's inputs stay fixed while the compiler evolves.
PERSONALITIES = {c.name: c for c in [
    Config("li", modules=8, hot=2, funcs=(6, 12), weight=88, iters=5000, leaf=(6, 14), tiny=45),
    Config("mcad1", modules=220, hot=40, funcs=(10, 18), weight=85, iters=1500, leaf=(8, 18), tiny=30),
    Config("storm", modules=6, hot=2, funcs=(5, 9), weight=85, iters=1200, leaf=(6, 12), tiny=40),
]}


def _spread(k, per_module):
    """Module k's whole part of a fractional `per_module` count, by
    error diffusion over module indices: seed-free, and in the right
    proportion over the program."""
    return int((k + 1) * per_module) - int(k * per_module)


def kind_mix(cfg, i):
    """Function kinds of module i other than its entry.  The count
    spans cfg.funcs by module index and the kinds follow Genprog's
    expected shares for cfg.tiny: a leaf slot (tiny% of helpers) is a
    recursive leaf 8% of the time and otherwise tiny; the rest are
    combinators 45%, loop leaves and tiny leaves half each."""
    lo, hi = cfg.funcs
    helpers = lo + (11 * i) % (hi - lo + 1) - 1
    t = cfg.tiny / 100
    ncomb = round(helpers * (1 - t) * 0.45)
    nrec = min(_spread(i, helpers * t * 0.08), helpers - ncomb)
    nloop = min(round(helpers * (1 - t) * 0.275), helpers - ncomb - nrec)
    return ["comb"] * ncomb + ["loop"] * nloop + ["rec"] * nrec + ["tiny"] * (helpers - ncomb - nloop - nrec)


# --- two renderings of one statement tree ---------------------------

# Statements: ("let", v, e) ("set", v, e) ("store", arr, i, e)
# ("if", c, then, else) ("for", v, n, body) ("ret", e) ("print", e).
# Expressions are strings in the subset MiniC and Python read alike:
# every binary operation is parenthesised (C and Python rank `&`
# against comparisons differently), calls and array indexing only.


def _render_c(stmts, out, ind):
    pad = "  " * ind
    for s in stmts:
        k = s[0]
        if k == "let":
            out.append(f"{pad}var {s[1]} = {s[2]};")
        elif k == "set":
            out.append(f"{pad}{s[1]} = {s[2]};")
        elif k == "store":
            out.append(f"{pad}{s[1]}[{s[2]}] = {s[3]};")
        elif k == "if":
            out.append(f"{pad}if ({s[1]}) {{")
            _render_c(s[2], out, ind + 1)
            if s[3]:
                out.append(f"{pad}}} else {{")
                _render_c(s[3], out, ind + 1)
            out.append(f"{pad}}}")
        elif k == "for":
            v, n = s[1], s[2]
            out.append(f"{pad}for (var {v} = 0; {v} < {n}; {v} = {v} + 1) {{")
            _render_c(s[3], out, ind + 1)
            out.append(f"{pad}}}")
        elif k == "ret":
            out.append(f"{pad}return {s[1]};")
        elif k == "print":
            out.append(f"{pad}print({s[1]});")
        else:
            raise ValueError(k)


def _py_expr(e, tbl):
    return e.replace("tbl[", tbl + "[").replace("arg(", "_arg(")


def _render_py(stmts, out, ind, tbl):
    pad = "    " * ind
    for s in stmts:
        k = s[0]
        if k in ("let", "set"):
            out.append(f"{pad}{s[1]} = {_py_expr(s[2], tbl)}")
        elif k == "store":
            out.append(f"{pad}{s[1]}[{_py_expr(s[2], tbl)}] = {_py_expr(s[3], tbl)}")
        elif k == "if":
            out.append(f"{pad}if {_py_expr(s[1], tbl)}:")
            _render_py(s[2], out, ind + 1, tbl)
            if s[3]:
                out.append(f"{pad}else:")
                _render_py(s[3], out, ind + 1, tbl)
        elif k == "for":
            v, n = s[1], s[2]
            out.append(f"{pad}{v} = 0")
            out.append(f"{pad}while {v} < {n}:")
            _render_py(s[3], out, ind + 1, tbl)
            out.append(f"{pad}    {v} = {v} + 1")
        elif k == "ret":
            out.append(f"{pad}return {_py_expr(s[1], tbl)}")
        elif k == "print":
            out.append(f"{pad}_out.append({_py_expr(s[1], tbl)})")
        else:
            raise ValueError(k)


class Module:
    """One source file: its MiniC text and its Python twin."""

    def __init__(self, name):
        self.name = name
        self.c = []
        self.py = []
        self.tbl = "tbl_" + name

    def func(self, name, params, body, static=False):
        kw = "static func" if static else "func"
        self.c.append(f"{kw} {name}({', '.join(params)}) {{")
        _render_c(body, self.c, 1)
        self.c.append("}")
        self.py.append(f"def {name}({', '.join(params)}):")
        _render_py(body, self.py, 1, self.tbl)

    def text(self):
        return "\n".join(self.c) + "\n"


# --- one program group ----------------------------------------------


class Group:
    """A self-contained program: modules `<p>m000..` plus a dispatcher
    `<p>main`.  `prefix` namespaces every cross-module name so several
    groups can link into one image as independent CMO components."""

    def __init__(self, cfg, seed, prefix=""):
        self.cfg = cfg
        self.seed = seed
        self.prefix = prefix

    def mod(self, i):
        return f"{self.prefix}m{i:03d}"

    def entry(self, i):
        return f"{self.mod(i)}_f0"

    def state(self, i):
        return f"state_{self.mod(i)}"

    def dispatcher(self):
        return f"{self.prefix}main" if self.prefix else "main"

    # Cross-module calls go from a module to the next of four bands of
    # its temperature region: acyclic, at most four hops deep.
    def _callee_module(self, rng, i):
        cfg = self.cfg
        start, size = (0, cfg.hot) if i < cfg.hot else (cfg.hot, cfg.modules - cfg.hot)
        band = 4 * (i - start) // max(1, size)
        if band >= 3:
            return None
        lo = max(start + size * (band + 1) // 4, i + 1)
        hi = start + size * (band + 2) // 4 - 1
        return rng.randint(lo, hi) if lo <= hi else None

    def module(self, i, version=0):
        """Module i's source; `version` > 0 is an edit of it that keeps
        its interface (entry name and state array) unchanged."""
        cfg = self.cfg
        rng = random.Random(f"{self.seed}/{self.prefix}/{i}/{version}")
        m = Module(self.mod(i))
        hot = i < cfg.hot
        # Module i's mix of function kinds is fixed by its index, in
        # seeded order: the seed decides who calls whom and every
        # constant, not how much code there is, so build cost varies
        # little between seeds.  The last function must be a leaf.
        mix = kind_mix(cfg, i)
        nfuncs = len(mix) + 1
        rng.shuffle(mix)
        if mix[-1] == "comb":
            k = max(k for k, kind in enumerate(mix) if kind != "comb")
            mix[k], mix[-1] = mix[-1], mix[k]
        kinds = ["entry"] + mix
        name = lambda j: f"{m.name}_f{j}"

        # Each function makes at most one call that may fan out further
        # (entries two: a local helper and the next band's entry), so
        # the dynamic call tree, hence the run time, grows linearly
        # with chain length rather than exponentially.
        def local_callee(j):
            return name(rng.randint(j + 1, nfuncs - 1)) if j + 1 < nfuncs else None

        def remote_callee():
            rm = self._callee_module(rng, i)
            return self.entry(rm) if rm is not None else None

        def leaf_after(j):
            leaves = [k for k in range(j + 1, nfuncs) if kinds[k] in ("tiny", "loop")]
            return name(rng.choice(leaves)) if leaves else None

        consts = [3 + (k * k * 7 + i) % 91 for k in range(16)]
        m.c.append(f"// {'hot' if hot else 'cold'} module {m.name}")
        m.c.append(f"static global tbl[16] = {{{', '.join(map(str, consts))}}};")
        m.c.append(f"global {self.state(i)}[64];")
        m.py.append(f"{m.tbl} = {consts!r}")
        m.py.append(f"{self.state(i)} = [0] * 64")
        st = self.state(i)
        for j, kind in enumerate(kinds):
            static = j > 0 and rng.random() < 0.35
            if kind == "entry":
                body = [("let", "acc", f"((x + seed) & {MASK16})")]
                for c, f in enumerate([local_callee(0), remote_callee() or local_callee(0)]):
                    body.append(("set", "acc", f"((acc + {f}(((x + {13 * (c + 1)}) & 4095), acc)) & {MASK20})"))
                body += [("store", st, "(x & 63)", "acc"), ("ret", "acc")]
            elif kind == "tiny":
                a = rng.choice([2, 3, 5, 7, 8, 9, 11])
                extra = f"tbl[{rng.randrange(16)}]" if rng.random() < 0.3 else str(rng.randint(1, 63))
                body = [("ret", f"((((x * {a}) + seed) + {extra}) & {MASK16})")]
            elif kind == "loop":
                iters = rng.randint(*cfg.leaf)
                mult = rng.choice([2, 3, 4, 5, 7, 8])
                body = [
                    ("let", "acc", f"(seed & {MASK20})"),
                    ("for", "k", iters, [
                        ("set", "acc", f"((acc + ((tbl[(k & 15)] * (x + k)) * {mult})) & {MASK20})"),
                        ("if", "((k & 7) != 7)", [("set", "acc", "(acc + 1)")],
                         [("set", "acc", f"((acc * 3) & {MASK20})")]),
                    ]),
                    ("ret", "acc"),
                ]
            elif kind == "rec":
                body = [
                    ("let", "m", "(x & 127)"),
                    ("if", "(m <= 1)", [("ret", f"(seed & {MASK16})")], []),
                    ("ret", f"(({name(j)}((m - 2), (seed + m)) + m) & {MASK16})"),
                ]
            else:  # comb
                c1 = rng.randrange(32)
                f = local_callee(j) or remote_callee()
                body = [("let", "a", f"({f}(((x + {c1}) & 4095), (seed & {MASK16})))" if f
                         else f"((((x * 17) + seed) + {c1}) & {MASK16})")]
                leaf = leaf_after(j)
                if leaf and hot:
                    body.append(("for", "k", rng.randint(4, 7), [
                        ("set", "a", f"((a + {leaf}(((x + k) & 4095), (a & {MASK16}))) & {MASK20})"),
                    ]))
                if leaf and rng.random() < 0.4:
                    # A literal argument: cloning and IPA constant fodder.
                    body.append(("let", "b", f"{leaf}((a & 255), {rng.randint(1, 7)})"))
                elif leaf:
                    body.append(("let", "b", f"{leaf}((a & 255), ((seed + {c1}) & {MASK16}))"))
                else:
                    body.append(("let", "b", f"(((a * 3) + x) & {MASK16})"))
                body += [
                    ("if", "((x & 15) != 15)", [("set", "a", f"((a + b) & {MASK20})")], [
                        ("set", "a", f"(((a * b) + tbl[(x & 15)]) & {MASK20})"),
                        ("store", st, "((x + a) & 63)", "a"),
                    ]),
                    ("store", st, "(x & 63)", f"((a + {st}[((x + 1) & 63)]) & {MASK20})"),
                    ("ret", f"((a + b) & {MASK20})"),
                ]
            m.func(name(j), ["x", "seed"], body, static=static)
        return m

    def dispatch_module(self):
        """The group's dispatcher: a loop whose iterations split
        between hot entries (most of the mass) and a few cold ones."""
        cfg = self.cfg
        m = Module(f"{self.prefix}main_mod")
        m.c.append(f"extern global {self.state(0)}[64];")
        hot_entries = min(cfg.hot, 4)
        cold_entries = min(cfg.modules - cfg.hot, 3)
        threshold = 0
        remaining = cfg.weight * 128 // 100  # hot share of 128
        arms = []
        for k in range(hot_entries):
            share = remaining if k == hot_entries - 1 else (remaining + 1) // 2
            threshold += share
            remaining -= share
            arms.append((threshold, f"((s + {self.entry(k)}((i & 4095), (s & {MASK16}))) & {MASK20})"))
        for k in range(cold_entries):
            bound = threshold + (128 - threshold) * (k + 1) // cold_entries
            arms.append((bound, f"((s + {self.entry(cfg.hot + k)}((i & 63), (s & 255))) & {MASK20})"))
        # Nested if/else chain over r, last arm unconditional.
        chain = [("set", "s", arms[-1][1])]
        for bound, e in reversed(arms[:-1]):
            chain = [("if", f"(r < {bound})", [("set", "s", e)], chain)]
        body = [
            ("let", "n", "arg(0)"),
            ("let", "mix", "(arg(1) & 127)"),
            ("let", "s", "0"),
            ("for", "i", "n", [("let", "r", "((((i * 1103515245) + (mix * 12345)) >> 5) & 127)")] + chain),
            ("print", f"{self.state(0)}[1]"),
            ("ret", "s"),
        ]
        if not self.prefix:
            body.insert(-2, ("print", "s"))
        m.func(self.dispatcher(), [], body)
        return m


class Program:
    """One or more groups linked into one image.  A single group's
    dispatcher is `main`.  With several, `main` sums the results of the
    groups in `drive` (default all).  A call edge joins two modules
    into one CMO component, so only groups `main` does not call are
    components of their own: the shards that parallel and distributed
    placement can split off."""

    def __init__(self, cfg, seed, groups=1, drive=None):
        self.groups = [Group(cfg, seed, "" if groups == 1 else f"g{k}") for k in range(groups)]
        self.drive = range(groups) if drive is None else drive
        self.versions = {}  # (group, module) -> edit version

    def sources(self, versions=None):
        """The modules at `versions` (default: the current edits)."""
        versions = self.versions if versions is None else versions
        out = []
        for gi, g in enumerate(self.groups):
            out.append(g.dispatch_module())
            out += [g.module(i, versions.get((gi, i), 0)) for i in range(g.cfg.modules)]
        if len(self.groups) > 1:
            m = Module("main_mod")
            body = [("let", "s", "0")]
            body += [("set", "s", f"((s + {self.groups[k].dispatcher()}()) & {MASK20})")
                     for k in self.drive]
            body += [("print", "s"), ("ret", "s")]
            m.func("main", [], body)
            out.insert(0, m)
        return out

    def edit(self, group, module, version):
        self.versions[(group, module)] = version


def expected(modules, args):
    """Run the Python twin: (printed values, return value)."""
    env = {"_out": []}
    env["_arg"] = lambda k: args[k] if k < len(args) else 0
    for m in modules:
        exec("\n".join(m.py), env)
    ret = env["main"]()
    return env["_out"], ret
