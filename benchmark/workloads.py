"""The benchmark's workloads.

Each workload has a set-up, timed for `setup_s`, and a round: a fixed list
of ops built from the workload seed. The run repeats the round, so every
round does the same work and per-round counts repeat exactly. An op is one
unit of work a user asks for (one `check`, one cone, one table pass) and
returns None when its output matches the answer the benchmark knows, or a
message saying what differs. Each workload sorts its ops into two classes,
`a` and `b`, reported as `a_mean_ms` and `b_mean_ms`.

All program calls go through module attributes (`cc.cones.membership`) at
call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from types import SimpleNamespace

# Coxeter numbers by family; cluster variables of finite type number
# n(h+2)/2 (Fomin-Zelevinsky), which the benchmark checks independently
_COXETER = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n,
    "C": lambda n: 2 * n,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 12,
    "G": lambda n: 6,
}


def cluster_variable_count(type_name: str) -> int:
    family, rank = type_name[0], int(type_name[1:])
    return rank * (_COXETER[family](rank) + 2) // 2


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pname(cols) -> str:
    return "p[" + "".join(str(c) for c in sorted(cols)) + "]"


def _ratio_text(exps: dict[str, int]) -> str:
    def side(items):
        return "*".join(nm if e == 1 else f"{nm}^{e}" for nm, e in items)

    num = side(sorted((nm, e) for nm, e in exps.items() if e > 0))
    den = side(sorted((nm, -e) for nm, e in exps.items() if e < 0))
    return f"{num or '1'}/({den})" if den else num


def primitive_ratios(k: int = 3, n: int = 8) -> list[dict[str, int]]:
    """Primitive Plucker ratios p(i,j+1)p(j,i+1)/(p(i,j)p(i+1,j+1)), with
    k-2 extra columns, built from column sets alone. They are bounded by
    1 on the totally positive Grassmannian."""
    succ = lambda a: a % n + 1
    out = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if succ(i) == j or succ(j) == i:
            continue
        corners = (i, succ(i), j, succ(j))
        rest = [c for c in range(1, n + 1) if c not in corners]
        for extra in itertools.combinations(rest, k - 2):
            exps: dict[str, int] = {}
            for cols, e in (((i, succ(j)), 1), ((j, succ(i)), 1),
                            ((i, j), -1), ((succ(i), succ(j)), -1)):
                nm = _pname(cols + extra)
                exps[nm] = exps.get(nm, 0) + e
            out.append({nm: e for nm, e in exps.items() if e})
    return out


class Gr38Base:
    """Set-up shared by the Gr(3,8) workloads: the cluster structure, its
    U matrix, and the rotation (used by the orbit checks)."""

    def setup(self, cc):
        grass = cc.grassmannian.GrassmannianCluster(3, 8)
        U = grass.U
        grass.rotation()
        return SimpleNamespace(grass=grass, U=U)

    def load(self, state) -> dict:
        U, belt = state.U, state.grass.belt
        return {
            "u_shape": [U.num_rows, U.num_cols],
            "u_nonzeros": sum(1 for row in U.rows for x in row if x),
            "belt_mutable": len(belt.mutable_ids),
            "belt_frozen": len(belt.frozen_ids),
        }


class Gr38Check(Gr38Base):
    """`clustercones check --gr 3 8` on seeded ratios of known verdict."""

    name = "gr38-check"
    classes = ("bounded", "unbounded")
    unit = "checks"

    def cases(self, rng, smoke) -> list[tuple[str, str]]:
        """Ratio texts with the verdict each was built to have."""
        prims = primitive_ratios()
        minors = [_pname(c) for c in itertools.combinations(range(1, 9), 3)]
        products = []
        # every seed gets the same spread of product lengths, 1 to 4
        for length in [1] if smoke else [1, 2, 3, 4] * 3:
            exps: dict[str, int] = {}
            for prim in rng.choices(prims, k=length):
                for nm, e in prim.items():
                    exps[nm] = exps.get(nm, 0) + e
            # a nonzero sum of rays of a pointed cone never cancels to 0
            products.append({nm: e for nm, e in exps.items() if e})
        cases = [(_ratio_text(p), "bounded") for p in products]
        cases += [(_ratio_text({nm: -e for nm, e in p.items()}), "unbounded")
                  for p in products]
        for _ in range(1 if smoke else 3):
            top, bottom = rng.sample(minors, 2)
            cases.append((_ratio_text({top: 1, bottom: -1}), "not-weight-zero"))
        rng.shuffle(cases)
        return cases

    def ops(self, cc, state, rng, smoke, span, golden):
        return [(expected, 1, self._op(cc, state, text, expected, span))
                for text, expected in self.cases(rng, smoke)]

    @staticmethod
    def _op(cc, state, text, expected, span):
        U, belt = state.U, state.grass.belt

        def check():
            vector = cc.expressions.parse_ratio(text, belt.id_by_name)
            cert = cc.cones.membership(vector, U)
            report = None
            if cert.bounded:
                report = cc.cones.subtraction_free_check(cert, U)
            # the payload `check --format json` prints
            with span("cli", "render"):
                payload = {
                    "command": "check",
                    "context": "Gr(3,8)",
                    "expression": cc.expressions.render_ratio(vector, belt.name),
                    "certificate": cert.to_dict(U),
                }
                if report is not None:
                    payload["subtraction_free"] = report.to_dict(belt)
                out = json.dumps(payload, indent=2)
            replayed = cc.cones.verify_certificate(U, cert)
            if cert.verdict != expected:
                return f"{text}: verdict {cert.verdict}, expected {expected}"
            if json.loads(out)["certificate"]["verdict"] != expected:
                return f"{text}: rendered verdict differs"
            if not replayed:
                return f"{text}: certificate replay failed"
            # products of primitive ratios have integral u-exponents, so
            # a verified telescoping chain must exist
            if cert.bounded and not (report.verified and report.subtraction_free):
                return f"{text}: subtraction-free chain not verified"
            return None

        return check


class Gr38Cones(Gr38Base):
    """`cone --gr 3 8 --subset pluecker|deg2` plus the appendix table
    check, repeated: extreme rays by double description, rotation orbits,
    and the table rows matched against the rays."""

    name = "gr38-cones"
    classes = ("pluecker", "deg2")
    unit = "DD equality rows"

    def setup(self, cc):
        state = super().setup(cc)
        g = cc.grassmannian
        state.table = g.load_ray_table(g.packaged_table("gr38_appendix.txt"))
        return state

    def subsets(self, state) -> dict[str, list[int]]:
        grass = state.grass
        return {
            "pluecker": grass.degree_one_ids(),
            "deg2": grass.ids_with_degree_at_most(2),
        }

    def load(self, state) -> dict:
        out = super().load(state)
        out["dd_rows"] = {
            kind: state.U.num_rows - len(ids)
            for kind, ids in self.subsets(state).items()
        }
        return out

    def ops(self, cc, state, rng, smoke, span, golden):
        rows = {kind: state.U.num_rows - len(ids)
                for kind, ids in self.subsets(state).items()}
        kinds = ["pluecker"] + ["deg2"] * (1 if smoke else 3)
        rng.shuffle(kinds)
        return [(kind, rows[kind], self._op(cc, state, kind, golden))
                for kind in kinds]

    def _op(self, cc, state, kind, golden):
        grass, U = state.grass, state.U
        section = {"pluecker": "pluecker", "deg2": "degree2"}[kind]
        want_rays = {"pluecker": 80, "deg2": 168}[kind]

        def cone():
            description = cc.cones.subset_cone(self.subsets(state)[kind], U)
            orbits = grass.ray_orbits(description)
            table_rows = state.table[section]
            _, ray_indices = cc.grassmannian.check_ray_table(
                grass, table_rows, description)
            payload = {"subset_name": kind, "count": len(description)}
            payload.update(description.to_dict())
            payload["orbits"] = orbits
            got = digest(json.dumps(payload, indent=2))
            if len(description) != want_rays:
                return f"{kind}: {len(description)} rays, expected {want_rays}"
            if kind == "pluecker" and sorted(map(len, orbits)) != [8] * 10:
                return f"pluecker: orbit sizes {sorted(map(len, orbits))}"
            if len(ray_indices) != len(table_rows):
                return f"{section}: {len(ray_indices)} of {len(table_rows)} rows"
            if got != golden["cone"][kind]:
                return f"{kind}: cone payload digest {got} differs from golden"
            return None

        return cone


class Gr48Table:
    """`verify --suite gr48` in one process: every symmetry image of the
    stored 4x8 ratios evaluated at totally positive integer points."""

    name = "gr48-table"
    classes = ("full", "fixed")
    unit = "image x point evaluations"
    images = 316
    points = 200

    def setup(self, cc):
        return SimpleNamespace(ratios=cc.grassmannian.load_gr48_ratios())

    def load(self, state) -> dict:
        return {"stored_ratios": len(state.ratios), "images": self.images,
                "points": {"full": self.points, "fixed": 1}}

    def ops(self, cc, state, rng, smoke, span, golden):
        full = 5 if smoke else self.points
        calls = [("full", full)] + [("fixed", 1)] * (1 if smoke else 3)
        return [(kind, self.images * points,
                 self._op(cc, points, rng.randrange(2**31)))
                for kind, points in calls]

    def _op(self, cc, points, seed):
        def table():
            report = cc.grassmannian.verify_gr48_table(
                points=points, seed=seed, jobs=1)
            if report.num_images != self.images:
                return f"{report.num_images} images, expected {self.images}"
            if report.num_points != points:
                return f"{report.num_points} points, expected {points}"
            if not (report.ok and report.strictly_below_one):
                return f"seed {seed}: table check failed ({report.to_dict()})"
            return None

        return table


class CatalogSymbolic:
    """Symbolic belts of catalog types: `enumerate --format json` with
    frozen attachments, and the u-equations checked as Laurent identities."""

    name = "catalog-symbolic"
    classes = ("enumerate", "ueq")
    unit = "cluster variables"
    enumerate_contexts = (("E6", 6), ("D5", 5), ("F4", 4))
    ueq_types = ("A1", "A2", "A3", "A5", "C2", "D4", "G2")
    smoke_contexts = (("D5", 5),)
    smoke_types = ("A1", "A2", "A3")

    def setup(self, cc):
        types = {t for t, _ in self.enumerate_contexts} | set(self.ueq_types)
        return SimpleNamespace(
            dynkin={t: cc.finite_type.DynkinType.from_name(t) for t in types})

    def load(self, state) -> dict:
        return {
            "enumerate_variables": {
                f"{t}+{f}": cluster_variable_count(t) + f
                for t, f in self.enumerate_contexts
            },
            "ueq_variables": {t: cluster_variable_count(t)
                              for t in self.ueq_types},
        }

    def ops(self, cc, state, rng, smoke, span, golden):
        contexts = list(self.smoke_contexts if smoke else self.enumerate_contexts)
        types = list(self.smoke_types if smoke else self.ueq_types)
        rng.shuffle(contexts)
        rng.shuffle(types)
        enum_work = sum(cluster_variable_count(t) + f for t, f in contexts)
        ueq_work = sum(cluster_variable_count(t) for t in types)
        return [
            ("enumerate", enum_work, self._enumerate(cc, contexts, golden)),
            ("ueq", ueq_work, self._ueq(cc, types)),
        ]

    @staticmethod
    def _enumerate(cc, contexts, golden):
        def enumerate_pass():
            for type_name, frozen in contexts:
                label = f"{type_name}+{frozen}"
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cc.cli.main(["enumerate", "--type", type_name,
                                        "--frozen", str(frozen),
                                        "--format", "json"])
                text = buf.getvalue()
                if code != 0:
                    return f"enumerate {label}: exit code {code}"
                variables = json.loads(text)["variables"]
                mutable = sum(1 for v in variables if not v["frozen"])
                if mutable != cluster_variable_count(type_name):
                    return f"enumerate {label}: {mutable} cluster variables"
                if len(variables) - mutable != frozen:
                    return f"enumerate {label}: {len(variables) - mutable} frozen"
                got = digest(text)
                if got != golden["enumerate"][label]:
                    return f"enumerate {label}: JSON digest {got} differs from golden"
            return None

        return enumerate_pass

    @staticmethod
    def _ueq(cc, types):
        def ueq_pass():
            ft = cc.finite_type
            for type_name in types:
                belt = ft.BipartiteBelt(
                    ft.catalog_exchange(ft.DynkinType.from_name(type_name)))
                results = cc.uvars.verify_u_equations(belt)
                if len(results) != cluster_variable_count(type_name):
                    return f"u-equations {type_name}: {len(results)} identities"
                failed = [belt.name(g) for g, ok in results.items() if not ok]
                if failed:
                    return f"u-equations {type_name}: fail at {failed}"
            return None

        return ueq_pass


WORKLOADS = {
    w.name: w for w in (Gr38Check(), Gr38Cones(), Gr48Table(), CatalogSymbolic())
}
