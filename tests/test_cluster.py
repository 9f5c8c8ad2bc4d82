import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from ionarch.cluster import (_A, _B, _C, _GADGET_LAYERS, _T,
                             MAX_MC_SAMPLES, CellLattice, CreationSchedule,
                             ErrorBudget, LinearError, _faults, _outcome,
                             _parity_product, _residuals, cell_lattice,
                             coupling_order, matched_pair_class,
                             mc_stabilizer_expectation,
                             stabilizer_expectation_analytic,
                             teleported_cnot_classes, threshold_margin)
from ionarch.errors import ValidationError


# ---------------------------------------------------------------------------
# exact link classes (exhaustive single-fault injection)

def test_link_classes_exact():
    # criterion 08 pins each class's value; no other key is booked
    assert set(teleported_cnot_classes()) == {(1, 0), (0, 1), (1, 1)}


def test_type2_probs_numeric():
    # the census's link classes and birth class, evaluated at a budget
    classes = teleported_cnot_classes()

    def probs(eps, r):
        return {name: classes[key].evaluate(eps, r)
                for name, key in (("p_ZI", (1, 0)), ("p_IZ", (0, 1)),
                                  ("p_ZZ", (1, 1)))}

    assert probs(F(15, 10000), F(0))["p_ZI"] == F(3, 1000)
    assert probs(F(15, 10000), F(0))["p_IZ"] == F(4, 10000)
    assert probs(F(0), F(3, 1000))["p_ZI"] == F(1, 100)
    assert probs(F(0), F(3, 1000))["p_IZ"] == F(1, 500)
    assert all(v == 0 for v in probs(0.0, 0.0).values())
    assert matched_pair_class().evaluate(F(0), F(0)) == 0


# ---------------------------------------------------------------------------
# the frame push against hand-written propagation rules

_HAND_TWO_QUBIT_FAULTS = [p for p in itertools.product("IXYZ", repeat=2)
                          if p != ("I", "I")]


def _hand_gadget_faults():
    # the link gadget's faults written out by hand: the Bell-pair fault and
    # the two CNOT faults interleaved, one memory round on all four qubits
    # before and after the CNOTs, then the two readout faults
    two_qubit = LinearError(eps=F(1, 15))
    for pa, pb in _HAND_TWO_QUBIT_FAULTS:
        yield [(0, _A, pa), (0, _B, pb)], two_qubit
        yield [(2, _C, pa), (2, _A, pb)], two_qubit
        yield [(2, _B, pa), (2, _T, pb)], two_qubit
    memory = LinearError(r=F(1, 3))
    for time in (1, 2):
        for qubit in (_C, _A, _B, _T):
            for pauli in "XYZ":
                yield [(time, qubit, pauli)], memory
    readout = LinearError(eps=F(1, 3))
    for qubit in (_A, _B):
        for pauli in "XYZ":
            yield [(3, qubit, pauli)], readout


def _hand_birth_faults():
    # a birth Bell pair's faults written out by hand: the 15 pair faults
    # and one memory round on each half
    two_qubit = LinearError(eps=F(1, 15))
    for pc, pt in _HAND_TWO_QUBIT_FAULTS:
        yield [(0, _C, pc), (0, _T, pt)], two_qubit
    memory = LinearError(r=F(1, 3))
    for qubit in (_C, _T):
        for pauli in "XYZ":
            yield [(0, qubit, pauli)], memory


def _hand_gadget_outcome(faults):
    # the link gadget propagated by hand: two frame dicts, injection and
    # CNOT rules, then the two readout-conditioned corrections
    x = dict.fromkeys((_C, _A, _B, _T), 0)
    z = dict.fromkeys((_C, _A, _B, _T), 0)

    def inject(q, p):
        if p in ("X", "Y"):
            x[q] ^= 1
        if p in ("Z", "Y"):
            z[q] ^= 1

    def cnot(c, t):
        x[t] ^= x[c]
        z[c] ^= z[t]

    for time in (0, 1, 2, 3):
        for f_time, qubit, pauli in faults:
            if f_time == time:
                inject(qubit, pauli)
        if time == 1:
            cnot(_C, _A)
            cnot(_B, _T)
    if x[_A]:     # flipped Z-basis readout -> wrong X correction on T
        x[_T] ^= 1
    if z[_B]:     # flipped X-basis readout -> wrong Z correction on C
        z[_C] ^= 1
    return z[_C], z[_T]


def _hand_birth_z(faults):
    # a birth pair's equivalent single Z: present iff exactly one half
    # carries a Z component
    halves = {_C: 0, _T: 0}
    for _time, qubit, pauli in faults:
        halves[qubit] ^= pauli in ("Y", "Z")
    return halves[_C] ^ halves[_T]


def _hand_later_faces(link):
    # a Z on the edge spreads once onto every face coupled to it later
    return coupling_order(link.edge)[link.position:]


def test_gadget_push_matches_hand_rule():
    faults = list(_faults("cnot_link"))
    assert len(faults) == 75
    for fault, _weight in faults:
        assert _outcome(fault, _GADGET_LAYERS) == _hand_gadget_outcome(
            fault), fault
    residuals = [(_hand_gadget_outcome(fault), weight)
                 for fault, weight in faults]
    assert _residuals("cnot_link") == tuple(
        (key, weight) for key, weight in residuals if key != (0, 0))


def test_birth_classes_match_exactly_one_half():
    faults = list(_faults("birth_pair"))
    assert len(faults) == 15 + 6
    for fault, _weight in faults:
        z_c, z_t = _outcome(fault, ())
        assert z_c ^ z_t == _hand_birth_z(fault), fault
    classes = {}
    for key, weight in _residuals("birth_pair"):
        classes[key] = classes.get(key, LinearError()) + weight
    assert classes == {(1, 0): LinearError(eps=F(4, 15), r=F(2, 3)),
                       (0, 1): LinearError(eps=F(4, 15), r=F(2, 3)),
                       (1, 1): LinearError(eps=F(4, 15))}
    assert matched_pair_class() == sum(
        (weight for fault, weight in faults if _hand_birth_z(fault)),
        LinearError())


def test_faults_match_hand_generators():
    # one enumeration by location lists the hand generators' faults with
    # the same weights, block by block: only the order of the equal-weight
    # pair faults moves
    def multiset(items):
        return Counter((tuple(fault), weight) for fault, weight in items)

    for kind, hand in (("cnot_link", _hand_gadget_faults),
                       ("birth_pair", _hand_birth_faults)):
        faults, expected = list(_faults(kind)), list(hand())
        assert multiset(faults) == multiset(expected), kind
        assert [weight for _, weight in faults] == [
            weight for _, weight in expected], kind


def test_readout_flips_derived():
    # a cell readout is a gadget too: Z or Y before the X readout of a cell
    # face flips the check, and a collar face's readout flips nothing
    assert [fault for fault, _ in _faults("readout")] == [
        [(0, _C, pauli)] for pauli in "XYZ"]
    lat = cell_lattice()
    readouts = [s for s in lat.sources if s.kind == "readout"]
    assert [s.flip for s in readouts] == (
        [LinearError(eps=F(2, 3))] * 6 + [LinearError()] * 24)
    assert all(s.fault_weights == () for s in readouts)


def test_link_bits_match_coupling_order():
    lat = cell_lattice()
    in_cell = set(lat.cell_faces)
    for link in lat.links + lat.shell_links:
        face_bit = int(link.face in in_cell)
        edge_bit = sum(f in in_cell for f in _hand_later_faces(link)) % 2
        assert lat._link_bits(link) == (face_bit, edge_bit), link


def _hand_source(link, in_cell):
    # the census's rules before the frame push: birth pairs booked on the
    # face with the hand-rule class, links judged class by class
    if link.position == 1:
        weights = [weight for fault, weight in _hand_birth_faults()
                   if link.face in in_cell and _hand_birth_z(fault)]
        return "birth_pair", sum(weights, LinearError()), ()
    later = _hand_later_faces(link)

    def flips(z_c, z_t):
        return sum(f in in_cell for f in ([link.face] if z_c else [])
                   + (later if z_t else [])) % 2

    weights = tuple(weight for fault, weight in _hand_gadget_faults()
                    if flips(*_hand_gadget_outcome(fault)))
    return "cnot_link", sum(weights, LinearError()), weights


def test_census_matches_hand_rules():
    # every census and shell source has the hand rules' kind, flip and
    # flipping gadget faults, in the same order
    lat = cell_lattice()
    in_cell = set(lat.cell_faces)
    for links, sources in ((lat.links, lat.sources[:len(lat.links)]),
                           (lat.shell_links, lat.shell_sources)):
        assert len(links) == len(sources)
        for link, src in zip(links, sources):
            assert (src.kind, src.flip, src.fault_weights) == _hand_source(
                link, in_cell), link


def test_shell_births_are_birth_pairs():
    lat = cell_lattice()
    kinds = {}
    for link, src in zip(lat.shell_links, lat.shell_sources):
        assert src.kind == ("birth_pair" if link.position == 1
                            else "cnot_link"), link
        kinds[src.kind] = kinds.get(src.kind, 0) + 1
        if src.kind == "birth_pair":
            assert src.fault_weights == ()
    assert kinds == {"birth_pair": 72, "cnot_link": 216}


# ---------------------------------------------------------------------------
# lattice census

def test_lattice_counts():
    lat = cell_lattice()
    assert len(lat.cell_faces) == 6
    assert len(lat.cell_edges) == 12
    for face in lat.cell_faces:
        from ionarch.cluster import edges_of_face
        assert len(edges_of_face(face)) == 4
    kinds = {}
    for src in lat.sources:
        kinds.setdefault(src.kind, []).append(src)
    assert len(kinds["birth_pair"]) == 12       # 6 born in-cell + 6 born out
    assert len(kinds["cnot_link"]) == 36        # 18 in-cell + 18 collar
    flipping_links = [s for s in kinds["cnot_link"] if not s.flip.is_zero()]
    assert len(flipping_links) == 18 + 6        # all in-cell plus 6 odd collar
    flipping_births = [s for s in kinds["birth_pair"] if not s.flip.is_zero()]
    assert len(flipping_births) == 6            # only the in-cell births


def test_link_fault_weights_sum_to_flip():
    # each link keeps the gadget faults that flip the check, and its flip is
    # exactly their sum; the other kinds keep none
    lat = cell_lattice()
    for src in lat.sources:
        if src.kind == "cnot_link":
            assert sum(src.fault_weights, LinearError()) == src.flip
            assert all(not w.is_zero() for w in src.fault_weights)
        else:
            assert src.fault_weights == ()
    # the product's two modes: each kind's gadget-mode weights sum to its
    # class-mode flips
    groups = lat.flip_weights
    for gadget_group, classes_group in zip(groups["gadget"],
                                           groups["classes"]):
        assert (sum(gadget_group, LinearError())
                == sum(classes_group, LinearError()))
    budget = ErrorBudget(eps=1e-4, r=1e-4)
    gadget, classes = (
        [weight.evaluate(budget.eps, budget.r)
         for group in groups[mode] for weight in group]
        for mode in ("gadget", "classes"))
    assert len(classes) == len(lat.flipping_sources)
    assert len(gadget) > len(classes)
    assert math.fsum(gadget) == pytest.approx(math.fsum(classes), rel=1e-12)


def test_census_builds_the_shell_on_first_read():
    lat = CellLattice()
    assert "shell_links" not in vars(lat)
    assert len(lat.shell_sources) == len(lat.shell_links) > 0


def test_schedule_invariants():
    lat = CellLattice()
    schedule = lat.schedule()
    schedule.validate()
    # every register's links occupy distinct coupling steps
    by_face = {}
    for link in lat.links:
        by_face.setdefault(link.face, []).append(link)
    for face, links in by_face.items():
        if len(links) == 4:   # faces of the cell couple to 4 cell edges
            steps = sorted(lk.cnot_step or 1 for lk in links)
            assert steps == [1, 2, 3, 4], face
    # one link Bell pair per register per step; the birth pairs, one per
    # register, are added at step 1, where 18 registers host both
    births = [q for link in lat.links if link.position == 1
              for q in (link.face, link.edge)]
    assert len(births) == len(set(births))
    for step in (1, 2, 3):
        hosts = [q for link in lat.links
                 if link.position > 1 and link.bell_step == step
                 for q in (link.face, link.edge)]
        assert len(hosts) == len(set(hosts)), step
        if step == 1:
            assert len(set(hosts) & set(births)) == 18
    # ancilla lifetime: bell at s, cnot at s+1, measured at s+2
    for link in lat.links:
        if link.position > 1:
            assert link.cnot_step == link.bell_step + 1
            assert link.measure_step == link.bell_step + 2
            assert 1 <= link.bell_step <= 3
    # each rule the check holds refuses a schedule that breaks it
    face, edge = lat.links[0].face, lat.links[0].edge
    broken = [
        ({"cnots": {5: [(face, edge)]}}, "CNOT scheduled outside steps 2-4"),
        ({"bell_pairs": {4: [(face, edge)]}}, "Bell pair outside steps 1-3"),
        ({"cnots": {2: [(face, edge), (face, edge)]}}, "double-acted"),
    ]
    for ops, message in broken:
        fields = {"bell_pairs": {}, "cnots": {}, "measurements": {}, **ops}
        with pytest.raises(ValidationError, match=message):
            CreationSchedule(**fields).validate()


def test_schedule_lists_every_cnot_and_measurement():
    # validate() accepts a schedule without CNOTs or measurements, so their
    # entries are pinned here: each of the 36 links past a birth pair has its
    # CNOT at step 2-4 and its ancillas measured one step later, and the 18
    # cluster qubits of the cell are read out at step 5
    lat = CellLattice()
    schedule = lat.schedule()
    links = [link for link in lat.links if link.position > 1]
    assert len(links) == 36
    cnots, measurements = {}, {}
    for link in links:
        assert 2 <= link.cnot_step <= 4, link
        cnots.setdefault(link.cnot_step, Counter())[link.face, link.edge] += 1
        measurements.setdefault(link.cnot_step + 1, Counter())[
            link.face, link.edge, "ancillas"] += 1
    readouts = lat.cell_faces + lat.cell_edges
    assert len(readouts) == 18
    measurements[5].update((q, "cluster") for q in readouts)
    assert {step: Counter(ops) for step, ops in schedule.cnots.items()} == cnots
    assert {step: Counter(ops) for step, ops
            in schedule.measurements.items()} == measurements


def test_birth_placement_equivalence():
    # the equivalent-Z error of an in-cell birth pair flips the check whether
    # it is booked on the face or propagated from the edge (they differ by a
    # stabilizer of the final state)
    lat = cell_lattice()
    in_cell = set(lat.cell_faces)
    for link in lat.links:
        if link.position != 1:
            continue
        face_flip = link.face in in_cell
        edge_flip = sum(1 for f in coupling_order(link.edge)[1:]
                        if f in in_cell) % 2 == 1
        assert face_flip == edge_flip, link


def test_census_linear_coefficients():
    # criterion 06 pins the coefficients 512/5 and 176; the analytic
    # expectation reports the first-order form and the product
    analytic = stabilizer_expectation_analytic(ErrorBudget(eps=F(0), r=F(0)))
    assert set(analytic) == {"first_order", "product"}


def test_factor_product_expands_symbolically():
    # grouped factors multiply out to 1 - (512/5) eps - 176 r at first order
    lat = cell_lattice()
    by_kind = {"birth_pair": LinearError(), "cnot_link": LinearError(),
               "readout": LinearError()}
    for src in lat.sources:
        by_kind[src.kind] = by_kind[src.kind] + src.flip
    total_eps = sum((2 * term.eps for term in by_kind.values()), F(0))
    total_r = sum((2 * term.r for term in by_kind.values()), F(0))
    assert total_eps == F(512, 5)
    assert total_r == 176
    # the readout factor is pure gate error: 6 faces at 2 eps / 3 each
    assert by_kind["readout"] == LinearError(eps=F(4))


def test_expectation_values():
    assert stabilizer_expectation_analytic(
        ErrorBudget(eps=F(0), r=F(0)))["first_order"] == 1
    fo = stabilizer_expectation_analytic(
        ErrorBudget(eps=F(1, 10000), r=F(0)))["first_order"]
    assert fo == 1 - F(512, 5) * F(1, 10000)
    assert float(fo) == pytest.approx(0.98976)
    fo = stabilizer_expectation_analytic(
        ErrorBudget(eps=F(0), r=F(1, 10000)))["first_order"]
    assert float(fo) == pytest.approx(0.9824)


def test_threshold_r_weight_from_census():
    # the census's coefficients 512/5 and 176 give the published 55/32
    assert cell_lattice().threshold_r_weight == F(55, 32)


def test_threshold_margin_exact():
    # criterion 06 checks both zero-margin boundaries; the r boundary,
    # 2.9e-3 over the census's r weight, is the published 1.6873e-3
    assert threshold_margin(ErrorBudget(eps=0, r=0)) == F(29, 10000)
    r_boundary = F(29, 10000) / cell_lattice().threshold_r_weight
    assert float(r_boundary) == pytest.approx(1.6873e-3, rel=1e-4)


def test_threshold_consistent_with_expectation():
    # margin = (first_order - 0.70) * 5/512 up to the published constant's
    # rounding: the difference is the fixed gap 29/10000 - 3/1024
    gap = F(29, 10000) - F(3, 1024)
    for eps, r in [(F(0), F(0)), (F(1, 1000), F(0)), (F(1, 2000), F(1, 2000))]:
        budget = ErrorBudget(eps=eps, r=r)
        fo = stabilizer_expectation_analytic(budget)["first_order"]
        derived = (fo - F(7, 10)) * F(5, 512)
        assert threshold_margin(budget) - derived == gap


def test_budget_guards():
    with pytest.raises(ValidationError):
        ErrorBudget(eps=0.2, r=0.0)
    with pytest.raises(ValidationError):
        ErrorBudget(eps=0.0, r=-1e-3)
    for ratio in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            ErrorBudget(eps=0.0, r=ratio)
    with pytest.warns(UserWarning):
        ErrorBudget(eps=0.0, r=0.06)


def test_budget_warning_names_the_caller():
    # the large-ratio warning points at the line that built the budget, not
    # at the dataclass-generated __init__ ("<string>")
    with pytest.warns(UserWarning) as record:
        ErrorBudget(eps=0.0, r=0.06)
    assert record[0].filename == __file__


def _evaluation_forms():
    lat = cell_lattice()
    return (list(teleported_cnot_classes().values()) + [matched_pair_class(),
            lat.linear] + [src.flip for src in lat.flipping_sources])


def test_evaluate_float_path_is_the_fraction_product():
    # on two floats evaluate multiplies by the float of each coefficient,
    # which is what Fraction * float computes: equal bit for bit
    rng = random.Random(11)
    values = [0.0, 1e-300, 5e-324, 1e-3, 3.9e-3, 1.95e-3, 1 / 15, 0.05]
    values += [rng.uniform(0.0, 1 / 15) for _ in range(40)]
    values += [10.0 ** rng.uniform(-12, 0) for _ in range(40)]
    pairs = list(zip(values, values[::-1]))
    pairs += [(np.float64(eps), np.float64(r)) for eps, r in pairs[:10]]
    for form in _evaluation_forms():
        for eps, r in pairs:
            want = form.eps * eps + form.r * r
            got = form.evaluate(eps, r)
            assert type(got) is type(want), (form, eps, r)
            assert float(got).hex() == float(want).hex(), (form, eps, r)


def test_evaluate_exact_inputs_keep_the_exact_path():
    mixed = [(F(29, 10000), 1e-4), (1e-4, F(1, 1000)), (3e-4, 0), (0, 2e-4)]
    exact = [(0, 0), (1, 2), (F(29, 10000), F(1, 1000)), (F(1, 3), 0)]
    for form in _evaluation_forms():
        for eps, r in mixed + exact:
            want = form.eps * eps + form.r * r
            got = form.evaluate(eps, r)
            assert type(got) is type(want) and got == want, (form, eps, r)
        for eps, r in exact:
            assert type(form.evaluate(eps, r)) is F


# ---------------------------------------------------------------------------
# locality: only the cell's own readouts flip the check (criterion 08
# checks that no fault two hops out does)

def test_single_error_locality():
    # exactly the six cell readouts carry error weight; the 24 collar
    # readouts are in the census with zero flip
    readouts = [s for s in cell_lattice().sources if s.kind == "readout"]
    assert len(readouts) == 6 + 24
    assert sum(1 for s in readouts if not s.flip.is_zero()) == 6


# ---------------------------------------------------------------------------
# Monte Carlo

def test_mc_zero_error_is_exactly_one():
    mc = mc_stabilizer_expectation(ErrorBudget(eps=0.0, r=0.0), 5000, seed=3)
    assert mc["estimate"] == 1.0


def test_mc_matches_first_order_eps():
    budget = ErrorBudget(eps=1e-4, r=0.0)
    mc = mc_stabilizer_expectation(budget, 10**6, seed=11)
    expected = float(stabilizer_expectation_analytic(budget)["first_order"])
    assert abs(mc["estimate"] - expected) <= 3 * mc["stderr"]


def test_mc_matches_first_order_r():
    budget = ErrorBudget(eps=0.0, r=1e-4)
    mc = mc_stabilizer_expectation(budget, 10**6, seed=12)
    expected = float(stabilizer_expectation_analytic(budget)["first_order"])
    assert abs(mc["estimate"] - expected) <= 3 * mc["stderr"]


def test_mc_deterministic():
    budget = ErrorBudget(eps=3e-4, r=1e-4)
    a = mc_stabilizer_expectation(budget, 200_000, seed=5)
    b = mc_stabilizer_expectation(budget, 200_000, seed=5)
    assert a == b


def _odd_parity_exact(probs):
    # sum over every set of sources that fire of its probability, counting
    # the sets of odd size, in exact arithmetic
    probs = [F(p) for p in probs]
    total = F(0)
    for fired in itertools.product((0, 1), repeat=len(probs)):
        if sum(fired) % 2:
            term = F(1)
            for p, f in zip(probs, fired):
                term *= p if f else 1 - p
            total += term
    return total


def _odd_parity(probs) -> float:
    # the draw's q over one group of sources, each weight's coefficient its
    # probability, so that evaluating it at eps = 1 returns that float
    weights = [LinearError(eps=F(p)) for p in probs]
    return (1 - _parity_product([weights], 1.0, 0.0)) / 2


def test_odd_parity_probability_degenerate():
    # the cases the draw must get exactly: a source that always fires, two
    # that cancel, none at all, and a fair coin among the sources
    assert _odd_parity([1.0]) == 1.0
    for probs in ([1.0, 1.0], [], [0.0, 0.0, 0.0], [1e-300, 5e-324]):
        assert _odd_parity(probs) == 0.0, probs
    for probs in ([0.5], [0.5, 1.0], [1e-300, 0.5, 0.3], [0.95, 0.6, 0.5]):
        assert _odd_parity(probs) == 0.5, probs


def test_parity_product_domain():
    # 0 and 1 are probabilities; anything past them is refused, exactly
    unit = [[LinearError(eps=F(1))]]
    assert _parity_product(unit, 1.0, 0.0) == -1.0
    assert _parity_product(unit, F(0), F(0)) == 1
    for eps, r in ((1.0000000000000002, 0.0), (-5e-324, 0.0),
                   (F(10**20 + 1, 10**20), F(0))):
        with pytest.raises(ValidationError, match=r"outside \[0, 1\]"):
            _parity_product(unit, eps, r)


def test_mc_draws_from_the_analytic_product(monkeypatch):
    # classes mode draws Binomial(samples, q) with q = (1 - product) / 2,
    # the product that stabilizer_expectation_analytic returns, bit for bit
    import ionarch.rng

    seen = []
    monkeypatch.setattr(ionarch.rng, "binomial",
                        lambda words, samples, q: seen.append(q) or 0)
    for eps, r in ((1e-4, 1e-4), (2.5e-3, 2e-4), (2e-2, 1e-3), (1e-3, 0.0),
                   (0.0, 0.0), (0.0666, 0.05), (1 / 15, 0.0)):
        budget = ErrorBudget(eps=eps, r=r)
        mc_stabilizer_expectation(budget, 1000, seed=1)
        product = stabilizer_expectation_analytic(budget)["product"]
        assert seen[-1].hex() == ((1 - product) / 2).hex(), (eps, r)


def test_odd_parity_probability_matches_enumeration():
    rng = random.Random(4)
    cases = [(0.3, 0.6, 0.95), (0.95,), (0.5, 0.05, 0.2, 0.7),
             (1e-300, 1e-6, 0.5, 1.0), (1e-6, 2e-6, 3e-4)]
    cases += [[rng.random() for _ in range(rng.randrange(1, 9))]
              for _ in range(30)]
    for probs in cases:
        exact = _odd_parity_exact(probs)
        assert _odd_parity(probs) == pytest.approx(
            float(exact), rel=1e-12, abs=1e-15), probs


def test_mc_samples_bound():
    # the count is drawn once, so the largest count costs what a small one
    # does; past 2**62 it is refused before any draw
    budget = ErrorBudget(eps=1e-4, r=1e-4)
    mc = mc_stabilizer_expectation(budget, MAX_MC_SAMPLES, seed=1)
    assert mc["samples"] == 2**62 and 0 < mc["flipped"] < 2**62
    for samples in (0, -1, MAX_MC_SAMPLES + 1, 2**63, 10**30):
        with pytest.raises(ValidationError, match="samples"):
            mc_stabilizer_expectation(budget, samples, seed=1)
    # a count that is not an integer once ran, and reported 2.5 samples
    with pytest.raises(TypeError, match="integer"):
        mc_stabilizer_expectation(budget, 2.5, seed=1)
    with pytest.raises(ValidationError, match="unknown MC mode 'bogus'"):
        mc_stabilizer_expectation(budget, 10, seed=1, mode="bogus")


def test_mc_gadget_mode_cross_validation():
    # explicit per-fault sampling has the same first-order behavior; allow a
    # quadratic gap on top of the statistical tolerance
    budget = ErrorBudget(eps=1e-3, r=0.0)
    mc = mc_stabilizer_expectation(budget, 2 * 10**5, seed=21, mode="gadget")
    product = float(stabilizer_expectation_analytic(budget)["product"])
    slack = 3 * mc["stderr"] + 50 * (budget.eps + budget.r) ** 2
    assert abs(mc["estimate"] - product) <= slack


def test_mc_gadget_mode_pinned():
    # the per-fault sources and the draw (BTRD, at a mean of about 1373),
    # pinned by one run
    mc = mc_stabilizer_expectation(ErrorBudget(eps=1e-4, r=1e-4), 100000, 5,
                                   mode="gadget")
    assert mc["flipped"] == 1431
    assert mc["estimate"] == 0.97138


def test_mc_vs_product_grid():
    # |mc - first_order| <= 3 stderr + C (eps + r)^2 over the standard grid;
    # the empirical C covers the exact-product curvature, about half the
    # squared first-order slope (~(102.4 eps + 176 r)^2 / 2)
    C = 2e4
    for eps in (0.0, 1e-4, 3e-4, 1e-3):
        for r in (0.0, 1e-4, 3e-4, 1e-3):
            budget = ErrorBudget(eps=eps, r=r)
            mc = mc_stabilizer_expectation(budget, 10**5, seed=9)
            fo = float(stabilizer_expectation_analytic(budget)["first_order"])
            slack = 3 * mc["stderr"] + C * (eps + r) ** 2
            assert abs(mc["estimate"] - fo) <= slack, (eps, r)
            # and the exact product is matched within pure statistics
            product = float(stabilizer_expectation_analytic(budget)["product"])
            assert abs(mc["estimate"] - product) <= 4 * mc["stderr"], (eps, r)


def test_mc_linear_coefficient_recovery():
    # regression over five small error values recovers the slope of the
    # exact product the MC estimates (-100.90 for eps, -171.60 for r; the
    # census's first-order -512/5 and -176 sit 1-2.5% away, and criterion 07
    # checks those at more samples)
    def slope(points):
        xs = np.array([x for x, _ in points])
        ys = np.array([y for _, y in points])
        return np.polyfit(xs, ys, 1)[0]

    def product(budget):
        return float(stabilizer_expectation_analytic(budget)["product"])

    points = (0.5e-4, 1e-4, 1.5e-4, 2e-4, 2.5e-4)
    for name, seed0 in (("eps", 100), ("r", 200)):
        mc_points, exact_points = [], []
        for k, x in enumerate(points):
            budget = ErrorBudget(**{"eps": 0.0, "r": 0.0, name: x})
            mc = mc_stabilizer_expectation(budget, 4 * 10**5, seed=seed0 + k)
            mc_points.append((x, mc["estimate"]))
            exact_points.append((x, product(budget)))
        assert slope(mc_points) == pytest.approx(slope(exact_points),
                                                 rel=0.05), name
