"""Error bookkeeping for measurement-based fault tolerance on a 3D cluster.

The resource state lives on the faces and edges of a cubic lattice, one
4-qubit register per lattice qubit.  The creation schedule has five time
steps: a register's cluster qubit is born at step 1 as half of its first
("matched") Bell pair, its three ancilla ions each live exactly three steps
(Bell-half initialization, CNOT, measurement), and every remaining bond is a
teleported CNOT (control on the face register, target on the edge register)
consuming one Bell pair.  The parity check of one lattice cell is the product
of X on its six face qubits; only residual Z components matter for it.

The analytic expectation and the Monte Carlo both consume the same *error
census*, derived here rather than hard-coded.  Each source kind is one
gadget (:data:`_GADGETS`): its CNOT layers and its fault locations, each a
(time, qubits, weight) triple.  One generator, :func:`_faults`, lists every
single fault of a gadget, and one rule moves every fault: :func:`_push`, the
CNOT update of a Pauli frame's Z half, held as an int bitset.

* Each source's residual error classes (Z on the face qubit, on the edge
  qubit, or both) come from pushing every single fault of its gadget to the
  end, with exact rational weights.  The three gadgets are the four-qubit
  teleported CNOT, whose readout-conditioned corrections act as CNOTs by
  deferred measurement; the birth Bell pair with one memory round on each
  half; and the cell readout, one gate fault on the face qubit before its
  X readout.
* Which classes flip the cell check follows by linearity: a Z on the link's
  face and one on its edge are pushed through the CNOTs of the edge's later
  couplings and read as a parity over the cell's faces; a class flips the
  check iff the bits of its Z components XOR to one.

The census is built once per lattice (:func:`cell_lattice`): the analytic
expectation reads its cached linear sum and the flips of the sources that
can flip the check.  The Monte Carlo treats those sources as independent
Bernoulli faults.  A sample's check flips when an odd number of them fire,
with probability q = (1 - P) / 2, where P = prod(1 - 2 p_i) is the product
``threshold`` prints, from :func:`_parity_product`; so the flipped count is
Binomial(samples, q), drawn once without numpy (:func:`ionarch.rng.binomial`).
That checks the sampler and the stream, not the product or the census's
propagation, which it takes as given.

Error model: a fault location fires each of its non-identity Paulis with
one of three weights, each written once: ``_PAIR``, each of the 15
two-qubit Paulis at eps/15 after a two-qubit gate or Bell pair; ``_GATE``,
X, Y or Z at eps/3 on a qubit before its readout; and ``_MEMORY``, X, Y or
Z at r/3 per qubit and time step, where r is the step duration over the
decoherence time.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from fractions import Fraction
from functools import cache, cached_property

from ._value import Value
from .errors import ValidationError

Coord = tuple[int, int, int]

# ---------------------------------------------------------------------------
# exact linear error forms

class LinearError(Value):
    """First-order error probability a*eps + b*r with exact coefficients."""

    eps: Fraction = Fraction(0)
    r: Fraction = Fraction(0)

    def __add__(self, other: "LinearError") -> "LinearError":
        return LinearError(self.eps + other.eps, self.r + other.r)

    @cached_property
    def float_coefficients(self) -> tuple[float, float]:
        """The coefficients a and b as floats, converted once per form."""
        return float(self.eps), float(self.r)

    def evaluate(self, eps, r):
        """a*eps + b*r: exact for int and Fraction inputs.

        On two floats it computes what ``Fraction * float`` does, the float
        of the coefficient times the input, from coefficients converted once
        per form; every other input takes the Fraction operators.
        """
        if type(eps) is float and type(r) is float:
            eps_coef, r_coef = self.float_coefficients
            return eps_coef * eps + r_coef * r
        return self.eps * eps + self.r * r

    def is_zero(self) -> bool:
        return self.eps == 0 and self.r == 0


#: Upper end of the gate error's depolarizing-model range [0, 1/15], which
#: ``ErrorBudget`` and ``hypercell.HypercellBudget`` both check.
MAX_GATE_ERROR = 1 / 15

#: Memory error ratio above which an ``ErrorBudget`` warns that first-order
#: bookkeeping is unreliable.
RATIO_WARNING_LEVEL = 0.05


class ErrorBudget(Value):
    """Gate error strength and per-step memory error ratio."""

    eps: float
    r: float

    def __post_init__(self):
        if not 0 <= float(self.eps) <= MAX_GATE_ERROR:
            raise ValidationError(
                f"gate error {self.eps} outside the depolarizing-model range [0, 1/15]")
        if not 0 <= float(self.r) < math.inf:
            raise ValidationError(
                f"memory error ratio {self.r} must be finite and non-negative")
        if float(self.r) > RATIO_WARNING_LEVEL:
            # level 3 skips this method and the ``__init__`` that ``Value``
            # gives the class, so the warning names the line that built the
            # budget
            warnings.warn(
                f"memory error ratio {self.r} is large; first-order "
                "bookkeeping is unreliable here", stacklevel=3)


# ---------------------------------------------------------------------------
# Pauli frames and the census gadgets: exhaustive single-fault enumeration

#: The error model's three location weights (see the module docstring).
_PAIR = LinearError(eps=Fraction(1, 15))
_GATE = LinearError(eps=Fraction(1, 3))
_MEMORY = LinearError(r=Fraction(1, 3))


def _push(z: int, cnots) -> int:
    """Push the Z half of a CNOT-only Pauli frame through ``cnots``,
    (control, target) bit pairs in time order: bit i of ``z`` is a Z on
    qubit i, and a CNOT copies Z from target to control (Aaronson and
    Gottesman, PRA 70, 052328).  No CNOT feeds X into Z, so X is not kept."""
    for c, t in cnots:
        z ^= (z >> t & 1) << c
    return z


# Gadget qubits: C = face cluster qubit (control), a = face-side ancilla,
# b = edge-side ancilla, T = edge cluster qubit (target).
_C, _A, _B, _T = range(4)

#: The link gadget's CNOTs after each fault time: 0 follows the Bell pair
#: (a, b), 1 the memory window before CNOT(C, a) and CNOT(b, T), 2 those
#: CNOTs, 3 the readouts.  The Z readout of a conditions an X on T and the X
#: readout of b a Z on C: by deferred measurement, CNOT(a, T) and CNOT(C, b).
_GADGET_LAYERS = ((), ((_C, _A), (_B, _T)), (), ((_A, _T), (_C, _B)))

#: Each census source kind as one gadget: its CNOT layers and its fault
#: locations (time, qubits, weight), pair faults first, then memory faults
#: by time and qubit, then readout faults.  A birth pair's halves are the
#: face C and the edge T; a cell readout reads the face C.
_GADGETS = {
    "cnot_link": (_GADGET_LAYERS, (
        (0, (_A, _B), _PAIR), (2, (_C, _A), _PAIR), (2, (_B, _T), _PAIR),
        *((time, (qubit,), _MEMORY) for time in (1, 2)
          for qubit in (_C, _A, _B, _T)),
        (3, (_A,), _GATE), (3, (_B,), _GATE))),
    "birth_pair": ((), ((0, (_C, _T), _PAIR), (0, (_C,), _MEMORY),
                        (0, (_T,), _MEMORY))),
    "readout": ((), ((0, (_C,), _GATE),)),
}


def _faults(kind: str):
    """Every single fault of a ``kind`` gadget with its first-order weight:
    yields ``(faults, weight)``, the (time, qubit, Pauli) list to inject
    through the gadget's layers and its probability."""
    for time, qubits, weight in _GADGETS[kind][1]:
        # every Pauli on the location's qubits but the leading identity
        for paulis in list(itertools.product("IXYZ", repeat=len(qubits)))[1:]:
            yield [(time, qubit, pauli)
                   for qubit, pauli in zip(qubits, paulis)], weight


def _outcome(faults, layers) -> tuple[int, int]:
    """(z_C, z_T) at the end, each (time, qubit, Pauli) fault pushed through
    the CNOTs of ``layers[time:]``; frames add, so each is pushed alone."""
    z = 0
    for time, qubit, pauli in faults:
        z ^= _push((pauli in "YZ") << qubit, itertools.chain(*layers[time:]))
    return z >> _C & 1, z >> _T & 1


@cache
def _residuals(kind: str) -> tuple[tuple[tuple[int, int], LinearError], ...]:
    """The faults of a ``kind`` gadget that leave a residual Z, as (class,
    weight) pairs in enumeration order; the class is (z on face qubit, z on
    edge qubit).  Each kind's enumeration runs once per process."""
    layers = _GADGETS[kind][0]
    return tuple((key, weight) for fault, weight in _faults(kind)
                 if (key := _outcome(fault, layers)) != (0, 0))


def teleported_cnot_classes() -> dict[tuple[int, int], LinearError]:
    """Residual Z-error classes of one link, first order, exact weights.

    Keys are (z on face qubit, z on edge qubit); the identity class is
    omitted.  Each class sums the weights of the gadget faults that leave it
    behind.
    """
    classes: dict[tuple[int, int], LinearError] = {}
    for key, weight in _residuals("cnot_link"):
        classes[key] = classes.get(key, LinearError()) + weight
    return classes


def matched_pair_class() -> LinearError:
    """Residual error of a matched (birth) Bell pair, as an equivalent single Z.

    ZZ stabilizes the Bell pair, so its (1, 1) class leaves no error and a Z
    on either half is the same error.
    """
    return sum((weight for key, weight in _residuals("birth_pair")
                if key != (1, 1)), LinearError())


# ---------------------------------------------------------------------------
# lattice geometry and schedule

def _odd_axes(c: Coord) -> list[int]:
    return [i for i in range(3) if c[i] % 2 == 1]


def _shift(c: Coord, axis: int, delta: int) -> Coord:
    out = list(c)
    out[axis] += delta
    return tuple(out)


def coupling_order(edge: Coord) -> list[Coord]:
    """The four face registers coupling to ``edge``, in schedule order.

    For an edge along axis a with transverse axes b = a+1, c = a+2 (cyclic),
    the order is +b (the matched birth partner), +c, -c, -b.  This pattern is
    translation invariant, gives every register one link Bell pair per step,
    with the birth pair added at step 1, and never touches a qubit twice in
    one step.
    """
    a = _odd_axes(edge)[0]
    b, c = (a + 1) % 3, (a + 2) % 3
    return [_shift(edge, b, 1), _shift(edge, c, 1),
            _shift(edge, c, -1), _shift(edge, b, -1)]


def edges_of_face(face: Coord) -> list[Coord]:
    even_axis = [i for i in range(3) if face[i] % 2 == 0][0]
    out = []
    for axis in range(3):
        if axis == even_axis:
            continue
        out.append(_shift(face, axis, 1))
        out.append(_shift(face, axis, -1))
    return out


class Link(Value):
    face: Coord
    edge: Coord
    position: int        # 1..4 in the edge's coupling order; 1 = birth pair
    bell_step: int       # 1..3
    cnot_step: int | None    # None for the birth pair
    measure_step: int | None

    @staticmethod
    def at(face: Coord, edge: Coord, position: int) -> "Link":
        if position == 1:
            return Link(face, edge, 1, bell_step=1, cnot_step=None,
                        measure_step=None)
        return Link(face, edge, position, bell_step=position - 1,
                    cnot_step=position, measure_step=position + 1)


class ErrorSource(Value):
    kind: str                    # "birth_pair" | "cnot_link" | "readout"
    flip: LinearError            # probability of flipping the cell check
    # the weights of the link-gadget faults that flip the check, which
    # ``flip`` sums; empty for the other kinds
    fault_weights: tuple[LinearError, ...] = ()


class CreationSchedule(Value):
    """Five ordered steps of Bell creations, CNOTs and measurements."""

    bell_pairs: dict        # step -> list[(face, edge)]
    cnots: dict             # step -> list[(face, edge)]
    measurements: dict      # step -> list[qubit description]

    def validate(self):
        for step, ops in self.cnots.items():
            if not 2 <= step <= 4:
                raise ValidationError(f"CNOT scheduled outside steps 2-4: {step}")
        for step, pairs in self.bell_pairs.items():
            if not 1 <= step <= 3:
                raise ValidationError(f"Bell pair outside steps 1-3: {step}")
        # no register qubit is acted on by two gates in one step
        for step in range(1, 6):
            touched = set()
            for face, edge in self.cnots.get(step, []):
                for q in ((face, "cluster"), (edge, "cluster")):
                    if q in touched:
                        raise ValidationError(
                            f"qubit {q} double-acted at step {step}")
                    touched.add(q)


@cache
def _gadget_source(kind: str, face_bit: int, edge_bit: int) -> ErrorSource:
    """A ``kind`` gadget whose face Z flips the check iff ``face_bit`` and
    edge Z iff ``edge_bit``: class (z_c, z_t) flips it iff z_c face_bit XOR
    z_t edge_bit.  A CNOT link keeps its flipping gadget faults for the
    gadget-mode Monte Carlo; a birth pair or a readout stays one source
    there."""
    weights = tuple(weight for (z_c, z_t), weight in _residuals(kind)
                    if z_c & face_bit ^ z_t & edge_bit)
    return ErrorSource(kind=kind, flip=sum(weights, LinearError()),
                       fault_weights=weights if kind == "cnot_link" else ())


class CellLattice:
    """One lattice cell, its one-hop collar, and a two-hop shell of links.

    The cell check is supported on the six faces of the cell at the origin.
    ``sources`` lists every error source whose residual can reach those
    faces, with its exact first-order flip probability; ``shell_links`` and
    ``shell_sources`` list the two-hop links kept for locality checks (none
    of them flip), built on first read.  The census is built once:
    ``flipping_sources`` keeps the sources with a non-zero flip, in census
    order, ``flip_weights`` their weights grouped by kind for each Monte
    Carlo mode, and ``linear`` is the sum of their flips: the first-order
    expectation is 1 - 2 * ``linear``, and the ratio of its r and eps
    coefficients is the threshold's ``threshold_r_weight``.
    """

    def __init__(self):
        self.cell_faces = self._cell_faces()
        self.cell_edges = self._cell_edges()
        self._in_cell = set(self.cell_faces)
        self.links = [Link.at(face, edge, pos)
                      for edge in self.cell_edges
                      for pos, face in enumerate(coupling_order(edge), 1)]
        self.collar_faces = sorted(
            {lk.face for lk in self.links} - self._in_cell)
        self.sources = self._census()
        self.flipping_sources = [src for src in self.sources
                                 if not src.flip.is_zero()]
        by_kind = [[src for src in self.flipping_sources if src.kind == kind]
                   for kind in ("birth_pair", "cnot_link", "readout")]
        self.flip_weights = {
            "classes": [[src.flip for src in group] for group in by_kind],
            "gadget": [[weight for src in group
                        for weight in (src.fault_weights or (src.flip,))]
                       for group in by_kind]}
        self.linear = sum((src.flip for src in self.flipping_sources),
                          LinearError())

    @cached_property
    def shell_links(self) -> list[Link]:
        """The links of the collar faces' other edges; only locality checks
        read them."""
        cell_edge_set = set(self.cell_edges)
        out = []
        for face in self.collar_faces:
            for edge in edges_of_face(face):
                if edge in cell_edge_set:
                    continue
                for pos, f in enumerate(coupling_order(edge), 1):
                    out.append(Link.at(f, edge, pos))
        return out

    @cached_property
    def shell_sources(self) -> list[ErrorSource]:
        """The shell links as error sources; only locality checks read them."""
        return [self._source(lk) for lk in self.shell_links]

    @cached_property
    def threshold_r_weight(self) -> Fraction:
        """The weight w of r in the threshold condition eps + w r < 2.9e-3:
        the census's first-order r coefficient over its eps coefficient,
        176 / (512/5) = 55/32."""
        return self.linear.r / self.linear.eps

    # -- geometry ---------------------------------------------------------
    @staticmethod
    def _cell_faces() -> list[Coord]:
        faces = []
        for normal in range(3):
            for offset in (0, 2):
                f = [1, 1, 1]
                f[normal] = offset
                faces.append(tuple(f))
        return sorted(faces)

    @staticmethod
    def _cell_edges() -> list[Coord]:
        edges = []
        for axis in range(3):
            for u in (0, 2):
                for v in (0, 2):
                    e = [0, 0, 0]
                    e[axis] = 1
                    e[(axis + 1) % 3] = u
                    e[(axis + 2) % 3] = v
                    edges.append(tuple(e))
        return sorted(edges)

    # -- propagation ------------------------------------------------------
    def _link_bits(self, link: Link) -> tuple[int, int]:
        """Whether a residual Z on the link's face, and one on its edge,
        flips the check.

        Local bits: 0 is the edge, 1-4 its faces in coupling order.  Each Z
        is pushed through the CNOTs (face -> edge) of the edge's later
        couplings and read as its parity over the in-cell faces.
        """
        order = coupling_order(link.edge)
        in_cell = sum(1 << bit for bit, face in enumerate(order, 1)
                      if face in self._in_cell)
        later = [(bit, 0) for bit in range(link.position + 1, 5)]
        return tuple((_push(z, later) & in_cell).bit_count() & 1
                     for z in (1 << link.position, 1))

    def _source(self, link: Link) -> ErrorSource:
        kind = "birth_pair" if link.position == 1 else "cnot_link"
        return _gadget_source(kind, *self._link_bits(link))

    def _census(self) -> list[ErrorSource]:
        sources = [self._source(link) for link in self.links]
        sources += [_gadget_source("readout", 1, 0)] * len(self.cell_faces)
        sources += [_gadget_source("readout", 0, 0)] * len(self.collar_faces)
        return sources

    # -- schedule export ---------------------------------------------------
    def schedule(self) -> CreationSchedule:
        bell, cnots, meas = {}, {}, {}
        for link in self.links:
            bell.setdefault(link.bell_step, []).append((link.face, link.edge))
            if link.cnot_step is not None:
                cnots.setdefault(link.cnot_step, []).append((link.face, link.edge))
                meas.setdefault(link.measure_step, []).append(
                    (link.face, link.edge, "ancillas"))
        for q in self.cell_faces + self.cell_edges:
            meas.setdefault(5, []).append((q, "cluster"))
        sched = CreationSchedule(bell_pairs=bell, cnots=cnots, measurements=meas)
        sched.validate()
        return sched


@cache
def cell_lattice() -> CellLattice:
    """The one ``CellLattice`` of the process, built on the first call."""
    return CellLattice()


# ---------------------------------------------------------------------------
# analytic expectation and threshold

#: Published fault-tolerance threshold of the cell-check criterion.
THRESHOLD_EPS = Fraction(29, 10000)


def threshold_terms(eps_values, r_values) -> list[tuple]:
    """(margin, first-order expectation) of the cell check at every (eps, r)
    of ``eps_values`` x ``r_values``, eps-major, on values that
    ``ErrorBudget`` has checked.

    The margin is the signed distance below the threshold condition
    eps + w r < 2.9e-3 (Raussendorf, Harrington and Goyal, NJP 9, 199
    (2007)), w = ``CellLattice.threshold_r_weight``; the first-order
    expectation is 1 - 2 (a eps + b r), with a eps + b r the census's
    ``linear``.  Exact on Fractions.  Each Fraction constant meets each eps
    and each r once, and converts to a float where it meets one.
    """
    lattice = cell_lattice()
    r_weight, linear = lattice.threshold_r_weight, lattice.linear
    columns = [(r_weight * r, linear.r * r) for r in r_values]
    terms = []
    for eps in eps_values:
        slack, eps_term = THRESHOLD_EPS - eps, linear.eps * eps
        terms += [(slack - r_margin, 1 - 2 * (eps_term + r_term))
                  for r_margin, r_term in columns]
    return terms


def first_order_expectation(budget: ErrorBudget):
    """The cell check's expectation truncated to first order, from
    :func:`threshold_terms`."""
    return threshold_terms((budget.eps,), (budget.r,))[0][1]


def _parity_product(groups, eps, r):
    """prod(1 - 2 p), p = weight.evaluate(eps, r), over the weights of
    ``groups``, multiplied group by group in order; exact on Fractions.
    The cell check's one domain check: a p outside [0, 1] raises
    ``ValidationError``."""
    product = 1
    for group in groups:
        factor = 1
        for weight in group:
            p = weight.evaluate(eps, r)
            if not 0 <= p <= 1:
                raise ValidationError(
                    "flip probabilities outside [0, 1]; budget too large")
            factor *= 1 - 2 * p
        product *= factor
    return product


def stabilizer_expectation_analytic(budget: ErrorBudget) -> dict:
    """Expectation of the six-face cell check under the error census.

    ``product`` is :func:`_parity_product` over the flips grouped by kind
    in birth-pair, CNOT-link, readout order; ``first_order`` is the
    first-order expectation of :func:`threshold_terms`.  Sources whose flip
    is zero contribute a factor of exactly one and are skipped.  Returns
    those two keys, which ``threshold`` and ``mc-cluster`` print.
    """
    product = _parity_product(cell_lattice().flip_weights["classes"],
                              budget.eps, budget.r)
    return {"first_order": first_order_expectation(budget), "product": product}


def threshold_margin(budget: ErrorBudget):
    """Signed distance below the threshold condition eps + (55/32) r < 2.9e-3,
    the margin of :func:`threshold_terms`; positive means below threshold."""
    return threshold_terms((budget.eps,), (budget.r,))[0][0]


# ---------------------------------------------------------------------------
# Monte Carlo
#
# The sampler of :mod:`ionarch.rng` is imported inside the function, so the
# analytic layer above loads without it; neither loads numpy.

#: Most samples of one Monte Carlo call, the count at which the tests check
#: the mean of :func:`ionarch.rng.binomial` (which takes any n below 2**63).
MAX_MC_SAMPLES = 2**62


def mc_stabilizer_expectation(budget: ErrorBudget, samples: int, seed: int,
                              mode: str = "classes") -> dict:
    """Monte Carlo estimate of the cell-check expectation.

    Each source with a non-zero flip probability fires independently in
    every sample (in ``"gadget"`` mode each flipping fault of every link
    gadget is its own source), and a sample's check flips when an odd
    number fire.  The samples are independent, so the flipped count is
    Binomial(samples, q), q = (1 - product) / 2 with the mode's
    :func:`_parity_product`: the independent-source model's exact law,
    drawn once by :func:`ionarch.rng.binomial` from stream 0 of ``seed``
    at a cost that does not grow with ``samples``.  In ``"classes"`` mode
    the product is the one ``threshold`` prints, so the draw checks the
    sampler and the stream, not the product or the census's propagation.
    """
    if not 1 <= samples <= MAX_MC_SAMPLES:
        raise ValidationError(
            f"samples must lie in [1, 2**62], got {samples}")
    samples = operator.index(samples)
    weights = cell_lattice().flip_weights.get(mode)
    if weights is None:
        raise ValidationError(f"unknown MC mode {mode!r}")
    from .rng import binomial, philox_words

    q = float((1 - _parity_product(weights, budget.eps, budget.r)) / 2)
    flipped = binomial(philox_words(seed, 0), samples, q)
    estimate = 1.0 - 2.0 * flipped / samples
    if samples > 1:
        var = (1.0 - estimate**2) * samples / (samples - 1)
        stderr = math.sqrt(max(var, 0.0) / samples)
    else:
        stderr = float("nan")
    return {"estimate": estimate, "stderr": stderr, "samples": samples,
            "flipped": flipped}
