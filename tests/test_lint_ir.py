"""IR dataflow verifier: mutation self-tests + zero-false-positive sweep.

Each mutation doctors a compiler-produced ``FlatSchedule`` program into a
known-bad one and asserts the matching rule fires; the sweep asserts the
verifier reports no errors (and no IR-layer warnings) on any schedule the
compiler actually produces -- case-study models, the gated engine CCD and
the differential-fuzz generators.
"""

import random

import pytest

from repro.analysis.lint import lint_flat_schedule, lint_model
from repro.casestudy.door_lock import (build_comfort_closing,
                                       build_door_lock_control,
                                       build_door_lock_faa)
from repro.casestudy.engine_control import (build_crank_sequencer_std,
                                            build_engine_ccd,
                                            build_engine_modes_mtd)
from repro.casestudy.momentum import (build_closed_loop,
                                      build_momentum_controller)
from repro.casestudy.reengineered import build_reengineered_fda
from repro.core.clocks import EventClock, every
from repro.core.components import ExpressionComponent
from repro.core.validation import Severity
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.notations.mtd import ModeTransitionDiagram
from repro.simulation.engine import ClockGatedComponent, build_gated_ccd
from repro.simulation.schedule_ir import (OP_COPY, OP_CORRECT, OP_EXPR,
                                          OP_GATE, OP_RUN, OP_SELECT,
                                          FlatSchedule, compile_flat)


def _doctor(schedule, program, n_slots=None):
    """Rebuild a schedule with a mutated program (the constructor re-derives
    the step closure, so the mutant is a structurally valid FlatSchedule)."""
    return FlatSchedule(
        schedule.component, tuple(program),
        schedule.n_slots if n_slots is None else n_slots,
        schedule.input_spec, schedule.output_spec, schedule.leaves,
        schedule.buffer_initials, schedule.slot_names)


@pytest.fixture
def momentum_schedule():
    return compile_flat(build_momentum_controller())


def _feedback_model(clock=None):
    """A delayed feedback loop: the UnitDelay (behind a gate on *clock*)
    runs before its producer, so it is a correction region."""
    dfd = DataFlowDiagram("FB")
    dfd.add_input("x")
    dfd.add_output("out")
    adder = ExpressionComponent("A", {"out": "a + b"})
    adder.add_input("a")
    adder.add_input("b")
    adder.add_output("out")
    delay = UnitDelay("Z", initial=0)
    dfd.add_subcomponent(adder)
    dfd.add_subcomponent(delay if clock is None
                         else ClockGatedComponent(delay, clock, name="Z"))
    dfd.connect("x", "A.a")
    dfd.connect("Z.out", "A.b")
    dfd.connect("A.out", "Z.in1")
    dfd.connect("A.out", "out")
    return dfd


@pytest.fixture
def feedback_schedule():
    """The feedback loop's program holds a real OP_CORRECT."""
    schedule = compile_flat(_feedback_model())
    barrier, = [op for op in schedule.program if op[0] == OP_CORRECT]
    (start, end, _leaves, _buffers, _seen), = barrier[1]
    assert [op[0] for op in schedule.program[start:end]] == [OP_COPY, OP_RUN]
    return schedule


def _barrier(program):
    """The index and the (mutable) op of the program's one barrier."""
    return next((index, op) for index, op in enumerate(program)
                if op[0] == OP_CORRECT)


def _gated_model(clock):
    dfd = DataFlowDiagram("GatedTop")
    dfd.add_input("x")
    dfd.add_input("y")
    dfd.add_output("out")
    inner = DataFlowDiagram("Core")
    inner.add_input("a")
    inner.add_input("b")
    inner.add_output("out")
    leaf = ExpressionComponent("Leaf", {"out": "a + b"})
    leaf.add_input("a")
    leaf.add_input("b")
    leaf.add_output("out")
    inner.add_subcomponent(leaf)
    inner.connect("a", "Leaf.a")
    inner.connect("b", "Leaf.b")
    inner.connect("Leaf.out", "out")
    gated = ClockGatedComponent(inner, clock, name="Stage")
    dfd.add_subcomponent(gated)
    dfd.connect("x", "Stage.a")
    dfd.connect("y", "Stage.b")
    dfd.connect("Stage.out", "out")
    return dfd


def _gated_mtd_model():
    """``Pre`` feeds an MTD behind a clock gate: a gate region holding the
    mode controller's ``run`` op and two ``select`` regions."""
    mtd = ModeTransitionDiagram("Modes")
    mtd.add_input("x")
    mtd.add_output("out")
    mtd.add_output("mode")
    for name, source in (("Low", "x * 1"), ("High", "x * 10")):
        block = ExpressionComponent(f"{name}B", {"out": source})
        block.declare_interface_from_expressions()
        mtd.add_mode(name, block)
    mtd.add_transition("Low", "High", "x > 2")
    mtd.add_transition("High", "Low", "x < 1")
    dfd = DataFlowDiagram("Sys")
    dfd.add_input("x")
    dfd.add_output("out")
    pre = ExpressionComponent("Pre", {"out": "in1 + 0"})
    pre.declare_interface_from_expressions()
    dfd.add(pre, ClockGatedComponent(mtd, every(2), name="G"))
    dfd.connect("x", "Pre.in1")
    dfd.connect("Pre.out", "G.x")
    dfd.connect("G.out", "out")
    return dfd


@pytest.fixture
def mtd_schedule():
    schedule = compile_flat(_gated_mtd_model())
    assert [op[0] for op in schedule.program].count(OP_SELECT) == 2
    return schedule


def _selects(program):
    return [index for index, op in enumerate(program) if op[0] == OP_SELECT]


# -- mutation self-tests: every rule detects its seeded defect --------------


def test_mutation_read_before_write(momentum_schedule):
    program = list(momentum_schedule.program)
    mutant = _doctor(momentum_schedule, [program[-1]] + program[:-1])
    report = lint_flat_schedule(mutant)
    findings = report.by_rule("ir-read-before-write")
    assert findings, report.describe()
    assert all(f.severity is Severity.ERROR for f in findings)


def test_mutation_never_written(momentum_schedule):
    fresh = momentum_schedule.n_slots
    out_slot = momentum_schedule.output_spec[0][1]
    program = list(momentum_schedule.program) \
        + [[OP_COPY, ((fresh, out_slot),)]]
    report = lint_flat_schedule(_doctor(momentum_schedule, program,
                                        n_slots=fresh + 1))
    assert report.by_rule("ir-never-written"), report.describe()


def test_mutation_write_write(momentum_schedule):
    in_a = momentum_schedule.input_spec[0][1]
    in_b = momentum_schedule.input_spec[1][1]
    fresh = momentum_schedule.n_slots
    program = list(momentum_schedule.program) \
        + [[OP_COPY, ((in_a, fresh),)], [OP_COPY, ((in_b, fresh),)]]
    report = lint_flat_schedule(_doctor(momentum_schedule, program,
                                        n_slots=fresh + 1))
    conflict = report.by_rule("ir-write-write")
    assert conflict, report.describe()
    assert conflict[0].location["slot"] == fresh


def test_mutation_dead_store(momentum_schedule):
    in_a = momentum_schedule.input_spec[0][1]
    fresh = momentum_schedule.n_slots
    program = list(momentum_schedule.program) \
        + [[OP_COPY, ((in_a, fresh),)]]
    report = lint_flat_schedule(_doctor(momentum_schedule, program,
                                        n_slots=fresh + 1))
    dead = report.by_rule("ir-dead-store")
    assert any(f.location["slot"] == fresh for f in dead), report.describe()


def test_redundant_forwarding_is_not_a_conflict(momentum_schedule):
    # same value copied to the same slot twice (what copy fusion routinely
    # emits) must NOT count as a write-write conflict
    in_a = momentum_schedule.input_spec[0][1]
    fresh = momentum_schedule.n_slots
    program = list(momentum_schedule.program) \
        + [[OP_COPY, ((in_a, fresh), (in_a, fresh))]]
    report = lint_flat_schedule(_doctor(momentum_schedule, program,
                                        n_slots=fresh + 1))
    assert not report.by_rule("ir-write-write"), report.describe()


def test_mutation_gate_structure():
    schedule = compile_flat(_gated_model(every(2)))
    program = [list(op) for op in schedule.program]
    gate_index = next(i for i, op in enumerate(program)
                      if op[0] == OP_GATE)
    program[gate_index][2] = gate_index  # jump target must be > index
    report = lint_flat_schedule(_doctor(schedule, program))
    findings = report.by_rule("ir-gate-structure")
    assert findings and findings[0].severity is Severity.ERROR


def test_mutation_unreachable_region():
    schedule = compile_flat(_gated_model(EventClock((), description="never")))
    report = lint_flat_schedule(schedule)
    assert report.by_rule("ir-unreachable-op"), report.describe()


def test_gated_reads_reported_as_codegen_obligation():
    report = lint_flat_schedule(compile_flat(_gated_model(every(2))))
    skip = report.by_rule("ir-may-skip-read")
    assert skip and skip[0].severity is Severity.INFO
    assert not report.errors()


def test_mutation_crossing_gate_regions():
    """A second gate inside the first whose region ends past the first's:
    both jumps are in range, but the regions cross instead of nesting.
    The verifier flags it, and the generated step (which needs nested
    regions) raises a typed error instead of misbehaving."""
    from repro.core.errors import SimulationError
    schedule = compile_flat(_gated_model(every(2)))
    program = [list(op) for op in schedule.program]
    gate_index = next(i for i, op in enumerate(program)
                      if op[0] == OP_GATE)
    target = program[gate_index][2]
    assert target < len(program)  # room for the inner region to overrun
    program[gate_index][2] = target + 1
    program.insert(gate_index + 2,
                   [OP_GATE, program[gate_index][1], target + 2])
    mutant = _doctor(schedule, program)
    report = lint_flat_schedule(mutant)
    findings = report.by_rule("ir-gate-structure")
    assert [f.location["op"] for f in findings] == [gate_index + 2], \
        report.describe()
    assert findings[0].severity is Severity.ERROR
    assert "gate regions must nest" in findings[0].message
    with pytest.raises(SimulationError, match="do not nest forward"):
        mutant.step({}, mutant.initial_state(), 0)


def test_clean_mtd_schedule_has_no_ir_errors_or_warnings(mtd_schedule):
    report = lint_flat_schedule(mtd_schedule)
    assert not _ir_noise(report), report.describe()


def test_mutation_select_crossing_a_gate_region(mtd_schedule):
    """The last select's region runs past the end of the enclosing gate's:
    both jumps are in range, but the regions cross."""
    from repro.core.errors import SimulationError
    program = [list(op) for op in mtd_schedule.program]
    gate_index = next(i for i, op in enumerate(program) if op[0] == OP_GATE)
    gate_end = program[gate_index][2]
    assert gate_end < len(program)  # room for the select to overrun
    last = _selects(program)[-1]
    program[last][2] = gate_end + 1
    mutant = _doctor(mtd_schedule, program)
    report = lint_flat_schedule(mutant)
    findings = report.by_rule("ir-gate-structure")
    assert [f.location["op"] for f in findings] == [last], report.describe()
    assert findings[0].severity is Severity.ERROR
    assert findings[0].message.startswith(f"select at op {last}")
    with pytest.raises(SimulationError, match="do not nest forward"):
        mutant.step({}, mutant.initial_state(), 0)


@pytest.mark.parametrize("target", ["self", "past_end"])
def test_mutation_select_target_out_of_range(mtd_schedule, target):
    program = [list(op) for op in mtd_schedule.program]
    first = _selects(program)[0]
    program[first][2] = first if target == "self" else len(program) + 1
    report = lint_flat_schedule(_doctor(mtd_schedule, program))
    findings = report.by_rule("ir-gate-structure")
    assert [f.location["op"] for f in findings] == [first], report.describe()
    assert findings[0].severity is Severity.ERROR


def test_mutation_select_reads_a_never_written_index(mtd_schedule):
    fresh = mtd_schedule.n_slots
    program = [list(op) for op in mtd_schedule.program]
    first = _selects(program)[0]
    program[first][1] = (fresh, program[first][1][1])
    report = lint_flat_schedule(_doctor(mtd_schedule, program,
                                        n_slots=fresh + 1))
    never = report.by_rule("ir-never-written")
    assert [(f.location["op"], f.location["slot"]) for f in never] \
        == [(first, fresh)], report.describe()


def test_mutation_correction_missing_dropped_barrier(feedback_schedule):
    program = [op for op in feedback_schedule.program
               if op[0] != OP_CORRECT]
    report = lint_flat_schedule(_doctor(feedback_schedule, program))
    missing = report.by_rule("ir-correction-missing")
    assert missing and missing[0].severity is Severity.ERROR


def test_mutation_correction_unmatched_input_spec(feedback_schedule):
    program = [list(op) for op in feedback_schedule.program]
    _, barrier = _barrier(program)
    start, end, leaves, buffers, seen = barrier[1][0]
    barrier[1] = ((start, end, leaves, buffers,
                   tuple((slot + 1, shadow) for slot, shadow in seen)),)
    report = lint_flat_schedule(_doctor(feedback_schedule, program))
    unmatched = report.by_rule("ir-correction-unmatched")
    assert unmatched, report.describe()
    assert "copy of its inputs" in unmatched[0].message


def test_mutation_correction_missing_untracked_late_producer(
        feedback_schedule):
    """A dropped entry: the barrier stays, the delay's region is not
    re-run any more."""
    program = [list(op) for op in feedback_schedule.program]
    _, barrier = _barrier(program)
    barrier[1] = ()  # pretend the flattener forgot to track the delay
    report = lint_flat_schedule(_doctor(feedback_schedule, program))
    missing = report.by_rule("ir-correction-missing")
    assert missing, report.describe()
    assert "late producers" in missing[0].message
    assert all(f.severity is Severity.ERROR for f in missing)


def test_mutation_correction_region_crosses_a_gate():
    """The entry's region ends inside the gate region it holds."""
    schedule = compile_flat(_feedback_model(every(2)))
    program = [list(op) for op in schedule.program]
    _, barrier = _barrier(program)
    start, end, leaves, buffers, seen = barrier[1][0]
    assert program[start + 1][0] == OP_GATE and program[start + 1][2] == end
    barrier[1] = ((start, end - 1, leaves, buffers, seen),)
    report = lint_flat_schedule(_doctor(schedule, program))
    unmatched = report.by_rule("ir-correction-unmatched")
    assert [f.location["op"] for f in unmatched] == [program.index(barrier)]
    assert f"crosses the gate region at op {start + 1}" \
        in unmatched[0].message
    assert unmatched[0].severity is Severity.ERROR


def test_mutation_correction_barrier_before_its_region_ends(
        feedback_schedule):
    program = [list(op) for op in feedback_schedule.program]
    index, barrier = _barrier(program)
    start, _end, leaves, buffers, seen = barrier[1][0]
    barrier[1] = ((start, index + 1, leaves, buffers, seen),)
    report = lint_flat_schedule(_doctor(feedback_schedule, program))
    unmatched = report.by_rule("ir-correction-unmatched")
    assert unmatched, report.describe()
    assert "the barrier runs before its region" in unmatched[0].message


def test_mutation_correction_dead_barrier(feedback_schedule):
    program = list(feedback_schedule.program)
    run_index = next(i for i, op in enumerate(program) if op[0] == OP_RUN)
    _, barrier = _barrier(program)
    mutant = program[:run_index + 1] + [barrier] + program[run_index + 1:]
    report = lint_flat_schedule(_doctor(feedback_schedule, mutant))
    dead = report.by_rule("ir-correction-dead")
    assert dead and dead[0].severity is Severity.INFO


def test_clean_feedback_schedule_has_no_correction_findings(
        feedback_schedule):
    report = lint_flat_schedule(feedback_schedule)
    assert not report.by_rule("ir-correction-missing")
    assert not report.by_rule("ir-correction-unmatched")
    assert not report.errors(), report.describe()


# -- zero false positives over everything the compiler really emits ---------


def _ir_noise(report):
    return [f for f in report.findings
            if f.rule.startswith("ir-")
            and f.severity in (Severity.ERROR, Severity.WARNING)]


@pytest.mark.parametrize("build", [
    build_momentum_controller, build_closed_loop, build_engine_ccd,
    build_reengineered_fda, build_door_lock_faa,
], ids=lambda b: b.__name__)
def test_no_false_positives_on_casestudy_models(build):
    report = lint_model(build())
    assert not report.errors(), report.describe()
    assert not _ir_noise(report), report.describe()


def test_no_false_positives_on_gated_engine_ccd():
    report = lint_model(build_gated_ccd(build_engine_ccd()))
    assert not report.errors(), report.describe()
    assert not _ir_noise(report), report.describe()


@pytest.mark.parametrize("seed", range(8))
def test_no_false_positives_on_fuzz_models(seed):
    from test_batch_differential import _build_model
    rng = random.Random(9000 + seed)
    model = _build_model(rng, seed)
    report = lint_model(model)
    assert not report.errors(), report.describe()
    assert not _ir_noise(report), report.describe()


@pytest.mark.parametrize("seed", range(12))
def test_no_false_positives_on_one_step_models(seed):
    """Correction regions (composites, gates and MTDs a late producer
    feeds) verify clean: their provisional input reads are exempt."""
    from test_batch_differential import _build_one_step_model
    model = _build_one_step_model(random.Random(9500 + seed), seed)
    report = lint_flat_schedule(compile_flat(model))
    assert not report.errors(), report.describe()
    assert not _ir_noise(report), report.describe()


@pytest.mark.parametrize("seed", range(8))
def test_no_false_positives_on_random_mtds(seed):
    from test_batch_differential import _mtd_context, _random_mtd
    rng = random.Random(9900 + seed)
    for context in ("root", "hoisted", "gated"):
        model = _mtd_context(rng, _random_mtd(rng, "M"), context)
        report = lint_flat_schedule(compile_flat(model))
        assert not _ir_noise(report), (context, report.describe())


# -- no emitted program forwards one value to one slot twice -----------------


def _repeated_copies(schedule):
    """Copy pairs a program runs more than once: copy ops' pairs and the
    post-propagation pairs of ``run`` and ``expr`` ops."""
    pairs = []
    for op in schedule.program:
        if op[0] == OP_COPY:
            pairs.extend(op[1])
        elif op[0] == OP_RUN:
            pairs.extend(op[5])
        elif op[0] == OP_EXPR:
            pairs.extend(op[4])
    return sorted({pair for pair in pairs if pairs.count(pair) > 1})


@pytest.mark.parametrize("build", [
    build_momentum_controller, build_closed_loop, build_engine_ccd,
    lambda: build_gated_ccd(build_engine_ccd()), build_reengineered_fda,
    build_door_lock_control, build_comfort_closing, build_engine_modes_mtd,
    build_crank_sequencer_std,
], ids=["momentum", "closed_loop", "engine_ccd", "gated_engine_ccd",
        "reengineered_fda", "door_lock", "comfort_closing", "engine_modes",
        "crank_sequencer"])
def test_no_casestudy_program_repeats_a_copy_pair(build):
    schedule = compile_flat(build())
    assert not _repeated_copies(schedule), schedule.ops_summary()
    assert not _ir_noise(lint_flat_schedule(schedule))


@pytest.mark.parametrize("seed", range(8))
def test_no_fuzz_program_repeats_a_copy_pair(seed):
    from test_batch_differential import _build_model, _mtd_context, _random_mtd
    models = [_build_model(random.Random(9000 + seed), seed)]
    rng = random.Random(9900 + seed)
    models += [_mtd_context(rng, _random_mtd(rng, "M"), context)
               for context in ("root", "hoisted", "gated")]
    for model in models:
        schedule = compile_flat(model)
        assert not _repeated_copies(schedule), schedule.ops_summary()
