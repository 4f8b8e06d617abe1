"""IR dataflow verifier: mutation self-tests + zero-false-positive sweep.

Each mutation doctors a compiler-produced ``FlatSchedule`` program into a
known-bad one and asserts the matching rule fires; the sweep asserts the
verifier reports no errors (and no IR-layer warnings) on any schedule the
compiler actually produces -- case-study models, the gated engine CCD and
the differential-fuzz generators.
"""

import random

import pytest

from repro.analysis.lint import certify_batch, lint_flat_schedule, lint_model
from repro.casestudy.door_lock import build_door_lock_faa
from repro.casestudy.engine_control import build_engine_ccd
from repro.casestudy.momentum import (build_closed_loop,
                                      build_momentum_controller)
from repro.casestudy.reengineered import build_reengineered_fda
from repro.core.clocks import EventClock, every
from repro.core.components import ExpressionComponent
from repro.core.validation import Severity
from repro.notations.blocks import UnitDelay
from repro.notations.dfd import DataFlowDiagram
from repro.simulation.engine import ClockGatedComponent, build_gated_ccd
from repro.simulation.schedule_ir import (OP_COPY, OP_CORRECT, OP_GATE,
                                          OP_RUN, FlatSchedule, compile_flat)


def _doctor(schedule, program, n_slots=None):
    """Rebuild a schedule with a mutated program (the constructor re-derives
    the step closure, so the mutant is a structurally valid FlatSchedule)."""
    return FlatSchedule(
        schedule.component, tuple(program),
        schedule.n_slots if n_slots is None else n_slots,
        schedule.input_spec, schedule.output_spec, schedule.leaves,
        schedule.buffer_specs, schedule._scratch_count, schedule._linear,
        schedule.fallback_paths, schedule.slot_names)


@pytest.fixture
def momentum_schedule():
    return compile_flat(build_momentum_controller())


@pytest.fixture
def feedback_schedule():
    """A delayed feedback loop: the UnitDelay runs before its producer and
    is correction-tracked (the program contains a real OP_CORRECT)."""
    dfd = DataFlowDiagram("FB")
    dfd.add_input("x")
    dfd.add_output("out")
    adder = ExpressionComponent("A", {"out": "a + b"})
    adder.add_input("a")
    adder.add_input("b")
    adder.add_output("out")
    delay = UnitDelay("Z", initial=0)
    dfd.add_subcomponent(adder)
    dfd.add_subcomponent(delay)
    dfd.connect("x", "A.a")
    dfd.connect("Z.out", "A.b")
    dfd.connect("A.out", "Z.in1")
    dfd.connect("A.out", "out")
    schedule = compile_flat(dfd)
    assert any(op[0] == OP_CORRECT for op in schedule.program)
    assert any(op[0] == OP_RUN and op[6] >= 0 for op in schedule.program)
    return schedule


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
        mutant.step({}, None, 0)


def test_mutation_correction_missing_dropped_barrier(feedback_schedule):
    program = [op for op in feedback_schedule.program
               if op[0] != OP_CORRECT]
    report = lint_flat_schedule(_doctor(feedback_schedule, program))
    missing = report.by_rule("ir-correction-missing")
    assert missing and missing[0].severity is Severity.ERROR


def test_mutation_correction_unmatched_input_spec(feedback_schedule):
    program = [list(op) for op in feedback_schedule.program]
    barrier = next(op for op in program if op[0] == OP_CORRECT)
    si, leaf_index, fn, in_spec = barrier[1][0]
    barrier[1] = ((si, leaf_index, fn,
                   tuple((name, slot + 1) for name, slot in in_spec)),)
    report = lint_flat_schedule(_doctor(feedback_schedule, program))
    assert report.by_rule("ir-correction-unmatched"), report.describe()


def test_mutation_correction_missing_untracked_late_producer(
        feedback_schedule):
    program = [list(op) for op in feedback_schedule.program
               if op[0] != OP_CORRECT]
    run = next(op for op in program if op[0] == OP_RUN)
    run[6] = -1  # pretend the flattener forgot to track the delay
    report = lint_flat_schedule(_doctor(feedback_schedule, program))
    missing = report.by_rule("ir-correction-missing")
    assert missing, report.describe()
    assert "late producers" in missing[0].message


def test_mutation_correction_dead_barrier(feedback_schedule):
    program = list(feedback_schedule.program)
    run_index = next(i for i, op in enumerate(program) if op[0] == OP_RUN)
    barrier = next(op for op in program if op[0] == OP_CORRECT)
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


# -- batch certification ----------------------------------------------------


def test_batch_certification_of_clean_schedule(momentum_schedule):
    cert = certify_batch(momentum_schedule)
    assert cert["safe"]
    assert cert["copy_ops"] == cert["gatherable_ops"] \
        + cert["order_dependent_ops"]
    report = lint_flat_schedule(momentum_schedule)
    assert report.by_rule("ir-batch-certified")


def test_batch_alias_duplicate_destination_is_order_dependent(
        momentum_schedule):
    in_a = momentum_schedule.input_spec[0][1]
    in_b = momentum_schedule.input_spec[1][1]
    fresh = momentum_schedule.n_slots
    program = list(momentum_schedule.program) \
        + [[OP_COPY, ((in_a, fresh), (in_b, fresh))]]
    mutant = _doctor(momentum_schedule, program, n_slots=fresh + 1)
    cert = certify_batch(mutant)
    assert cert["safe"]  # in-order pair execution keeps it correct
    alias = [f for f in cert["findings"] if f.rule == "ir-batch-alias"]
    assert alias and alias[0].severity is Severity.INFO


def test_batch_alias_self_copy_hazard_voids_certification(
        momentum_schedule):
    in_a = momentum_schedule.input_spec[0][1]
    fresh = momentum_schedule.n_slots
    program = list(momentum_schedule.program) \
        + [[OP_COPY, ((in_a, fresh), (fresh, fresh))]]
    mutant = _doctor(momentum_schedule, program, n_slots=fresh + 1)
    cert = certify_batch(mutant)
    assert not cert["safe"]
    alias = [f for f in cert["findings"] if f.rule == "ir-batch-alias"]
    assert alias and alias[0].severity is Severity.WARNING
    report = lint_flat_schedule(mutant)
    assert not report.by_rule("ir-batch-certified")


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
