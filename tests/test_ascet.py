"""Tests for the ASCET-SD substrate: model, interpreter, analysis, codegen."""

import os

import pytest

from repro.ascet.codegen import (AscetProjectGenerator, GeneratedProject,
                                 c_type_of, expression_to_c)
from repro.ascet.comm_matrix import CommunicationMatrix
from repro.ascet.importer import (analyze_module, find_flags,
                                  find_implicit_modes, find_mode_conditions,
                                  module_interface)
from repro.ascet.model import (AscetInterpreter, AscetModule, AscetProcess,
                               AscetProject, AscetTask, assign, if_then_else)
from repro.core.errors import CodeGenError, ModelError, UnknownElementError
from repro.core.expr_parser import parse_expression
from repro.core.impl_types import BOOL8, INT16, FixedPointType
from repro.core.types import BOOL, FLOAT, EnumType, IntType


def _throttle_module():
    module = AscetModule("Throttle")
    module.receive("n", 0.0)
    module.receive("b_fuel", False)
    module.receive("pos", 0.0)
    module.receive("pos_des", 0.0)
    module.parameter("k", 2.0)
    module.send("rate", 0.0)
    process = module.new_process("calc")
    process.add(if_then_else("b_fuel and n > 600",
                             [assign("rate", "(pos_des - pos) * k")],
                             [assign("rate", "5")]))
    return module


class TestAscetModel:
    def test_statement_structure(self):
        conditional = if_then_else("a > 0", [assign("x", "1")],
                                   [assign("y", "2"), assign("x", "3")])
        assert sorted(set(conditional.targets())) == ["x", "y"]
        assert len(conditional.conditions()) == 1
        assert conditional.if_depth() == 1
        nested = if_then_else("b", [conditional], [])
        assert nested.if_depth() == 2
        assert "if (" in nested.to_pseudocode()

    def test_process_metrics(self):
        module = _throttle_module()
        process = module.process("calc")
        assert process.if_then_else_count() == 1
        assert process.max_if_depth() == 1
        assert process.operator_count() >= 3
        assert "process calc" in process.to_pseudocode()

    def test_module_declarations_and_metrics(self):
        module = _throttle_module()
        module.send("b_limp", False)
        assert module.flag_count() == 1
        assert module.if_then_else_count() == 1
        assert "module Throttle" in module.to_pseudocode()
        with pytest.raises(ModelError):
            module.add_process(AscetProcess("calc"))
        with pytest.raises(UnknownElementError):
            module.process("missing")

    def test_project_management(self):
        project = AscetProject("P")
        project.add_module(_throttle_module())
        with pytest.raises(ModelError):
            project.add_module(_throttle_module())
        project.add_task(AscetTask("T1", period=1, priority=1,
                                   processes=[("Throttle", "calc")]))
        assert project.total_if_then_else() == 1
        assert [task.name for task in project.task_list()] == ["T1"]
        with pytest.raises(UnknownElementError):
            project.module("missing")


class TestAscetInterpreter:
    def test_conditional_execution(self):
        interpreter = AscetInterpreter(_throttle_module())
        fuel_on = interpreter.step({"n": 700, "b_fuel": True, "pos": 10.0,
                                    "pos_des": 20.0})
        assert fuel_on["rate"] == 20.0
        fuel_off = interpreter.step({"n": 300, "b_fuel": True, "pos": 10.0,
                                     "pos_des": 20.0})
        assert fuel_off["rate"] == 5

    def test_state_retained_across_ticks(self):
        module = AscetModule("Accumulate")
        module.receive("u", 0.0)
        module.send("total", 0.0)
        process = module.new_process("acc")
        process.add(assign("total", "total + u"))
        interpreter = AscetInterpreter(module)
        outputs = interpreter.run([{"u": 1.0}, {"u": 2.0}, {"u": 3.0}])
        assert [o["total"] for o in outputs] == [1.0, 3.0, 6.0]

    def test_multirate_process_activation(self):
        module = AscetModule("Slow")
        module.receive("u", 0.0)
        module.send("y", 0.0)
        process = module.new_process("slow", period=2)
        process.add(assign("y", "u"))
        interpreter = AscetInterpreter(module)
        outputs = interpreter.run([{"u": 1.0}, {"u": 2.0}, {"u": 3.0},
                                   {"u": 4.0}])
        # the process only runs on even ticks, so y lags on odd ticks
        assert [o["y"] for o in outputs] == [1.0, 1.0, 3.0, 3.0]

    def test_unknown_input_rejected(self):
        interpreter = AscetInterpreter(_throttle_module())
        with pytest.raises(UnknownElementError):
            interpreter.step({"nonexistent": 1})

    def test_reset(self):
        module = AscetModule("M")
        module.receive("u", 0.0)
        module.send("y", 0.0)
        module.new_process("p").add(assign("y", "y + u"))
        interpreter = AscetInterpreter(module)
        interpreter.step({"u": 5.0})
        interpreter.reset()
        assert interpreter.step({"u": 1.0})["y"] == 1.0


class TestImporterAnalysis:
    def test_implicit_modes_recovered(self):
        module = _throttle_module()
        modes = find_implicit_modes(module.process("calc"),
                                    ["FuelEnabled", "CrankingOverrun"])
        assert [mode.name for mode in modes] == ["FuelEnabled", "CrankingOverrun"]
        assert modes[0].condition is not None
        assert modes[1].condition.to_source().startswith("not")
        assert modes[0].assigned_messages() == ["rate"]

    def test_straight_line_process_single_mode(self):
        module = AscetModule("Linear")
        module.receive("u", 0.0)
        module.send("y", 0.0)
        process = module.new_process("p")
        process.add(assign("y", "u * 2"))
        modes = find_implicit_modes(process)
        assert len(modes) == 1
        assert modes[0].condition is None

    def test_mode_conditions_and_flags(self, engine_project):
        throttle = engine_project.module("ThrottleRateOfChange")
        conditions = find_mode_conditions(throttle.process("calc_rate"))
        assert len(conditions) == 1
        central = engine_project.module("CentralState")
        assert len(find_flags(central)) == 6
        inputs, outputs = module_interface(throttle)
        assert "n" in inputs and "throttle_rate" in outputs

    def test_analyze_module_summary(self, engine_project):
        analysis = analyze_module(
            engine_project.module("ThrottleRateOfChange"),
            {"calc_rate": ["FuelEnabled", "CrankingOverrun"]})
        assert analysis.mode_count() == 2
        assert analysis.if_then_else_count == 1
        assert "FuelEnabled" in analysis.describe()


class TestCodegenHelpers:
    def test_expression_to_c(self):
        assert expression_to_c(parse_expression("a + b * 2")) == "(a + (b * 2))"
        assert expression_to_c(parse_expression("if a then 1 else 2")) == \
            "(a ? 1 : 2)"
        assert expression_to_c(parse_expression("not a and b")) == "((!a) && b)"
        assert expression_to_c(parse_expression("limit(x, 0, 5)")) == \
            "automode_limit(x, 0, 5)"
        assert expression_to_c(parse_expression("mode == 'crash'")) == \
            "(mode == E_CRASH)"
        assert "msg_present" in expression_to_c(parse_expression("present(x)"))

    def test_rewrite_renames_whole_names_only(self):
        # inputs n and n_max: renaming n must not rename inside n_max
        renaming = {"n": "C_n", "n_max": "C_n_max", "max": "C_max"}
        rewrite = AscetProjectGenerator._rewrite
        assert rewrite(parse_expression("n + n_max"), renaming) == \
            "(C_n + C_n_max)"
        assert rewrite(parse_expression("max(n, 1) > n_max"), renaming) == \
            "(automode_max(C_n, 1) > C_n_max)"
        assert rewrite(parse_expression("present(n) and m"), renaming) == \
            "(msg_present(C_n) && m)"

    def test_c_type_selection(self):
        assert c_type_of(INT16, FLOAT) == "sint16"
        assert c_type_of(BOOL8, BOOL) == "boolean"
        assert c_type_of(FixedPointType(16, 0.1), FLOAT) == "sint16"
        assert c_type_of(None, IntType(0, 5)) == "sint32"
        assert c_type_of(None, EnumType("E", ["a"])) == "uint8"
        assert c_type_of(None, FLOAT) == "float32"

    def test_generated_project_file_management(self, tmp_path):
        project = GeneratedProject("ECU1")
        project.add_file("a.c", "int x;\n")
        with pytest.raises(CodeGenError):
            project.add_file("a.c", "again")
        with pytest.raises(CodeGenError):
            project.file("missing")
        assert project.total_lines() >= 1
        written = project.write_to(str(tmp_path))
        assert len(written) == 1
        assert os.path.exists(written[0])


class TestProjectGeneration:
    def test_generation_from_deployment(self, engine_ccd):
        from repro.transformations.deployment import deploy
        result = deploy(engine_ccd, ["ECU_Engine", "ECU_Body"],
                        allocation={"SensorProcessing": "ECU_Engine",
                                    "FuelAndIgnition": "ECU_Engine",
                                    "IdleSpeed": "ECU_Body",
                                    "Monitoring": "ECU_Body"})
        generator = AscetProjectGenerator(engine_ccd, result.architecture,
                                          bus=result.bus, matrix=result.matrix)
        projects = generator.generate_all()
        assert set(projects) == {"ECU_Engine", "ECU_Body"}
        engine_project = projects["ECU_Engine"]
        assert "modules/FuelAndIgnition.c" in engine_project.files
        assert "modules/FuelAndIgnition.h" in engine_project.files
        assert "os/osek_config.oil" in engine_project.files
        assert "com/can_config.c" in engine_project.files
        assert "project.manifest" in engine_project.files
        module_source = engine_project.file("modules/FuelAndIgnition.c")
        assert "FuelAndIgnition_process" in module_source
        assert "Injection_ti" in module_source
        oil = engine_project.file("os/osek_config.oil")
        assert "FULL_PREEMPTIVE" in oil and "TASK" in oil
        can_config = projects["ECU_Body"].file("com/can_config.c")
        assert "can_tx_table" in can_config

    def test_generation_without_bus(self, engine_ccd):
        from repro.platform.ecu import ECU, Task, TechnicalArchitecture
        architecture = TechnicalArchitecture("TA")
        ecu = ECU("Solo")
        task = Task("T1", period=1, priority=1)
        for cluster in engine_ccd.clusters():
            task.add_cluster(cluster.name, 1.0)
        ecu.add_task(task)
        architecture.add_ecu(ecu)
        generator = AscetProjectGenerator(engine_ccd, architecture)
        project = generator.generate_for_ecu("Solo")
        assert "no inter-ECU communication" in project.file("com/can_config.c")
        assert len([name for name in project.file_names()
                    if name.endswith(".c")]) >= 5


class TestCommunicationMatrix:
    def _matrix(self):
        matrix = CommunicationMatrix("BodyNet")
        matrix.add("lock_status", "DoorModule", ["CentralLocking", "Dashboard"],
                   frame="BODY_1", period=20)
        matrix.add("crash_signal", "AirbagECU", ["CentralLocking"],
                   frame="SAFETY_1", period=10)
        matrix.add("speed", "ESP", ["CentralLocking", "Dashboard", "Wipers"],
                   frame="CHASSIS_1", period=10, length_bits=16)
        return matrix

    def test_entries_and_queries(self):
        matrix = self._matrix()
        assert len(matrix) == 3
        assert matrix.functions() == ["AirbagECU", "CentralLocking",
                                      "Dashboard", "DoorModule", "ESP",
                                      "Wipers"]
        assert len(matrix.signals_received_by("CentralLocking")) == 3
        assert len(matrix.signals_sent_by("ESP")) == 1
        assert matrix.fan_out()["ESP"] == 3
        assert matrix.frames() == ["BODY_1", "CHASSIS_1", "SAFETY_1"]
        assert len(matrix.signals_in_frame("BODY_1")) == 1
        assert len(matrix.dependency_pairs()) == 6
        assert "crash_signal" in matrix.describe()

    def test_validation(self):
        matrix = CommunicationMatrix("M")
        with pytest.raises(ModelError):
            matrix.add("s", "A", [])
        with pytest.raises(ModelError):
            matrix.add("s", "A", ["A"])
        matrix.add("s", "A", ["B"])
        with pytest.raises(ModelError):
            matrix.add("s", "A", ["C"])
        with pytest.raises(ModelError):
            matrix.entry("missing")

    def test_roundtrip_rows(self):
        matrix = self._matrix()
        clone = CommunicationMatrix.from_rows("Copy", matrix.to_rows())
        assert len(clone) == len(matrix)
        assert clone.entry("speed").receivers == matrix.entry("speed").receivers
