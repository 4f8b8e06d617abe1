"""Operational Architecture generation: ASCET-SD-style projects per ECU.

Paper Sec. 3.4: "based on the deployment decisions, the AutoMoDe tool
prototype will generate ASCET-SD projects for each ECU of the target
architecture.  All signals between clusters deployed to different ECUs will
be mapped to a communication network, e.g. CAN ...  In all generated
ASCET-SD projects, additional communication components have to be added
which can be configured according to the generated or supplemented
communication matrix."

Because the commercial ASCET-SD tool is not available, the generator emits a
self-contained, human-readable project per ECU consisting of

* one C module per cluster (message declarations with implementation types,
  a ``<cluster>_init`` and a ``<cluster>_process`` function; expression
  blocks are translated to C expressions, library blocks to calls into a
  small runtime),
* an OIL-style OS configuration (tasks, priorities, periods, process lists),
* a CAN communication component configured from the communication matrix
  (send/receive tables per frame),
* a project manifest.

The output is a :class:`GeneratedProject` holding ``path -> content`` so the
result can be inspected in tests or written to disk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..core.components import Component, CompositeComponent, ExpressionComponent
from ..core.errors import CodeGenError
from ..core.expressions import (BinaryOp, Call, Conditional, Expression,
                                Present, UnaryOp, Variable)
from ..core.types import Type
from ..notations.ccd import Cluster, ClusterCommunicationDiagram
from ..platform.can import CANBus
from ..platform.ecu import TechnicalArchitecture
from .comm_matrix import CommunicationMatrix

# The expression -> C translation is shared with the native simulation
# backend (repro.simulation.native); the single source of truth lives in
# repro.ascet.c_expr and is re-exported here for backward compatibility.
from .c_expr import _C_FUNCTIONS, _C_OPERATORS, c_type_of, expression_to_c

__all__ = ["AscetProjectGenerator", "GeneratedProject", "c_type_of",
           "expression_to_c"]


# --------------------------------------------------------------------------
# generated artefacts
# --------------------------------------------------------------------------

@dataclass
class GeneratedProject:
    """One generated per-ECU project: a named set of text files."""

    ecu: str
    files: Dict[str, str] = field(default_factory=dict)

    def add_file(self, path: str, content: str) -> None:
        if path in self.files:
            raise CodeGenError(f"project {self.ecu!r} already has file {path!r}")
        self.files[path] = content

    def file(self, path: str) -> str:
        try:
            return self.files[path]
        except KeyError as exc:
            raise CodeGenError(f"project {self.ecu!r} has no file {path!r}") from exc

    def file_names(self) -> List[str]:
        return sorted(self.files)

    def total_lines(self) -> int:
        return sum(content.count("\n") + 1 for content in self.files.values())

    def write_to(self, directory: str) -> List[str]:
        """Write all files below *directory*; returns the written paths."""
        written = []
        for path, content in sorted(self.files.items()):
            full_path = os.path.join(directory, self.ecu, path)
            os.makedirs(os.path.dirname(full_path), exist_ok=True)
            with open(full_path, "w", encoding="utf-8") as handle:
                handle.write(content)
            written.append(full_path)
        return written


def _renamed(expression: Expression,
             renaming: Mapping[str, str]) -> Expression:
    """*expression* with each variable and ``present`` channel named in
    *renaming* replaced by its C signal name (whole names only)."""
    if isinstance(expression, Variable):
        return Variable(renaming.get(expression.name, expression.name))
    if isinstance(expression, Present):
        return Present(renaming.get(expression.channel, expression.channel))
    if isinstance(expression, UnaryOp):
        return UnaryOp(expression.op, _renamed(expression.operand, renaming))
    if isinstance(expression, BinaryOp):
        return BinaryOp(expression.op, _renamed(expression.left, renaming),
                        _renamed(expression.right, renaming))
    if isinstance(expression, Conditional):
        return Conditional(*(_renamed(child, renaming)
                             for child in expression.children()))
    if isinstance(expression, Call):
        return Call(expression.function, tuple(
            _renamed(argument, renaming) for argument in expression.arguments))
    return expression


class AscetProjectGenerator:
    """Generates one ASCET-style project per ECU of a deployment."""

    def __init__(self, ccd: ClusterCommunicationDiagram,
                 architecture: TechnicalArchitecture,
                 bus: Optional[CANBus] = None,
                 matrix: Optional[CommunicationMatrix] = None):
        self.ccd = ccd
        self.architecture = architecture
        self.bus = bus
        self.matrix = matrix

    # -- public API --------------------------------------------------------------
    def generate_all(self) -> Dict[str, GeneratedProject]:
        """Generate the project of every ECU in the technical architecture."""
        return {ecu.name: self.generate_for_ecu(ecu.name)
                for ecu in self.architecture.ecu_list()}

    def generate_for_ecu(self, ecu_name: str) -> GeneratedProject:
        ecu = self.architecture.ecu(ecu_name)
        project = GeneratedProject(ecu=ecu_name)
        cluster_names = ecu.cluster_names()
        clusters = [self.ccd.cluster(name) for name in cluster_names
                    if self.ccd.has_subcomponent(name)]
        for cluster in clusters:
            project.add_file(f"modules/{cluster.name}.c",
                             self._cluster_module(cluster))
            project.add_file(f"modules/{cluster.name}.h",
                             self._cluster_header(cluster))
        project.add_file("os/osek_config.oil", self._os_configuration(ecu_name))
        project.add_file("com/can_config.c", self._can_configuration(ecu_name))
        project.add_file("project.manifest", self._manifest(ecu_name, clusters))
        return project

    # -- module generation ----------------------------------------------------------
    def _signal_c_type(self, cluster: Cluster, port_name: str,
                       abstract: Type) -> str:
        impl = None
        if port_name in cluster.implementation:
            impl = cluster.implementation.lookup(port_name).implementation_type
        return c_type_of(impl, abstract)

    def _cluster_header(self, cluster: Cluster) -> str:
        guard = f"{cluster.name.upper()}_H"
        lines = [f"#ifndef {guard}", f"#define {guard}", "",
                 f"/* generated from AutoMoDe cluster {cluster.name!r} "
                 f"(rate every({cluster.period}, true)) */", ""]
        for port in cluster.input_ports():
            ctype = self._signal_c_type(cluster, port.name, port.port_type)
            lines.append(f"extern {ctype} {cluster.name}_{port.name};  "
                         f"/* receive message */")
        for port in cluster.output_ports():
            ctype = self._signal_c_type(cluster, port.name, port.port_type)
            lines.append(f"extern {ctype} {cluster.name}_{port.name};  "
                         f"/* send message */")
        lines.extend(["", f"void {cluster.name}_init(void);",
                      f"void {cluster.name}_process(void);", "",
                      f"#endif /* {guard} */", ""])
        return "\n".join(lines)

    def _cluster_module(self, cluster: Cluster) -> str:
        lines = [f'#include "{cluster.name}.h"',
                 '#include "automode_runtime.h"', "",
                 f"/* cluster {cluster.name}: {cluster.description or 'no description'} */",
                 ""]
        for port in cluster.ports():
            ctype = self._signal_c_type(cluster, port.name, port.port_type)
            lines.append(f"{ctype} {cluster.name}_{port.name};")
        state_declarations, body = self._cluster_body(cluster)
        lines.append("")
        lines.extend(state_declarations)
        lines.extend(["",
                      f"void {cluster.name}_init(void)", "{"])
        for declaration in state_declarations:
            name = declaration.split()[-1].rstrip(";")
            lines.append(f"    {name} = 0;")
        lines.extend(["}", "",
                      f"void {cluster.name}_process(void)", "{"])
        lines.extend("    " + line for line in body)
        lines.extend(["}", ""])
        return "\n".join(lines)

    def _cluster_body(self, cluster: Cluster) -> (List[str], List[str]):
        """Generate state declarations and process-body statements."""
        state_declarations: List[str] = []
        body: List[str] = []
        order = cluster.evaluation_order() if cluster.subcomponents() else []
        alias: Dict[str, str] = {}
        for port in cluster.input_ports():
            alias[port.name] = f"{cluster.name}_{port.name}"

        for block_name in order:
            block = cluster.subcomponent(block_name)
            inputs_of_block = {}
            for channel in cluster.channels():
                if channel.destination.component == block_name:
                    source = channel.source
                    if source.is_boundary():
                        inputs_of_block[channel.destination.port] = alias[source.port]
                    else:
                        inputs_of_block[channel.destination.port] = \
                            f"{source.component}_{source.port}"
            if isinstance(block, ExpressionComponent):
                for out_name, expression in block.output_expressions.items():
                    local = f"{block_name}_{out_name}"
                    body.append(f"float32 {local} = "
                                f"{self._rewrite(expression, inputs_of_block)};")
            else:
                for out_name in block.output_names():
                    local = f"{block_name}_{out_name}"
                    state = f"{block_name}_state"
                    if state + ";" not in [d.split()[-1] for d in state_declarations]:
                        state_declarations.append(f"static float32 {state};")
                    arguments = ", ".join(
                        inputs_of_block.get(name, "0")
                        for name in block.input_names())
                    runtime_call = (f"automode_rt_{type(block).__name__.lower()}"
                                    f"(&{state}{', ' if arguments else ''}{arguments})")
                    body.append(f"float32 {local} = {runtime_call};")
        # boundary outputs
        for channel in cluster.channels():
            if channel.destination.is_boundary():
                source = channel.source
                if source.is_boundary():
                    value = alias[source.port]
                else:
                    value = f"{source.component}_{source.port}"
                body.append(f"{cluster.name}_{channel.destination.port} = {value};")
        if not body:
            body.append("/* structure-only cluster: nothing to compute */")
        return state_declarations, body

    @staticmethod
    def _rewrite(expression: Expression, renaming: Mapping[str, str]) -> str:
        return expression_to_c(_renamed(expression, renaming))

    # -- OS / COM configuration -------------------------------------------------------
    def _os_configuration(self, ecu_name: str) -> str:
        ecu = self.architecture.ecu(ecu_name)
        lines = ["OIL_VERSION = \"2.5\";", "", "CPU %s {" % ecu_name,
                 "    OS osek_os {", "        STATUS = EXTENDED;",
                 "        SCHEDULE = FULL_PREEMPTIVE;", "    };", ""]
        for task in ecu.task_list():
            lines.extend([
                f"    TASK {task.name} {{",
                f"        PRIORITY = {task.priority};",
                "        AUTOSTART = TRUE;",
                f"        PERIOD = {task.period};",
                f"        /* activates: {', '.join(task.clusters) or '(none)'} */",
                "    };"])
        lines.extend(["};", ""])
        return "\n".join(lines)

    def _can_configuration(self, ecu_name: str) -> str:
        lines = ['#include "automode_runtime.h"', "",
                 f"/* CAN communication component of ECU {ecu_name} */", ""]
        if self.bus is None or self.matrix is None:
            lines.append("/* no inter-ECU communication configured */")
            lines.append("")
            return "\n".join(lines)
        sends: List[str] = []
        receives: List[str] = []
        for frame in self.bus.frame_list():
            for signal in frame.signals:
                sender_ecu = self.architecture.ecu_of_cluster(signal.sender_cluster)
                receiver_ecus = {self.architecture.ecu_of_cluster(name)
                                 for name in signal.receiver_clusters}
                if sender_ecu == ecu_name:
                    sends.append(f"    {{\"{signal.name}\", {frame.can_id:#05x}, "
                                 f"{signal.start_bit}, {signal.bits}}},")
                if ecu_name in receiver_ecus:
                    receives.append(f"    {{\"{signal.name}\", {frame.can_id:#05x}, "
                                    f"{signal.start_bit}, {signal.bits}}},")
        lines.append("const can_signal_entry can_tx_table[] = {")
        lines.extend(sends or ["    /* none */"])
        lines.extend(["};", "", "const can_signal_entry can_rx_table[] = {"])
        lines.extend(receives or ["    /* none */"])
        lines.extend(["};", ""])
        return "\n".join(lines)

    def _manifest(self, ecu_name: str, clusters: Sequence[Cluster]) -> str:
        lines = [f"project: {self.ccd.name}_{ecu_name}",
                 f"generated-by: AutoMoDe reproduction OA generator",
                 f"ecu: {ecu_name}",
                 f"clusters: {', '.join(cluster.name for cluster in clusters)}",
                 f"tasks: {', '.join(task.name for task in self.architecture.ecu(ecu_name).task_list())}",
                 f"bus: {self.bus.name if self.bus else '(none)'}"]
        return "\n".join(lines) + "\n"
