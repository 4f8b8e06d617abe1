"""Components: the structural and behavioural building blocks of AutoMoDe.

Every AutoMoDe model element "can be understood as a component or block
exchanging messages with its environment via logical channels with respect
to a global, discrete time-base" (paper Sec. 2).  This module defines

* :class:`Component` -- the abstract base with a typed port interface and a
  synchronous ``react`` step,
* :class:`ExpressionComponent` -- atomic blocks whose outputs are defined by
  base-language expressions (the ``ADD`` block of Fig. 5),
* :class:`FunctionComponent` -- atomic blocks defined by a Python callable
  (used for the block library),
* :class:`StatefulComponent` -- atomic blocks with internal state (delay,
  integrator, hold...),
* :class:`CompositeComponent` -- hierarchical composition of sub-components
  connected by channels, with either instantaneous (DFD) or delayed (SSD)
  channel semantics, including the recursive synchronous execution and the
  instantaneous-dependency analysis used by the causality check,
* :class:`ExecutionPlan` -- the precomputed per-composite schedule (topological
  evaluation order, instantaneous-propagation lists, delayed-channel seed and
  commit lists, boundary collection) cached on the composite and shared by
  the interpreter and the compiled simulation engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from ..obs.context import current_registry
from .channels import Channel, ChannelEnd, connect
from .clocks import BASE_CLOCK, Clock
from .errors import (CausalityError, ModelError, NameConflictError,
                     SimulationError, UnknownElementError)
from .expr_eval import ExpressionEvaluator
from .expr_parser import parse_expression
from .expressions import Expression
from .ports import Port, PortDirection, input_port, output_port
from .types import ANY, Type
from .values import ABSENT, is_absent


class Component:
    """Abstract base class of all AutoMoDe components and blocks."""

    def __init__(self, name: str, description: str = ""):
        if not name or not all(ch.isalnum() or ch in "_-" for ch in name):
            raise ModelError(f"invalid component name {name!r}")
        self.name = name
        self.description = description
        self._ports: Dict[str, Port] = {}
        #: bumped on every structural mutation; plan-cache keys derive from it
        self._structure_version = 0
        #: free-form annotations (abstraction level, requirements, actuators...)
        self.annotations: Dict[str, Any] = {}

    # -- port management -------------------------------------------------------
    def add_port(self, port: Port) -> Port:
        """Attach *port* to this component's interface."""
        if port.name in self._ports:
            raise NameConflictError(
                f"component {self.name!r} already has a port {port.name!r}")
        port.owner = self
        self._ports[port.name] = port
        self._structure_version += 1
        return port

    def add_input(self, name: str, port_type: Type = ANY,
                  clock: Clock = BASE_CLOCK, description: str = "") -> Port:
        """Declare and attach a new input port."""
        return self.add_port(input_port(name, port_type, clock, description))

    def add_output(self, name: str, port_type: Type = ANY,
                   clock: Clock = BASE_CLOCK, description: str = "") -> Port:
        """Declare and attach a new output port."""
        return self.add_port(output_port(name, port_type, clock, description))

    def port(self, name: str) -> Port:
        """Look up a port by name."""
        try:
            return self._ports[name]
        except KeyError as exc:
            raise UnknownElementError(
                f"component {self.name!r} has no port {name!r}") from exc

    def has_port(self, name: str) -> bool:
        return name in self._ports

    def ports(self) -> List[Port]:
        return list(self._ports.values())

    def input_ports(self) -> List[Port]:
        return [p for p in self._ports.values() if p.is_input()]

    def output_ports(self) -> List[Port]:
        return [p for p in self._ports.values() if p.is_output()]

    def input_names(self) -> List[str]:
        return [p.name for p in self.input_ports()]

    def output_names(self) -> List[str]:
        return [p.name for p in self.output_ports()]

    # -- behaviour protocol ------------------------------------------------------
    def initial_state(self) -> Any:
        """Initial internal state; stateless components return ``None``."""
        return None

    def react(self, inputs: Mapping[str, Any], state: Any,
              tick: int) -> Tuple[Dict[str, Any], Any]:
        """One synchronous step: consume input messages, produce outputs.

        *inputs* maps every input port name to the value present at this
        tick (possibly :data:`ABSENT`).  The method returns the output
        message per output port and the successor state.
        """
        raise NotImplementedError(
            f"component {self.name!r} ({type(self).__name__}) has no behaviour; "
            "on the FAA level this is allowed, but it cannot be simulated")

    def has_behavior(self) -> bool:
        """True if the component can be executed by the simulation engine."""
        return type(self).react is not Component.react

    def instantaneous_dependencies(self) -> Dict[str, Set[str]]:
        """Map each output port to the inputs it depends on *within* a tick.

        The default is the safe over-approximation that every output depends
        instantaneously on every input; components that break the feedback
        loop (e.g. the unit delay block) override this with an empty
        dependency set, which is what the causality check exploits.
        """
        all_inputs = set(self.input_names())
        return {out: set(all_inputs) for out in self.output_names()}

    def structure_token(self) -> Any:
        """A hashable token that changes whenever the structure mutates.

        Composite components recurse into their sub-components, so a cached
        execution plan is invalidated by any structural change anywhere in
        the subtree that went through the public mutation API.  Code that
        performs deliberate surgery on private attributes must call
        :meth:`CompositeComponent.invalidate_plan` afterwards.
        """
        return self._structure_version

    # -- misc ------------------------------------------------------------------
    def annotate(self, key: str, value: Any) -> "Component":
        """Attach a free-form annotation and return ``self`` for chaining."""
        self.annotations[key] = value
        return self

    def __repr__(self) -> str:
        ins = ", ".join(self.input_names())
        outs = ", ".join(self.output_names())
        return f"{type(self).__name__}({self.name}: [{ins}] -> [{outs}])"


class ExpressionComponent(Component):
    """Atomic block whose outputs are base-language expressions over inputs.

    Example (the ``ADD`` block of paper Fig. 5)::

        add = ExpressionComponent("ADD", {"out": "ch1 + ch2 + ch3"})
        add.add_input("ch1"); add.add_input("ch2"); add.add_input("ch3")
        add.add_output("out")
    """

    def __init__(self, name: str, output_expressions: Mapping[str, Any],
                 description: str = "",
                 evaluator: Optional[ExpressionEvaluator] = None):
        super().__init__(name, description)
        self.output_expressions: Dict[str, Expression] = {}
        for out_name, expr in output_expressions.items():
            if isinstance(expr, str):
                expr = parse_expression(expr)
            if not isinstance(expr, Expression):
                raise ModelError(
                    f"output {out_name!r} of {name!r} must be an expression")
            self.output_expressions[out_name] = expr
        self._evaluator = evaluator or ExpressionEvaluator()

    def declare_interface_from_expressions(self) -> None:
        """Create ``any``-typed ports for all expression variables and outputs."""
        used: Set[str] = set()
        for expr in self.output_expressions.values():
            used |= set(expr.variables())
        for name in sorted(used):
            if not self.has_port(name):
                self.add_input(name)
        for name in self.output_expressions:
            if not self.has_port(name):
                self.add_output(name)

    def react(self, inputs: Mapping[str, Any], state: Any,
              tick: int) -> Tuple[Dict[str, Any], Any]:
        environment = dict(inputs)
        outputs: Dict[str, Any] = {}
        for out_name, expr in self.output_expressions.items():
            outputs[out_name] = self._evaluator.evaluate(expr, environment)
        return outputs, state

    def instantaneous_dependencies(self) -> Dict[str, Set[str]]:
        deps: Dict[str, Set[str]] = {}
        input_names = set(self.input_names())
        for out_name, expr in self.output_expressions.items():
            deps[out_name] = set(expr.variables()) & input_names
        for out_name in self.output_names():
            deps.setdefault(out_name, set())
        return deps


class FunctionComponent(Component):
    """Atomic stateless block defined by a Python callable.

    The callable receives the input environment (a dict of port name to
    value) and returns a dict of output port name to value.
    """

    def __init__(self, name: str,
                 function: Callable[[Mapping[str, Any]], Mapping[str, Any]],
                 inputs: Sequence[str] = (), outputs: Sequence[str] = (),
                 description: str = ""):
        super().__init__(name, description)
        self.function = function
        for port_name in inputs:
            self.add_input(port_name)
        for port_name in outputs:
            self.add_output(port_name)

    def react(self, inputs: Mapping[str, Any], state: Any,
              tick: int) -> Tuple[Dict[str, Any], Any]:
        produced = dict(self.function(dict(inputs)))
        outputs = {name: produced.get(name, ABSENT) for name in self.output_names()}
        return outputs, state


class StatefulComponent(Component):
    """Atomic block with internal state (delays, integrators, counters...).

    Subclasses implement :meth:`initial_state` and :meth:`step`; ``step``
    receives the inputs and the current state and returns outputs and the
    successor state.  By default a stateful component is assumed *not* to
    have an instantaneous input-to-output path (its outputs are functions of
    the state only), which is the property that lets delay blocks break
    causality cycles.  Subclasses with a direct feed-through must override
    :meth:`instantaneous_dependencies`.
    """

    direct_feedthrough = False

    def step(self, inputs: Mapping[str, Any], state: Any,
             tick: int) -> Tuple[Dict[str, Any], Any]:
        raise NotImplementedError

    def react(self, inputs: Mapping[str, Any], state: Any,
              tick: int) -> Tuple[Dict[str, Any], Any]:
        return self.step(inputs, state, tick)

    def instantaneous_dependencies(self) -> Dict[str, Set[str]]:
        if self.direct_feedthrough:
            return super().instantaneous_dependencies()
        return {out: set() for out in self.output_names()}


#: A (component name, port name) pair; ``None`` names a boundary port.
PortKey = Tuple[Optional[str], str]


#: Transparent single-component wrappers: class -> attribute naming the
#: wrapped component.  A registered class promises the
#: :class:`~repro.simulation.engine.ClockGatedComponent` contract for the
#: hierarchy queries: ``has_behavior()`` forwards to the wrapped component,
#: ``instantaneous_dependencies()`` forwards unchanged (mirrored port
#: names), and ``structure_token()`` is ``(self._structure_version,
#: wrapped token)``.  The iterative hierarchy walks below unwrap such nodes
#: instead of calling through them, so arbitrarily deep wrapper/composite
#: chains stay within the Python recursion limit.  Subclasses that override
#: one of these methods are treated as opaque for that method.
_TRANSPARENT_WRAPPERS: Dict[type, str] = {}


def register_transparent_wrapper(cls: type, attribute: str) -> None:
    """Register *cls* as a transparent single-component wrapper."""
    _TRANSPARENT_WRAPPERS[cls] = attribute


def _wrapped_component(node: "Component",
                       method_name: str) -> Optional["Component"]:
    """The component *node* transparently wraps, w.r.t. *method_name*.

    ``None`` if *node* is not a registered wrapper or overrides the
    forwarding method itself.
    """
    for cls in type(node).__mro__:
        attribute = _TRANSPARENT_WRAPPERS.get(cls)
        if attribute is not None:
            if getattr(type(node), method_name) is getattr(cls, method_name):
                return getattr(node, attribute)
            return None
    return None


def _default_token_node(component: "Component") -> bool:
    """True for composites using the default :meth:`structure_token`."""
    return (isinstance(component, CompositeComponent)
            and type(component).structure_token
            is CompositeComponent.structure_token)


def subtree_structure_tokens(root: "CompositeComponent") -> Dict[int, Any]:
    """Structure tokens for *root* and the walkable hierarchy below it.

    One iterative post-order pass over default-impl composites and
    registered transparent wrappers; sub-tokens are shared by reference, so
    computing all tokens of an *n*-node hierarchy costs O(n) instead of the
    O(n^2) of calling :meth:`Component.structure_token` once per node, and
    arbitrarily deep hierarchies never hit the Python recursion limit.
    Components with a custom ``structure_token`` are asked directly (their
    override bounds the remaining recursion depth).  *root* itself is
    always tokenized with the default composite formula -- this function is
    the body of the default implementation, so subclass overrides calling
    ``super()`` land here for their own node.
    """

    def walkable(node: "Component") -> bool:
        return (_default_token_node(node)
                or _wrapped_component(node, "structure_token") is not None)

    def token_of(node: "Component", tokens: Dict[int, Any]) -> Any:
        return (tokens[id(node)] if id(node) in tokens
                else node.structure_token())

    tokens: Dict[int, Any] = {}
    stack: List[Component] = [root]
    while stack:
        node = stack[-1]
        if id(node) in tokens:
            stack.pop()
            continue
        wrapped = None if node is root \
            else _wrapped_component(node, "structure_token")
        if wrapped is not None:
            if walkable(wrapped) and id(wrapped) not in tokens:
                stack.append(wrapped)
                continue
            tokens[id(node)] = (node._structure_version,
                                token_of(wrapped, tokens))
            stack.pop()
            continue
        missing = [sub for sub in node._subcomponents.values()
                   if walkable(sub) and id(sub) not in tokens]
        if missing:
            stack.extend(missing)
            continue
        tokens[id(node)] = (
            node._structure_version,
            tuple(token_of(sub, tokens)
                  for sub in node._subcomponents.values()))
        stack.pop()
    return tokens


def _default_deps_node(component: "Component") -> bool:
    """True for composites using the default instantaneous-dependency walk."""
    return (isinstance(component, CompositeComponent)
            and type(component).instantaneous_dependencies
            is CompositeComponent.instantaneous_dependencies)


def _deps_target(component: "Component") -> "Component":
    """Unwrap transparent-wrapper chains w.r.t. instantaneous dependencies.

    Registered wrappers forward ``instantaneous_dependencies`` unchanged
    (mirrored port names), so the first non-forwarding component carries
    the answer.
    """
    while True:
        wrapped = _wrapped_component(component, "instantaneous_dependencies")
        if wrapped is None:
            return component
        component = wrapped


def _instantaneous_deps(root: "CompositeComponent",
                        cache: Dict[int, Dict[str, Set[str]]]
                        ) -> Dict[str, Set[str]]:
    """Default-impl composite dependencies, computed iteratively.

    *root* is treated as a default-impl composite (this is the body of the
    default implementation); nested default-impl composites -- including
    those under transparent wrappers -- are resolved through *cache* in one
    post-order pass, so a shared cache makes a whole compile pass over an
    *n*-node hierarchy O(n) instead of O(n^2).
    """
    if id(root) in cache:
        return cache[id(root)]
    stack: List[CompositeComponent] = [root]
    while stack:
        node = stack[-1]
        if id(node) in cache:
            stack.pop()
            continue
        missing = []
        for sub in node._subcomponents.values():
            target = _deps_target(sub)
            if _default_deps_node(target) and id(target) not in cache:
                missing.append(target)
        if missing:
            stack.extend(missing)
            continue
        cache[id(node)] = node._compute_instantaneous_dependencies(cache)
        stack.pop()
    return cache[id(root)]


def _child_deps(component: "Component",
                cache: Dict[int, Dict[str, Set[str]]]) -> Dict[str, Set[str]]:
    """Instantaneous dependencies of a direct child, via the shared cache."""
    target = _deps_target(component)
    if _default_deps_node(target):
        return _instantaneous_deps(target, cache)
    return target.instantaneous_dependencies()


@dataclass(frozen=True)
class PlanEntry:
    """Precomputed per-sub-component schedule data of an :class:`ExecutionPlan`."""

    name: str
    input_names: Tuple[str, ...]
    #: True if any output depends instantaneously on some input (at plan time)
    has_feedthrough: bool
    #: instantaneous channels leaving this sub-component: (source, destination)
    propagate: Tuple[Tuple[PortKey, PortKey], ...]


@dataclass(frozen=True)
class ExecutionPlan:
    """One composite's schedule, precomputed once per structure version.

    The plan captures everything :meth:`CompositeComponent.react` otherwise
    recomputes every tick: the topological evaluation order, the
    instantaneous-propagation lists per source, the delayed-channel seed and
    commit lists and the boundary-output collection.  Both the reference
    interpreter and :mod:`repro.simulation.compiled` consume it.
    """

    token: Any
    order: Tuple[str, ...]
    entries: Tuple[PlanEntry, ...]
    #: instantaneous channels leaving boundary inputs: (source, destination)
    boundary_propagate: Tuple[Tuple[PortKey, PortKey], ...]
    #: delayed channels seeding destination ports: (channel name, dest, initial)
    delayed_seed: Tuple[Tuple[str, PortKey, Any], ...]
    #: delayed channels committing at end of tick: (channel name, source)
    delayed_commit: Tuple[Tuple[str, PortKey], ...]
    #: channels into boundary outputs: (port, delayed, channel name, initial, src)
    boundary_outputs: Tuple[Tuple[str, bool, str, Any, PortKey], ...]

    def correction_entries(self) -> Tuple[PlanEntry, ...]:
        """Entries without feedthrough, eligible for the state-correction pass."""
        return tuple(e for e in self.entries if not e.has_feedthrough)


class CompositeComponent(Component):
    """A component recursively defined by a network of sub-components.

    The flag *delayed_channels_by_default* selects the communication
    semantics of the diagram: ``True`` for SSD-style composition (every
    channel between sub-components introduces a unit delay) and ``False``
    for DFD-style instantaneous communication.  Individual channels can
    override the default.
    """

    def __init__(self, name: str, description: str = "",
                 delayed_channels_by_default: bool = False):
        super().__init__(name, description)
        self.delayed_channels_by_default = delayed_channels_by_default
        self._subcomponents: Dict[str, Component] = {}
        self._channels: List[Channel] = []
        self._plan_cache: Optional[ExecutionPlan] = None

    # The execution plan is derived state: a pickle carries only the
    # structure, so a model pickles to the same bytes before and after a
    # compile (the sharded runner keys its simulator cache by those bytes).
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_plan_cache"] = None
        return state

    # -- structure -------------------------------------------------------------
    def add_subcomponent(self, component: Component) -> Component:
        if component.name in self._subcomponents:
            raise NameConflictError(
                f"{self.name!r} already contains a sub-component "
                f"{component.name!r}")
        if component is self:
            raise ModelError("a component cannot contain itself")
        self._subcomponents[component.name] = component
        self._structure_version += 1
        return component

    def add(self, *components: Component) -> None:
        """Add several sub-components at once."""
        for component in components:
            self.add_subcomponent(component)

    def subcomponent(self, name: str) -> Component:
        try:
            return self._subcomponents[name]
        except KeyError as exc:
            raise UnknownElementError(
                f"{self.name!r} has no sub-component {name!r}") from exc

    def has_subcomponent(self, name: str) -> bool:
        return name in self._subcomponents

    def subcomponents(self) -> List[Component]:
        return list(self._subcomponents.values())

    def subcomponent_names(self) -> List[str]:
        return list(self._subcomponents.keys())

    def channels(self) -> List[Channel]:
        return list(self._channels)

    def add_channel(self, channel: Channel) -> Channel:
        """Attach a channel after validating both endpoints."""
        self._validate_endpoint(channel.source, expect_source=True)
        self._validate_endpoint(channel.destination, expect_source=False)
        for existing in self._channels:
            if existing.destination == channel.destination:
                raise ModelError(
                    f"destination {channel.destination!r} in {self.name!r} is "
                    f"already driven by channel {existing.name!r}")
        self._channels.append(channel)
        self._structure_version += 1
        return channel

    def connect(self, source: str, destination: str,
                name: Optional[str] = None, delayed: Optional[bool] = None,
                initial_value: Any = ABSENT) -> Channel:
        """Connect two endpoints given as ``"component.port"`` or ``"port"``.

        A bare port name refers to a boundary port of this composite.  The
        channel delay defaults to the diagram's channel semantics.
        """
        src = self._parse_endpoint(source)
        dst = self._parse_endpoint(destination)
        if delayed is None:
            delayed = self._default_delay(src, dst)
        channel = connect(src.component, src.port, dst.component, dst.port,
                          name=name, delayed=delayed, initial_value=initial_value)
        return self.add_channel(channel)

    def _default_delay(self, source: ChannelEnd, destination: ChannelEnd) -> bool:
        # Boundary forwarding (parent input -> child input, child output ->
        # parent output) never introduces a delay on its own; only channels
        # between sibling sub-components follow the diagram default.
        if source.is_boundary() or destination.is_boundary():
            return False
        return self.delayed_channels_by_default

    def _parse_endpoint(self, text: str) -> ChannelEnd:
        if "." in text:
            component_name, port_name = text.split(".", 1)
            return ChannelEnd(component_name, port_name)
        return ChannelEnd(None, text)

    def _validate_endpoint(self, end: ChannelEnd, expect_source: bool) -> None:
        if end.is_boundary():
            port = self.port(end.port)
            # A boundary *input* acts as a source inside the composite and a
            # boundary *output* acts as a destination.
            if expect_source and not port.is_input():
                raise ModelError(
                    f"boundary port {port.name!r} of {self.name!r} is not an "
                    "input and cannot be a channel source")
            if not expect_source and not port.is_output():
                raise ModelError(
                    f"boundary port {port.name!r} of {self.name!r} is not an "
                    "output and cannot be a channel destination")
            return
        component = self.subcomponent(end.component or "")
        port = component.port(end.port)
        if expect_source and not port.is_output():
            raise ModelError(
                f"{end!r} is not an output port and cannot be a channel source")
        if not expect_source and not port.is_input():
            raise ModelError(
                f"{end!r} is not an input port and cannot be a channel destination")

    # -- graph queries -----------------------------------------------------------
    def channels_from(self, component_name: Optional[str]) -> List[Channel]:
        return [c for c in self._channels if c.source.component == component_name]

    def channels_to(self, component_name: Optional[str]) -> List[Channel]:
        return [c for c in self._channels
                if c.destination.component == component_name]

    def internal_channels(self) -> List[Channel]:
        """Channels between two sub-components (no boundary endpoint)."""
        return [c for c in self._channels
                if not c.source.is_boundary() and not c.destination.is_boundary()]

    def instantaneous_subgraph(self, _deps_cache: Optional[Dict[int, Any]] = None
                               ) -> Dict[str, Set[str]]:
        """Directed graph over sub-component names with instantaneous edges.

        An edge ``a -> b`` exists if a non-delayed channel leads from an
        output of *a* to an input port of *b* on which some output of *b*
        depends within the same tick.  Channels into ports that only feed
        internal state (e.g. the input of a unit-delay block) therefore do
        *not* create an ordering constraint -- this is exactly what lets a
        delay block break an otherwise instantaneous feedback loop, and what
        the causality check of the tool prototype verifies (paper Sec. 3.2).

        ``_deps_cache`` lets a whole compile pass (the flat-schedule
        compiler) share one dependency cache across every composite of the
        hierarchy; public callers can ignore it.
        """
        cache: Dict[int, Any] = {} if _deps_cache is None else _deps_cache
        graph: Dict[str, Set[str]] = {name: set() for name in self._subcomponents}
        feedthrough_inputs: Dict[str, Set[str]] = {}
        for name, component in self._subcomponents.items():
            inputs: Set[str] = set()
            for dep_inputs in _child_deps(component, cache).values():
                inputs |= dep_inputs
            feedthrough_inputs[name] = inputs
        for channel in self.internal_channels():
            if channel.delayed:
                continue
            source_name = channel.source.component
            dest_name = channel.destination.component
            if source_name is None or dest_name is None:
                continue
            if channel.destination.port in feedthrough_inputs.get(dest_name, set()):
                graph[source_name].add(dest_name)
        return graph

    def evaluation_order(self) -> List[str]:
        """Topological order of sub-components w.r.t. instantaneous channels.

        Raises :class:`CausalityError` if the instantaneous sub-graph has a
        cycle (the causality check of the AutoMoDe tool prototype,
        paper Sec. 3.2).  The order is cached with the execution plan and
        recomputed only when the structure token changes.
        """
        return list(self.execution_plan().order)

    def _compute_evaluation_order(self, _deps_cache: Optional[Dict[int, Any]]
                                  = None) -> List[str]:
        graph = self.instantaneous_subgraph(_deps_cache)
        in_degree: Dict[str, int] = {name: 0 for name in graph}
        for source, targets in graph.items():
            for target in targets:
                in_degree[target] += 1
        ready = sorted(name for name, degree in in_degree.items() if degree == 0)
        order: List[str] = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            for target in sorted(graph[current]):
                in_degree[target] -= 1
                if in_degree[target] == 0:
                    ready.append(target)
            ready.sort()
        if len(order) != len(graph):
            cycle_members = sorted(name for name, degree in in_degree.items()
                                   if degree > 0)
            raise CausalityError(
                f"instantaneous loop in {self.name!r} involving: "
                f"{', '.join(cycle_members)}")
        return order

    # -- execution plan ----------------------------------------------------------
    def structure_token(self) -> Any:
        # Iterative (worklist) so deep hierarchies don't hit the Python
        # recursion limit; the token value is identical to the recursive
        # definition (version, (child tokens...)).
        return subtree_structure_tokens(self)[id(self)]

    def invalidate_plan(self) -> None:
        """Drop the cached execution plan after direct structural surgery.

        The public mutation API (:meth:`add_subcomponent`, :meth:`add_channel`,
        :meth:`add_port`) invalidates automatically; code that edits the
        private channel or sub-component collections must call this.
        """
        self._structure_version += 1
        self._plan_cache = None

    def execution_plan(self, _token: Any = None,
                       _deps_cache: Optional[Dict[int, Any]] = None
                       ) -> ExecutionPlan:
        """The cached :class:`ExecutionPlan` for the current structure.

        ``_token`` and ``_deps_cache`` let one compile pass precompute the
        structure tokens and share a dependency cache across the whole
        hierarchy (see :mod:`repro.simulation.schedule_ir`); public callers
        can ignore both.
        """
        token = self.structure_token() if _token is None else _token
        plan = self._plan_cache
        hit = plan is not None and plan.token == token
        registry = current_registry()
        if registry is not None:
            registry.counter("compile.plan_cache.hit" if hit
                             else "compile.plan_cache.miss").inc()
        if not hit:
            plan = self._build_execution_plan(token, _deps_cache)
            self._plan_cache = plan
        return plan

    def _build_execution_plan(self, token: Any,
                              _deps_cache: Optional[Dict[int, Any]] = None
                              ) -> ExecutionPlan:
        cache: Dict[int, Any] = {} if _deps_cache is None else _deps_cache
        order = self._compute_evaluation_order(cache)
        propagate_by_source: Dict[Optional[str], List[Tuple[PortKey, PortKey]]] = {}
        for channel in self._channels:
            if channel.delayed:
                continue
            propagate_by_source.setdefault(channel.source.component, []).append(
                (channel.source.key, channel.destination.key))
        entries = []
        for sub_name in order:
            component = self._subcomponents[sub_name]
            has_feedthrough = any(_child_deps(component, cache).values())
            entries.append(PlanEntry(
                name=sub_name,
                input_names=tuple(component.input_names()),
                has_feedthrough=has_feedthrough,
                propagate=tuple(propagate_by_source.get(sub_name, ()))))
        delayed_seed = tuple(
            (channel.name, channel.destination.key, channel.initial_value)
            for channel in self._channels if channel.delayed)
        delayed_commit = tuple(
            (channel.name, channel.source.key)
            for channel in self._channels if channel.delayed)
        boundary_outputs = tuple(
            (channel.destination.port, channel.delayed, channel.name,
             channel.initial_value, channel.source.key)
            for channel in self._channels if channel.destination.is_boundary())
        return ExecutionPlan(
            token=token,
            order=tuple(order),
            entries=tuple(entries),
            boundary_propagate=tuple(propagate_by_source.get(None, ())),
            delayed_seed=delayed_seed,
            delayed_commit=delayed_commit,
            boundary_outputs=boundary_outputs)

    # -- behaviour ---------------------------------------------------------------
    def has_behavior(self) -> bool:
        # Iterative (worklist) over the subtree -- including through
        # transparent wrappers -- so deep hierarchies don't hit the Python
        # recursion limit; subclasses overriding has_behavior are consulted
        # directly.
        stack: List[Component] = list(self._subcomponents.values())
        while stack:
            node = stack.pop()
            wrapped = _wrapped_component(node, "has_behavior")
            if wrapped is not None:
                stack.append(wrapped)
            elif isinstance(node, CompositeComponent) \
                    and type(node).has_behavior is CompositeComponent.has_behavior:
                stack.extend(node._subcomponents.values())
            elif not node.has_behavior():
                return False
        return True

    def initial_state(self) -> Any:
        sub_states = {name: sub.initial_state()
                      for name, sub in self._subcomponents.items()}
        delayed = {channel.name: channel.initial_value
                   for channel in self._channels if channel.delayed}
        return {"subs": sub_states, "delayed": delayed}

    def react(self, inputs: Mapping[str, Any], state: Any,
              tick: int) -> Tuple[Dict[str, Any], Any]:
        if state is None:
            state = self.initial_state()
        sub_states: Dict[str, Any] = dict(state["subs"])
        delayed_buffers: Dict[str, Any] = dict(state["delayed"])

        # Values available at (component, port) destinations during this tick.
        port_values: Dict[Tuple[Optional[str], str], Any] = {}
        for name, value in inputs.items():
            port_values[(None, name)] = value

        # Seed destination ports fed by delayed channels with last tick's value.
        for channel in self._channels:
            if channel.delayed:
                port_values[channel.destination.key] = delayed_buffers.get(
                    channel.name, channel.initial_value)

        # Propagate instantaneous boundary-input forwarding before evaluation.
        self._propagate_instantaneous(port_values, sources_ready={None})

        seen_inputs: Dict[str, Dict[str, Any]] = {}
        order = self.evaluation_order()
        for sub_name in order:
            component = self._subcomponents[sub_name]
            sub_inputs = {
                port_name: port_values.get((sub_name, port_name), ABSENT)
                for port_name in component.input_names()
            }
            try:
                outputs, new_state = component.react(
                    sub_inputs, sub_states.get(sub_name), tick)
            except NotImplementedError as exc:
                raise SimulationError(
                    f"sub-component {sub_name!r} of {self.name!r} has no "
                    f"executable behaviour") from exc
            seen_inputs[sub_name] = sub_inputs
            sub_states[sub_name] = new_state
            for port_name, value in outputs.items():
                port_values[(sub_name, port_name)] = value
            # Forward along instantaneous channels leaving this component.
            self._propagate_instantaneous(port_values, sources_ready={sub_name})

        # Second pass: a non-feedthrough component (e.g. a unit delay closing
        # a feedback loop) may have been evaluated before its producers, so
        # its *state update* saw stale inputs even though its outputs were
        # correct.  Re-run its step from the original state with the final
        # input values; by construction its outputs cannot change.
        for sub_name in order:
            component = self._subcomponents[sub_name]
            has_feedthrough = any(component.instantaneous_dependencies().values())
            if has_feedthrough:
                continue
            final_inputs = {
                port_name: port_values.get((sub_name, port_name), ABSENT)
                for port_name in component.input_names()
            }
            if final_inputs != seen_inputs[sub_name]:
                _, corrected_state = component.react(
                    final_inputs, state["subs"].get(sub_name), tick)
                sub_states[sub_name] = corrected_state

        # Collect boundary outputs.
        boundary_outputs: Dict[str, Any] = {
            name: ABSENT for name in self.output_names()}
        for channel in self._channels:
            if channel.destination.is_boundary():
                value = self._source_value(channel, port_values, delayed_buffers)
                boundary_outputs[channel.destination.port] = value

        # Commit delayed channels for the next tick.
        for channel in self._channels:
            if channel.delayed:
                source_value = port_values.get(channel.source.key, ABSENT)
                delayed_buffers[channel.name] = source_value

        next_state = {"subs": sub_states, "delayed": delayed_buffers}
        return boundary_outputs, next_state

    def _source_value(self, channel: Channel,
                      port_values: Mapping[Tuple[Optional[str], str], Any],
                      delayed_buffers: Mapping[str, Any]) -> Any:
        if channel.delayed:
            return delayed_buffers.get(channel.name, channel.initial_value)
        return port_values.get(channel.source.key, ABSENT)

    def _propagate_instantaneous(
            self, port_values: Dict[Tuple[Optional[str], str], Any],
            sources_ready: Set[Optional[str]]) -> None:
        for channel in self._channels:
            if channel.delayed:
                continue
            if channel.source.component not in sources_ready:
                continue
            if channel.source.key in port_values:
                port_values[channel.destination.key] = port_values[channel.source.key]

    def instantaneous_dependencies(self) -> Dict[str, Set[str]]:
        """Input-to-output instantaneous dependencies through the network.

        Nested default-impl composites are resolved with an iterative
        post-order pass (:func:`_instantaneous_deps`), so deep hierarchies
        don't hit the Python recursion limit.
        """
        return _instantaneous_deps(self, {})

    def _compute_instantaneous_dependencies(
            self, cache: Dict[int, Dict[str, Set[str]]]) -> Dict[str, Set[str]]:
        # Build a port-level graph and do a reachability analysis from each
        # boundary input to the boundary outputs along instantaneous edges.
        edges: Dict[Tuple[Optional[str], str], Set[Tuple[Optional[str], str]]] = {}

        def add_edge(src: Tuple[Optional[str], str],
                     dst: Tuple[Optional[str], str]) -> None:
            edges.setdefault(src, set()).add(dst)

        for channel in self._channels:
            if channel.delayed:
                continue
            add_edge(channel.source.key, channel.destination.key)
        for sub_name, component in self._subcomponents.items():
            for out_name, in_names in _child_deps(component, cache).items():
                for in_name in in_names:
                    add_edge((sub_name, in_name), (sub_name, out_name))

        result: Dict[str, Set[str]] = {out: set() for out in self.output_names()}
        for in_port in self.input_names():
            reachable: Set[Tuple[Optional[str], str]] = set()
            frontier = [(None, in_port)]
            while frontier:
                node = frontier.pop()
                for succ in edges.get(node, ()):  # type: ignore[arg-type]
                    if succ not in reachable:
                        reachable.add(succ)
                        frontier.append(succ)
            for out_port in self.output_names():
                if (None, out_port) in reachable:
                    result[out_port].add(in_port)
        return result

    # -- traversal ----------------------------------------------------------------
    def walk(self) -> Iterable[Tuple[str, Component]]:
        """Yield (hierarchical path, component) for this subtree, pre-order."""
        yield self.name, self
        for sub in self._subcomponents.values():
            if isinstance(sub, CompositeComponent):
                for path, component in sub.walk():
                    yield f"{self.name}/{path}", component
            else:
                yield f"{self.name}/{sub.name}", sub

    def flatten_leaves(self) -> List[Component]:
        """All atomic (non-composite) components of the subtree."""
        leaves: List[Component] = []
        for _, component in self.walk():
            if not isinstance(component, CompositeComponent):
                leaves.append(component)
        return leaves

    def hierarchy_depth(self) -> int:
        """Depth of the composition hierarchy (a flat diagram has depth 1)."""
        depths = [1]
        for sub in self._subcomponents.values():
            if isinstance(sub, CompositeComponent):
                depths.append(1 + sub.hierarchy_depth())
        return max(depths)
