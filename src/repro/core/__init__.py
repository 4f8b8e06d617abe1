"""Core metamodel of the AutoMoDe reproduction.

This package implements the operational model of paper Sec. 2 (messages,
absence, discrete time, abstract clocks), the base expression language, the
abstract and implementation type systems, and the component/port/channel
metamodel that all notations (SSD, DFD, MTD, STD, CCD) are views of.
"""

from .channels import Channel, ChannelEnd, connect
from .clocks import (BASE_CLOCK, BaseClock, Clock, EventClock, PeriodicClock,
                     RateRelation, SampledClock, are_synchronous, every,
                     hyperperiod, is_subclock, rate_ratio, relate, slower_than)
from .components import (Component, CompositeComponent, ExpressionComponent,
                         FunctionComponent, StatefulComponent)
from .errors import (AutoModeError, CausalityError, ClockError, CodeGenError,
                     DeploymentError, ExpressionError, ExpressionEvalError,
                     ExpressionParseError, ModelError, NameConflictError,
                     QuantizationError, SchedulingError, SerializationError,
                     SimulationError, TransformationError, TypeCheckError,
                     TypeMappingError, UnknownElementError, ValidationError)
from .expr_compile import CompiledExpression, compile_expression
from .expr_eval import ExpressionEvaluator, evaluate
from .expr_parser import parse_expression
from .expressions import (BinaryOp, Call, Conditional, Expression, Literal,
                          Present, UnaryOp, Variable)
from .impl_types import (BOOL8, INT8, INT16, INT32, UINT8, UINT16, UINT32,
                         FixedPointType, ImplementationMapping,
                         ImplementationType, ImplEnumType, MachineIntType,
                         choose_implementation_type)
from .model import (AbstractionLevel, AutoModeModel, LEVEL_ORDER,
                    TransformationRecord, is_more_abstract)
from .ports import Port, PortDirection, input_port, output_port
from .types import (ANY, BOOL, FLOAT, INT, AnyType, BoolType, EnumType,
                    FloatType, IntType, StructType, Type, TypeEnvironment,
                    check_value, infer_type, is_assignable, unify)
from .validation import (FINDING_SCHEMA_VERSION, Finding, Rule, RuleSet,
                         Severity, ValidationReport)
from .values import ABSENT, Stream, every as every_pattern, is_absent, is_present

__all__ = [
    "ABSENT", "ANY", "AbstractionLevel", "AnyType", "AutoModeError",
    "AutoModeModel", "BASE_CLOCK", "BOOL", "BOOL8", "BaseClock", "BinaryOp",
    "BoolType", "Call", "CausalityError", "Channel", "ChannelEnd", "Clock",
    "ClockError", "CodeGenError", "CompiledExpression", "Component",
    "CompositeComponent", "Conditional", "DeploymentError", "EnumType", "EventClock", "Expression",
    "ExpressionComponent", "ExpressionError", "ExpressionEvalError",
    "ExpressionEvaluator", "ExpressionParseError", "FINDING_SCHEMA_VERSION",
    "FLOAT", "Finding", "FixedPointType", "FloatType", "FunctionComponent",
    "INT", "INT16", "INT32", "INT8",
    "ImplEnumType", "ImplementationMapping", "ImplementationType", "IntType",
    "LEVEL_ORDER", "Literal", "MachineIntType", "ModelError",
    "NameConflictError", "PeriodicClock", "Port", "PortDirection", "Present",
    "QuantizationError", "RateRelation", "Rule", "RuleSet", "SampledClock",
    "SchedulingError", "SerializationError", "Severity", "SimulationError",
    "StatefulComponent", "Stream", "StructType", "TransformationError",
    "TransformationRecord", "Type", "TypeCheckError", "TypeEnvironment",
    "TypeMappingError", "UINT16", "UINT32", "UINT8", "UnaryOp",
    "UnknownElementError", "ValidationError", "ValidationReport", "Variable",
    "are_synchronous", "check_value", "choose_implementation_type",
    "compile_expression", "connect", "evaluate", "every", "every_pattern", "hyperperiod", "infer_type",
    "input_port", "is_absent", "is_assignable", "is_more_abstract",
    "is_present", "is_subclock", "output_port",
    "parse_expression", "rate_ratio", "relate", "slower_than", "unify",
]
