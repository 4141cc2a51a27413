"""LLM-in-the-loop tuning of the (1+1)-ES step-size adaptation rate tau."""

from .es import EsTemplate, ObjectiveSpec
from .llm import ScriptedBackend
from .store import SessionConfig

__all__ = ["EsTemplate", "ObjectiveSpec", "ScriptedBackend", "SessionConfig"]

__version__ = "0.1.0"
