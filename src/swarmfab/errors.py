"""Exception hierarchy shared by all swarmfab modules."""


class SwarmFabError(Exception):
    """Base class for all package errors; `line_no` is the g-code line the
    error is at, if any."""

    def __init__(self, message, line_no=None):
        self.line_no = line_no
        super().__init__(message)


# --- g-code parsing / interpretation ---

class GcodeError(SwarmFabError):
    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message, line_no)


class UnknownWord(GcodeError):
    pass


class DuplicateParam(GcodeError):
    pass


class MalformedNumber(GcodeError):
    pass


class UnsupportedGCode(GcodeError):
    pass


class InconsistentArc(GcodeError):
    pass


class DegenerateArc(GcodeError):
    pass


# --- kinematics ---

class KinematicsError(SwarmFabError):
    pass


class OutOfWorkspace(KinematicsError):
    def __init__(self, message, reason=None, line_no=None):
        self.reason = reason
        super().__init__(message, line_no)


class BridgeSkewed(KinematicsError):
    pass


class Unreachable(KinematicsError):
    pass


class NoIntersection(KinematicsError):
    pass


class IllConditioned(KinematicsError):
    pass


# --- planning ---

class PlanError(SwarmFabError):
    pass


class InsufficientRobots(PlanError):
    def __init__(self, needed, available, morphology):
        self.needed = needed
        self.available = available
        self.morphology = morphology
        super().__init__(
            f"{morphology} needs {needed} robots, roster has {available}"
        )


# --- simulation ---

class SimError(SwarmFabError):
    pass


class StallTimeout(SimError):
    pass


class KinematicsFault(SimError):
    pass


# --- configuration ---

class ConfigError(SwarmFabError):
    pass
