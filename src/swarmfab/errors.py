"""Exception hierarchy shared by all swarmfab modules."""


class SwarmFabError(Exception):
    """Base class for all package errors."""


# --- g-code parsing / interpretation ---

class GcodeError(SwarmFabError):
    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


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
        self.line_no = line_no
        super().__init__(message)


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
    def __init__(self, message, line_no=None):
        self.line_no = line_no
        super().__init__(message)


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
    def __init__(self, message, line_no=None):
        self.line_no = line_no
        super().__init__(message)


class StallTimeout(SimError):
    pass


class KinematicsFault(SimError):
    pass


# --- configuration ---

class ConfigError(SwarmFabError):
    pass
